"""Kernel evaluation at coincident preimage coordinates against an
independent perturbation-extrapolation oracle."""

import math

import pytest

from symdisc.errors import NotInDomain
from symdisc.kernel import kernel_gn, kernel_gn_stable
from symdisc.symcore import elem_sym

from .conftest import expand_clusters
from .oracles import extrapolated_confluent_kernel


def test_double_zero_both_sides():
    ev = kernel_gn_stable(elem_sym([0, 0]), elem_sym([0, 0]))
    expected = 2 / math.pi**2
    assert ev.value == pytest.approx(expected, rel=1e-12)
    assert ev.value.real > 0


def test_double_zero_matches_extrapolation():
    got = kernel_gn([0j, 0j], [0j, 0j]).value
    oracle = extrapolated_confluent_kernel([0j], [2], [0j], [2])
    assert got == pytest.approx(oracle, rel=1e-6)


def test_repeated_lambda_distinct_mu():
    lnodes, lmults = [0.3 + 0.2j, -0.4j], [2, 1]
    mnodes, mmults = [0.5, -0.2 + 0.1j, 0.3j], [1, 1, 1]
    got = kernel_gn(expand_clusters(lnodes, lmults), expand_clusters(mnodes, mmults)).value
    oracle = extrapolated_confluent_kernel(lnodes, lmults, mnodes, mmults)
    assert got == pytest.approx(oracle, rel=1e-6)


def test_triple_cluster():
    lnodes, lmults = [0.25 - 0.3j], [3]
    mnodes, mmults = [0.1 + 0.1j, -0.5, 0.4j], [1, 1, 1]
    got = kernel_gn(expand_clusters(lnodes, lmults), expand_clusters(mnodes, mmults)).value
    oracle = extrapolated_confluent_kernel(lnodes, lmults, mnodes, mmults)
    assert got == pytest.approx(oracle, rel=1e-6)


def test_stable_evaluation_recovers_clusters():
    # full pipeline: symmetrize a confluent tuple, re-solve, evaluate
    lam = (0.2 + 0.1j, 0.2 + 0.1j, -0.35)
    mu = (0.45j, 0.45j, -0.3)
    got = kernel_gn_stable(elem_sym(lam), elem_sym(mu)).value
    oracle = extrapolated_confluent_kernel(
        [0.2 + 0.1j, -0.35], [2, 1], [0.45j, -0.3], [2, 1]
    )
    assert got == pytest.approx(oracle, rel=1e-6)


def test_stable_rejects_points_outside_domain():
    with pytest.raises(NotInDomain):
        kernel_gn_stable([5, 6], elem_sym([0.1, 0.2]))


def test_double_zero_matches_shrinking_perturbation():
    # direct epsilon-extrapolation consistency at split coordinates
    ev = kernel_gn_stable(elem_sym([0, 0]), elem_sym([0, 0]))

    vals = []
    for eps in (1e-2, 5e-3, 2.5e-3):
        v = kernel_gn([eps, -eps], [eps, -eps]).value
        vals.append(v)
    # second-order Richardson on an even function of eps
    extr = (4 * vals[1] - vals[0]) / 3
    extr = (16 * ((4 * vals[2] - vals[1]) / 3) - (4 * vals[1] - vals[0]) / 3) / 15
    assert ev.value == pytest.approx(extr, rel=1e-6)
