import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdisc import symcore
from symdisc.errors import NotInDomain, SolverFailure
from symdisc.symcore import (
    PolyPoint,
    classify_gn,
    classify_roots,
    elem_sym,
    in_gn,
    roots_from_sym,
    vandermonde_pair,
)

from .conftest import draw_disc_tuple, multiset_close
from .oracles import brute_elem_sym

TORUS = (cmath.exp(1j * math.pi / 6), cmath.exp(1j * math.pi / 3), cmath.exp(-1j * math.pi / 6))

disc_complex = st.builds(
    complex,
    st.floats(-0.95, 0.95),
    st.floats(-0.95, 0.95),
).filter(lambda c: abs(c) < 0.95)


def test_elem_sym_unimodular_base_triple():
    s = elem_sym(TORUS)
    r3 = math.sqrt(3.0)
    assert s.coords[0] == pytest.approx(complex((1 + 2 * r3) / 2, r3 / 2), abs=1e-15)
    assert s.coords[1] == pytest.approx(complex((2 + r3) / 2, 1.5), abs=1e-15)
    assert s.coords[2] == pytest.approx(cmath.exp(1j * math.pi / 3), abs=1e-15)


def test_elem_sym_zeros_and_small_integers():
    assert elem_sym([0, 0, 0]).coords == (0j, 0j, 0j)
    assert elem_sym([2, 3]).coords == ((5 + 0j), (6 + 0j))


def test_elem_sym_matches_subset_enumeration(rng):
    for n in (1, 2, 4, 6):
        pts = draw_disc_tuple(rng, n, min_gap=0.0 if n == 1 else 0.01)
        got = elem_sym(pts).coords
        want = brute_elem_sym(pts)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.lists(disc_complex, min_size=2, max_size=6), st.randoms())
def test_elem_sym_permutation_invariant(points, pyrandom):
    shuffled = list(points)
    pyrandom.shuffle(shuffled)
    a = elem_sym(points).coords
    b = elem_sym(shuffled).coords
    for x, y in zip(a, b):
        assert x == pytest.approx(y, rel=1e-9, abs=1e-12)


def test_roots_from_sym_factorization():
    roots = roots_from_sym([5, 6])
    assert multiset_close(roots, [2, 3], 1e-10)


def test_roots_from_sym_all_zero():
    roots = roots_from_sym([0, 0, 0, 0])
    assert all(abs(r) < 1e-3 for r in roots)


def test_roots_from_sym_is_deterministic():
    s = elem_sym([0.3 + 0.2j, -0.5, 0.1j])
    assert roots_from_sym(s) == roots_from_sym(s)


def test_roots_from_sym_maps_an_eigenvalue_failure(monkeypatch):
    def fail(coeffs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(symcore.np, "roots", fail)
    with pytest.raises(SolverFailure):
        roots_from_sym(elem_sym([0.3, -0.2j]))


@pytest.mark.parametrize("s", [[math.nan, 0.1], [math.inf, 0], [0.2, complex(0, math.inf)], [math.nan]])
def test_non_finite_coordinates_are_usage_errors(s):
    with pytest.raises(ValueError, match="finite"):
        roots_from_sym(s)
    with pytest.raises(ValueError, match="finite"):
        in_gn(s)
    with pytest.raises(ValueError, match="finite"):
        classify_roots(s)


def test_round_trip_random_tuples(rng):
    for n in range(2, 9):
        for _ in range(20):
            lam = draw_disc_tuple(rng, n, radius=0.93, min_gap=1e-3)
            rec = roots_from_sym(elem_sym(lam))
            assert multiset_close(rec, lam, 1e-10)


def test_in_gn_examples(rng):
    assert in_gn(elem_sym([0.5, 0.3j, -0.2]))
    assert not in_gn([5, 6])
    assert in_gn([0, 0, 0, 0])


def test_in_gn_accepts_near_boundary_points():
    lam = [(1 - 1e-6) * cmath.exp(2j * math.pi * k / 5) for k in range(5)]
    assert in_gn(elem_sym(lam))


def test_classify_boundary_indeterminate():
    r = 1 - 5e-13  # inside the guard band around the unit circle
    assert classify_gn(elem_sym([r, -0.2])) == "boundary-indeterminate"
    assert classify_gn(elem_sym([1.1, 0.2])) == "outside"


def test_classify_roots_takes_the_roots_directly():
    assert classify_roots([0.5, 0.3j, -0.2]) == "inside"
    assert classify_roots([1 - 5e-13, -0.2]) == "boundary-indeterminate"
    assert classify_roots([1.1, 0.2]) == "outside"
    s = elem_sym([0.9j, -0.4, 0.1])
    assert classify_roots(roots_from_sym(s)) == classify_gn(s)


def test_vandermonde_pair_values():
    assert vandermonde_pair([0, 0.5], [0, 0.5]) == pytest.approx(0.25)
    assert vandermonde_pair([0.3, 0.3, 0.1], [0.2, 0.5, 0.7]) == 0
    assert vandermonde_pair([1, 2, 3], [0, 1, 2]) == pytest.approx(4.0)


@settings(max_examples=30, deadline=None)
@given(st.lists(disc_complex, min_size=2, max_size=5), st.randoms())
def test_vandermonde_pair_same_permutation_invariant(lam, pyrandom):
    mu = [c / 2 + 0.1 for c in lam]
    order = list(range(len(lam)))
    pyrandom.shuffle(order)
    lam2 = [lam[i] for i in order]
    mu2 = [mu[i] for i in order]
    v1 = vandermonde_pair(lam, mu)
    v2 = vandermonde_pair(lam2, mu2)
    assert v2 == pytest.approx(v1, rel=1e-9, abs=1e-12)


def test_vandermonde_dimension_mismatch():
    with pytest.raises(ValueError):
        vandermonde_pair([1, 2], [1, 2, 3])


def test_polypoint_domain_constructor():
    PolyPoint.in_domain([0.5, -0.5j])
    with pytest.raises(NotInDomain):
        PolyPoint.in_domain([1.0, 0.0])
    raw = PolyPoint([2.0, 3.0])  # raw points are allowed for identity tests
    assert raw.n == 2


def test_polypoint_rejects_empty():
    with pytest.raises(ValueError):
        PolyPoint([])
