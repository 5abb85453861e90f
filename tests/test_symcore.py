import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdisc import kernel, symcore
from symdisc.errors import SolverFailure
from symdisc.symcore import (
    classify_gn,
    classify_roots,
    companion_roots,
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
    assert s[0] == pytest.approx(complex((1 + 2 * r3) / 2, r3 / 2), abs=1e-15)
    assert s[1] == pytest.approx(complex((2 + r3) / 2, 1.5), abs=1e-15)
    assert s[2] == pytest.approx(cmath.exp(1j * math.pi / 3), abs=1e-15)


def test_elem_sym_zeros_and_small_integers():
    assert elem_sym([0, 0, 0]) == (0j, 0j, 0j)
    assert elem_sym([2, 3]) == ((5 + 0j), (6 + 0j))


def test_elem_sym_matches_subset_enumeration(rng):
    for n in (1, 2, 4, 6):
        pts = draw_disc_tuple(rng, n, min_gap=0.0 if n == 1 else 0.01)
        got = elem_sym(pts)
        want = brute_elem_sym(pts)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.lists(disc_complex, min_size=2, max_size=6), st.randoms())
def test_elem_sym_permutation_invariant(points, pyrandom):
    shuffled = list(points)
    pyrandom.shuffle(shuffled)
    a = elem_sym(points)
    b = elem_sym(shuffled)
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


def _unconverged(matrices, signature):
    """A LAPACK eigenvalue gufunc that fails as numpy's does: NaN roots,
    reported through the invalid flag (0 / 0 raises it)."""
    return np.zeros(matrices.shape[:-1]) / np.zeros(matrices.shape[:-1])


def test_roots_from_sym_maps_an_eigenvalue_failure(monkeypatch):
    monkeypatch.setattr(symcore, "_eigvals", _unconverged)
    with pytest.raises(SolverFailure, match=r"\(degree 2\): Eigenvalues did not converge"):
        roots_from_sym(elem_sym([0.3, -0.2j]))
    # whatever error state the caller set, and with no warning
    with np.errstate(all="raise"), pytest.raises(SolverFailure, match="degree 3"):
        companion_roots([[1, 0.5, 0.2, 0.1]])
    with np.errstate(all="ignore"), pytest.raises(SolverFailure, match="degree 3"):
        companion_roots([[1, 0.5, 0.2, 0.1]])


def test_a_non_finite_companion_entry_is_a_solver_failure():
    # -1 / 1e-310 overflows, as in np.roots, so the companion matrix holds
    # an infinite entry, which np.linalg.eigvals refuses; the division
    # warns of it, and of a non-finite coefficient, as np.roots does
    polys = [[1e-310, 1.0, 0.5], [1.0, 2.0, np.inf, 0.0], [2.0, np.nan]]
    with np.errstate(over="ignore", invalid="ignore"):
        for p, degree in zip(polys, (2, 2, 1)):
            with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
                np.roots(p)
            with pytest.raises(SolverFailure, match=rf"\(degree {degree}\): Array must not contain infs or NaNs"):
                companion_roots([p])
        # a finite polynomial of the same degree in the same call fails with it
        with pytest.raises(SolverFailure, match="degree 2"):
            companion_roots([[1.0, 0.25j, 0.5], polys[0]])
    assert roots_from_sym((0.5, 1e300))  # finite, however large


SIGNED_ZEROS = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))


def _polynomial_draws(seed, count):
    """Seeded complex coefficient lists of degree 0-9 (before leading and
    trailing zeros): random coefficients, real coefficients, real roots
    and repeated roots.  Some coefficients are signed zeros, and up to
    two leading and three trailing zeros are added."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        degree = int(rng.integers(0, 10))
        kind = int(rng.integers(4))
        if kind == 0:
            p = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        elif kind == 1:
            p = rng.normal(size=degree + 1)
        elif kind == 2:
            p = np.poly(rng.uniform(-1, 1, degree)) * rng.normal()
        else:
            nodes = rng.normal(size=degree) + 1j * rng.normal(size=degree)
            p = np.poly(np.repeat(nodes, rng.integers(1, 4, size=degree))[:degree])
        p = [complex(c) for c in np.atleast_1d(p)]
        for i in rng.integers(0, len(p), size=rng.integers(0, 3)):
            p[i] = SIGNED_ZEROS[rng.integers(4)]
        lead = [SIGNED_ZEROS[k] for k in rng.integers(0, 4, size=rng.integers(0, 3))]
        trail = [SIGNED_ZEROS[k] for k in rng.integers(0, 4, size=rng.integers(0, 4))]
        yield lead + p + trail


def _same_roots(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_companion_roots_are_np_roots_bit_for_bit():
    polys = list(_polynomial_draws(29, 1200))
    polys += [[1j, -3, 2], [0j, 2, 0], [0j, -0j], [0j], [], [3j], [-0j, 2j, -0j]]
    assert {len(p) for p in polys} >= set(range(1, 15))
    # one polynomial per call, and stacks of up to 12 that mix degrees
    rng = np.random.default_rng(30)
    start = 0
    calls = [[p] for p in polys]
    while start < len(polys):
        size = int(rng.integers(2, 13))
        calls.append(polys[start : start + size])
        start += size
    for call in calls:
        got = companion_roots(call)
        assert len(got) == len(call)
        for p, roots in zip(call, got):
            assert _same_roots(roots, np.roots(np.asarray(p, dtype=complex))), p


def test_companion_roots_makes_one_eigenvalue_call_per_degree(monkeypatch):
    eigvals = symcore._eigvals
    stacks = []

    def counted(a, **kwargs):
        stacks.append(a.shape)
        return eigvals(a, **kwargs)

    monkeypatch.setattr(symcore, "_eigvals", counted)
    polys = [[1, 0.5j, 0.2], [2j, 0.1, 0.3, 0.4], [0j, 1, -0.5, 0.1], [1j, 0.3, 0], [0.5j, 0.2]]
    roots = companion_roots(polys)
    # the third is quadratic once its leading zero goes; the fourth is
    # linear once its trailing zero goes, with a zero root after its own
    assert sorted(stacks) == [(1, 3, 3), (2, 1, 1), (2, 2, 2)]
    monkeypatch.setattr(symcore, "_eigvals", eigvals)
    for p, r in zip(polys, roots):
        assert _same_roots(r, np.roots(p))


@pytest.mark.parametrize("z", [complex(a, b) for a in (0.0, -0.0, 0.3, -0.3) for b in (0.0, -0.0, 0.2)])
def test_roots_from_sym_returns_a_single_coordinate_as_it_is(z):
    (root,) = roots_from_sym((z,))
    assert (root.real.hex(), root.imag.hex()) == (z.real.hex(), z.imag.hex())


# every entry point that reads a point's coordinates, called at one point
ENTRY_POINTS = {
    "elem_sym": elem_sym,
    "roots_from_sym": roots_from_sym,
    "classify_gn": classify_gn,
    "in_gn": in_gn,
    "vandermonde_pair": lambda p: vandermonde_pair(p, p),
    "kernel_gn": lambda p: kernel.kernel_gn(p, p),
    "kernel_gn_stable": lambda p: kernel.kernel_gn_stable(p, p),
    "kernel_gn_with_error": lambda p: kernel.kernel_gn_with_error(p, p),
    "permanent_exact": lambda p: kernel.permanent_exact(p, p),
    "delta_n": lambda p: kernel.delta_n(p, p),
}


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_a_point_without_coordinates_is_a_usage_error(call):
    with pytest.raises(ValueError, match="at least one coordinate"):
        call(())


@pytest.mark.parametrize(
    "point",
    [(math.nan,), (0.1, math.inf), (0.2, complex(0, -math.inf)), (0.5, complex(math.nan, 0.3), 0.1j)],
    ids=["nan", "inf", "imag-inf", "nan-among-three"],
)
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_a_non_finite_coordinate_is_a_usage_error(call, point):
    # no nan result, no RuntimeWarning (an error under the test settings)
    # and no OverflowError from the exact sum
    with pytest.raises(ValueError, match="finite"):
        call(point)


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
