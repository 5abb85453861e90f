import cmath
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdisc import kernel, symcore
from symdisc.errors import MuOneZero, NotInDomain, SingularEntry
from symdisc.kernel import (
    PI,
    abc_coeffs,
    reduction_chain_check,
    bracket_coeffs_ABC,
    bracket_expr,
    closed_form_comparison,
    delta_n,
    det_pivoted,
    kernel_g3_mu3zero,
    kernel_gn,
    kernel_gn_stable,
)
from symdisc.symcore import elem_sym, roots_from_sym
from symdisc.zerofind import ZeroCertificate, construct_zero_dim3

from .conftest import draw_disc_tuple
from .oracles import (
    bareiss_delta,
    exact_kernel,
    extrapolated_confluent_kernel,
    fraction_delta,
    log_kernel_mp,
    loop_closed_form_comparison,
    loop_disc_draw,
    loop_disc_samples,
    loop_dim3_samples,
    loop_reduction_chain_check,
    route_kernel_gn,
    route_kernel_gn_stable,
    route_kernel_gn_with_error,
    route_permanent,
    route_cleared_permanent,
    route_fixed_enclosure,
    route_roots_from_sym,
)

TORUS = (cmath.exp(1j * math.pi / 6), cmath.exp(1j * math.pi / 3), cmath.exp(-1j * math.pi / 6))


def test_delta_two_by_two_hand_value():
    # [[1, 1], [1, 16/9]] has determinant 7/9
    assert delta_n([0, 0.5], [0, 0.5]) == pytest.approx(7 / 9, rel=1e-15)


def test_delta_rank_one_matrix_vanishes():
    assert abs(delta_n([0.3, 0.4j, -0.5], [0, 0, 0])) < 1e-15


def test_delta_singular_entry():
    with pytest.raises(SingularEntry):
        delta_n([1.0], [1.0])
    with pytest.raises(SingularEntry):
        kernel_gn([1.0, 0.2], [1.0, 0.3])


def _same(a: complex, b: complex) -> bool:
    """Equal as floats, signs of zero included."""
    return (a.real.hex(), a.imag.hex()) == (b.real.hex(), b.imag.hex())


def test_delta_matches_fraction_elimination(rng):
    # the dyadic Gaussian-integer route and pivoted elimination over
    # Fractions both round the exact determinant once, so they agree exactly
    for n in range(2, 9):
        for _ in range(3):
            lam = draw_disc_tuple(rng, n, radius=0.99)
            mu = draw_disc_tuple(rng, n, radius=0.99)
            assert _same(delta_n(lam, mu), fraction_delta(lam, mu))
    # short dyadic coordinates with a zero, and a rank-one matrix whose
    # elimination meets a zero pivot column
    lam, mu = (0.5, -0.25j, 0.75 + 0.125j), (0j, 0.3, -0.6 + 0.1j)
    assert _same(delta_n(lam, mu), fraction_delta(lam, mu))
    lam, mu = (0.3, 0.4j, -0.5), (0j, 0j, 0j)
    assert _same(delta_n(lam, mu), fraction_delta(lam, mu)) and delta_n(lam, mu) == 0


def test_delta_matches_fraction_elimination_tiny_coordinate(rng):
    for n in (2, 4):
        lam = (1.3e-300 - 0.7e-300j, *draw_disc_tuple(rng, n - 1))
        mu = draw_disc_tuple(rng, n)
        assert _same(delta_n(lam, mu), fraction_delta(lam, mu))
        assert _same(delta_n(mu, lam), fraction_delta(mu, lam))


def test_delta_exact_is_a_reduced_form_of_the_value():
    re, im, den = kernel.delta_exact([0, 0.5], [0, 0.5])
    assert den > 0 and im == 0
    assert re * 9 == 7 * den


def test_delta_matches_bareiss_elimination(rng):
    # Cauchy's product times the exact Glynn permanent against the
    # Bareiss route it replaced: both round the same exact value once
    for n in range(2, 10):
        for _ in range(3 if n < 8 else 1):
            lam = draw_disc_tuple(rng, n, radius=0.999)
            mu = draw_disc_tuple(rng, n, radius=0.999)
            assert _same(delta_n(lam, mu), bareiss_delta(lam, mu))
            assert _same(delta_n(mu, lam), bareiss_delta(mu, lam))


def test_delta_matches_bareiss_at_tiny_and_zero_coordinates(rng):
    for n in (2, 3, 5):
        rest_lam, mu = draw_disc_tuple(rng, n - 1), draw_disc_tuple(rng, n)
        for first in (1e-300, -0.7e-300j, 0j):
            lam = (first, *rest_lam)
            assert _same(delta_n(lam, mu), bareiss_delta(lam, mu))
            assert _same(delta_n(mu, lam), bareiss_delta(mu, lam))


def test_delta_is_positive_zero_at_repeated_coordinates(rng):
    # two equal rows or columns: the determinant is exactly +0.0 + 0.0j,
    # as the elimination finds it
    for n in (2, 3, 6):
        lam = list(draw_disc_tuple(rng, n))
        mu = list(draw_disc_tuple(rng, n))
        rep_lam, rep_mu = lam[:1] + lam[:-1], mu[:1] + mu[:-1]  # first coordinate twice
        for x, y in ((rep_lam, mu), (lam, rep_mu), (rep_lam, rep_mu)):
            d = delta_n(x, y)
            assert _same(d, bareiss_delta(x, y))
            assert _same(d, 0j)
            re, im, den = kernel.delta_exact(x, y)
            assert re == im == 0 and den > 0
    # two zero lambda coordinates: two rows of ones
    assert _same(delta_n((0j, 0j, 0.5), (0.3, 0.2j, -0.4)), 0j)


def test_delta_singular_entry_at_repeated_coordinates():
    # W_jk = 0 is reported even where a repeated coordinate makes the
    # determinant vanish anyway
    cases = [
        ((0.5, 0.25j), (2.0, 0.1)),  # 1 - 0.5 * 2 = 0
        ((0.5, 0.5), (2.0, 0.1)),  # and lambda repeats
        ((0.5, 0.25j), (2.0, 2.0)),  # and mu repeats
        ((0.5j, 0.5j, 0.1), (2j, 2j, 0.3)),  # 0.5j * conj(2j) = 1, both repeat
    ]
    for lam, mu in cases:
        with pytest.raises(SingularEntry):
            delta_n(lam, mu)
        with pytest.raises(ZeroDivisionError):
            bareiss_delta(lam, mu)


def test_kernel_stable_solves_each_argument_once(monkeypatch):
    # one eigenvalue call covers both arguments, one stacked companion
    # matrix each; a zero coordinate lowers the degree of its companion
    # matrix, and then each degree takes its own call
    s = elem_sym((0.31 + 0.2j, -0.45, 0.18 - 0.37j))
    t = elem_sym((0.53 - 0.11j, 0.2, -0.06j))
    t0 = elem_sym((0.53 - 0.11j, 0.2, 0.0))
    expected = {u: kernel_gn(roots_from_sym(s), roots_from_sym(u)).value for u in (t, t0)}
    eigvals = symcore._eigvals
    stacks = []

    def counted(a, **kwargs):
        stacks.append(a.shape)
        return eigvals(a, **kwargs)

    monkeypatch.setattr(symcore, "_eigvals", counted)
    assert kernel_gn_stable(s, t).value == expected[t]
    assert stacks == [(2, 3, 3)]
    stacks.clear()
    assert kernel_gn_stable(s, t0).value == expected[t0]
    assert sorted(stacks) == [(1, 2, 2), (1, 3, 3)]
    stacks.clear()
    outside = elem_sym((1.5, 0.2, 0.1))
    with pytest.raises(NotInDomain, match="second argument"):
        kernel_gn_stable(s, outside)
    # the first argument is classified before the second
    with pytest.raises(NotInDomain, match="first argument"):
        kernel_gn_stable([5, 6, 0.5], outside)
    assert stacks == [(2, 3, 3)] * 2


SIGNED_ZEROS = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))


def _route_draws(seed, count):
    """Seeded (lam, mu) pairs of n = 1..9 coordinates in the disc of
    radius 0.95.  Each tuple, independently: a doubled coordinate, a
    signed-zero coordinate, real coordinates (some with -0.0 imaginary
    parts), a coordinate outside the unit disc.  Now and then mu has one
    coordinate more than lam, or lam_1 = mu_1 = 1 makes B_11 vanish."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 10))
        pair = []
        for size in (n, n + (rng.random() < 0.02)):
            pts = [complex(z) for z in 0.95 * np.sqrt(rng.random(size)) * np.exp(2j * np.pi * rng.random(size))]
            if size > 1 and rng.random() < 0.3:
                i, j = rng.choice(size, 2, replace=False)
                pts[j] = pts[i]
            if rng.random() < 0.3:
                pts[rng.integers(size)] = SIGNED_ZEROS[rng.integers(4)]
            if rng.random() < 0.3:
                pts = [complex(z.real, math.copysign(0.0, rng.random() - 0.5)) for z in pts]
            if rng.random() < 0.05:
                pts[rng.integers(size)] = complex(1.3 * np.exp(2j * np.pi * rng.random()))
            pair.append(pts)
        if rng.random() < 0.02:
            pair[0][0] = pair[1][0] = 1.0 + 0j
        yield tuple(pair)


def _hex_fields(x):
    """The hex bits of a number, of every field of a KernelEval, or of
    every item of a tuple."""
    if isinstance(x, kernel.KernelEval):
        return tuple(_hex_fields(getattr(x, f)) for f in ("value", "numerator", "denominator", "scale"))
    if isinstance(x, tuple):
        return tuple(map(_hex_fields, x))
    return complex(x).real.hex(), complex(x).imag.hex()


def _outcome(call, *args):
    """The bits of the result, or the exception's type and message."""
    try:
        return _hex_fields(call(*args))
    except Exception as exc:
        return type(exc), str(exc)


def test_single_pair_kernels_match_the_replaced_route_bit_for_bit():
    kinds = dict.fromkeys(("n = 1", "singular", "stable", "first outside", "second outside", "mismatch"), 0)
    for lam, mu in _route_draws(29, 4000):
        s, t = elem_sym(lam), elem_sym(mu)
        got = []
        for new, old, args in (
            (kernel_gn, route_kernel_gn, (lam, mu)),
            (kernel.kernel_gn_with_error, route_kernel_gn_with_error, (lam, mu)),
            (roots_from_sym, route_roots_from_sym, (s,)),
            (roots_from_sym, route_roots_from_sym, (t,)),
            (kernel_gn_stable, route_kernel_gn_stable, (s, t)),
        ):
            got.append(_outcome(new, *args))
            assert got[-1] == _outcome(old, *args), (new.__name__, lam, mu)
        kinds["n = 1"] += len(lam) == 1
        kinds["singular"] += got[0][0] is SingularEntry
        got = got[-1]
        kinds["stable"] += isinstance(got[0], tuple)
        kinds["first outside"] += got[0] is NotInDomain and "first" in got[1]
        kinds["second outside"] += got[0] is NotInDomain and "second" in got[1]
        kinds["mismatch"] += got[0] is ValueError
    # every kind of draw occurs, so each comparison above is exercised
    assert min(kinds.values()) >= 10, kinds


def test_permanent_walks_match_the_replaced_route_bit_for_bit():
    # stacks wider than 128 positions take the stepwise walk, narrower
    # ones the stacked walk, both with the reductions called directly
    rng = np.random.default_rng(31)
    # n = 13 fills one block of 4096 steps and n = 14 walks two, the second
    # starting from the sums the first left
    for n in (*range(1, 9), 13, 14):
        for width in (1, 3, 40) if n < 9 else (1, 3):
            c = rng.normal(size=(n, n, width)) + 1j * rng.normal(size=(n, n, width))
            assert kernel.permanent(c).tobytes() == route_permanent(c).tobytes()
            assert kernel.permanent(c.real).tobytes() == route_permanent(c.real).tobytes()


def test_delta_hermitian_symmetry(rng):
    for n in (2, 3, 5):
        for _ in range(25):
            lam = draw_disc_tuple(rng, n)
            mu = draw_disc_tuple(rng, n)
            a = delta_n(lam, mu)
            b = delta_n(mu, lam)
            assert b == pytest.approx(a.conjugate(), rel=1e-12)


def test_kernel_diagonal_value():
    ev = kernel_gn([0, 0.5], [0, 0.5])
    assert ev.value == pytest.approx(28 / (9 * PI**2), rel=1e-14)
    # per [[1, 1], [1, 4/3]] = 7/3, over pi^2 times prod B = 3/4
    assert ev.numerator == pytest.approx(7 / 3, rel=1e-14)
    assert ev.value * ev.denominator == pytest.approx(ev.numerator, rel=1e-12)
    assert ev.scale > 0


def test_kernel_hermitian_and_permutation(rng):
    for _ in range(25):
        lam = draw_disc_tuple(rng, 3)
        mu = draw_disc_tuple(rng, 3)
        k1 = kernel_gn(lam, mu).value
        assert kernel_gn(mu, lam).value == pytest.approx(k1.conjugate(), rel=1e-12)
        perm = (lam[2], lam[0], lam[1])
        assert kernel_gn(perm, mu).value == pytest.approx(k1, rel=1e-12)


def test_kernel_diagonal_positive(rng):
    for _ in range(50):
        lam = draw_disc_tuple(rng, 4)
        v = kernel_gn(lam, lam).value
        assert v.real > 0
        assert abs(v.imag) <= 1e-10 * v.real


def test_kernel_matches_exact_determinant_route(rng):
    for n in range(2, 8):
        for _ in range(10):
            lam = draw_disc_tuple(rng, n)
            mu = draw_disc_tuple(rng, n)
            assert kernel_gn(lam, mu).value == pytest.approx(exact_kernel(lam, mu), rel=1e-9)


def test_fiber_polynomial_is_the_numerator_times_the_row_product(rng):
    # q(x) = per C((x, *rest); mu) * prod_k (1 - x conj(mu_k))
    for n in range(2, 8):
        for _ in range(10):
            rest = draw_disc_tuple(rng, n - 1)
            mu = draw_disc_tuple(rng, n)
            x = draw_disc_tuple(rng, 1)[0]
            q = kernel.fiber_coefficients(kernel.fiber_minors([rest], [mu])[0][0], mu)
            assert q.shape == (n,)
            expected = kernel_gn((x, *rest), mu).numerator * np.prod(1 - x * np.conj(mu))
            assert np.polyval(q, x) == pytest.approx(expected, rel=1e-12)


def test_fiber_polynomial_roots_are_zeros_of_the_permanent(rng):
    for n in range(2, 8):
        for _ in range(10):
            rest = draw_disc_tuple(rng, n - 1)
            mu = draw_disc_tuple(rng, n)
            roots = np.roots(kernel.fiber_coefficients(kernel.fiber_minors([rest], [mu])[0][0], mu))
            assert len(roots) == n - 1
            for r in roots:
                ev = kernel_gn((r, *rest), mu)
                assert abs(ev.numerator) / ev.scale < 1e-10


def test_fiber_polynomial_rejects_bad_input():
    with pytest.raises(ValueError):
        kernel.fiber_minors([[0.1, 0.2]], [[0.3, 0.4]])
    with pytest.raises(ValueError):
        kernel.fiber_minors([[]], [[0.3]])
    with pytest.raises(SingularEntry):
        kernel.fiber_minors([[0.5]], [[0.3, 2.0]])


@pytest.mark.parametrize("m", range(5, 9))
def test_permanent_bits_do_not_depend_on_the_memory_layout(rng, m):
    # the minors of one fiber as fiber_minors builds them: transposed and
    # reshaped, a strided view of c (numpy's reductions over such a view
    # rounded in another order)
    rest, mu = np.array(draw_disc_tuple(rng, m - 1)), np.array(draw_disc_tuple(rng, m))
    c = 1.0 / (1.0 - rest[None, :, None] * np.conj(mu)[None, None, :])
    cols = np.array([[j for j in range(m) if j != k] for k in range(m)])
    view = c[:, :, cols].transpose(1, 3, 0, 2).reshape(m - 1, m - 1, m)
    assert not view.flags.c_contiguous
    assert np.array_equal(kernel.permanent(view), kernel.permanent(np.ascontiguousarray(view)))


@pytest.mark.parametrize("m", range(2, 11))
def test_stacked_fibers_match_one_call_per_fiber(rng, m):
    # a lift stacks its 24 rungs' fibers; each must get the bits a call of
    # its own gives, at repeated coordinates too
    fibers = 24
    rests = np.array([draw_disc_tuple(rng, m - 1) for _ in range(fibers)])
    mus = np.array([draw_disc_tuple(rng, m) for _ in range(fibers)])
    mus[1, -1] = mus[1, 0]
    rests[2, 0] = mus[2, 0]
    if m > 2:
        rests[3, -1] = rests[3, 0]
    pers, base = kernel.fiber_minors(rests, mus)
    assert pers.shape == (fibers, m) and base.shape == (fibers, m - 1, m)
    for f in range(fibers):
        one, one_base = kernel.fiber_minors(rests[f : f + 1], mus[f : f + 1])
        assert np.array_equal(pers[f], one[0]) and np.array_equal(base[f], one_base[0])


def _fiber_with_roots(roots, mu) -> np.ndarray:
    """The minor permanents of a fiber whose polynomial is prod (x - r)
    over the m - 1 roots, for m mu coordinates, nonzero and distinct: at
    x = 1 / conj(mu_k) every term of q but the k-th vanishes."""
    poles = 1 / np.conj(mu)
    return np.array(
        [np.prod(p - roots) / np.prod(np.delete(1 - p * np.conj(mu), k)) for k, p in enumerate(poles)]
    )


def _screen_cases(rng, m):
    """Two lists of (pers, mu, center) fibers of m coordinates: kernel
    fibers at random points with random centres, and fibers with
    prescribed roots, three of them in a cluster, centred next to a root
    and midway between two roots."""
    fibers = []
    for _ in range(10):
        rest, mu = draw_disc_tuple(rng, m - 1, 0.95), draw_disc_tuple(rng, m, 0.95)
        pers, _ = kernel.fiber_minors([rest], [mu])
        fibers.append((pers[0], np.array(mu), complex(*rng.uniform(-0.6, 0.6, 2))))
    cases = []
    for spread in (0.1, 1e-3):
        for _ in range(6):
            mu = np.array(draw_disc_tuple(rng, m, 0.95))
            roots = np.array(draw_disc_tuple(rng, m - 1, 0.8))
            roots[1:3] = roots[0] + spread * (rng.random(len(roots[1:3])) - 0.5 + 1j * rng.random(len(roots[1:3])))
            pers = _fiber_with_roots(roots, mu)
            cases += [(pers, mu, roots[0] + offset * cmath.exp(2j * math.pi * rng.random())) for offset in (1e-2, 1e-6)]
            cases.append((pers, mu, (roots[0] + roots[-1]) / 2))
    return fibers, cases


@pytest.mark.parametrize("m", range(2, 11))
def test_screen_clears_no_disc_with_a_root_of_the_fiber_polynomial(rng, m):
    # radii on both sides of the distance to the nearest root: the screen
    # may clear only the smaller ones.  It clears the kernel fibers' discs
    # at a tenth of that distance where they lie in the unit disc, as the
    # lift's do; next to a cluster of roots, where f(c) cancels, its bound
    # on the remainder is coarse and it clears less
    fibers, cases = _screen_cases(rng, m)
    for i, (pers, mu, center) in enumerate(fibers + cases):
        distance = np.abs(np.roots(kernel.fiber_coefficients(pers, mu)) - center).min()
        for factor in (0.1, 0.5, 0.9, 1.1, 2.0, 8.0):
            radius = factor * distance
            cleared = kernel.fiber_zero_free([pers], [mu], center, radius)
            assert cleared.shape == (1,)
            assert not cleared[0] or factor < 1
            if factor == 0.1 and i < len(fibers) and abs(center) + radius < 1:
                assert cleared[0]


def test_screen_keeps_a_root_at_the_centre_that_rounding_hides():
    # with these short dyadic coordinates B = 1 - c conj(mu) is exact, and
    # pers = (B_1, -B_2) makes f(c) = B_1 / B_1 - B_2 / B_2 = 0: the fiber
    # polynomial vanishes at the centre.  The float quotients do not
    # cancel, and only the rounding term keeps the screen from clearing
    # the disc
    center, mu = 0.5, np.array([-0.875 - 0.25j, -0.75 - 0.5j])
    base = 1 - center * np.conj(mu)
    pers = np.array([base[0], -base[1]])
    assert np.polyval(kernel.fiber_coefficients(pers, mu), center) == 0
    assert (pers / base).sum() != 0
    assert not kernel.fiber_zero_free([pers], [mu], center, 1e-30)[0]
    # another centre is cleared at that radius
    assert kernel.fiber_zero_free([pers], [mu], 0.5j, 1e-30)[0]


def test_screen_fails_closed():
    pers, mu = np.array([1.0, 2.0]), np.array([0.5, -0.5])
    assert kernel.fiber_zero_free([pers], [mu], 0j, 0.1)[0]
    # a pole of the fiber's rational function inside the disc, at 1 / conj(mu_k)
    assert not kernel.fiber_zero_free([pers], [mu], 0j, 2.5)[0]
    for bad in (math.nan, math.inf):
        assert not kernel.fiber_zero_free([[bad, 2.0]], [mu], 0j, 0.1)[0]
        assert not kernel.fiber_zero_free([pers], [mu], 0j, bad)[0]
    stack = kernel.fiber_zero_free([pers, [0.0, 0.0]], [mu, mu], 0j, 0.1)
    assert stack.tolist() == [True, False]


def test_numerator_error_bounds_the_float_permanent(rng):
    # against per C exact at the float coordinates, near the torus too,
    # where the rounding of B = 1 - lambda conj(mu) outweighs Glynn's sum
    t = 1 - 2.0**-30
    pairs = [((t,), (t,)), ((t, 0.5j), (t, -0.3))]
    for n in range(1, 7):
        for radius in (0.9, 0.999999):
            pairs += [(draw_disc_tuple(rng, n, radius), draw_disc_tuple(rng, n, radius)) for _ in range(5)]
    for lam, mu in pairs:
        ev, bound = kernel.kernel_gn_with_error(lam, mu)
        assert ev == kernel_gn(lam, mu)
        assert abs(ev.numerator - kernel.permanent_exact(lam, mu)) <= bound


@pytest.mark.parametrize("n", range(2, 9))
def test_fiber_kernel_matches_one_pair_kernel(rng, n):
    for repeat in (None, "rest", "mu"):
        for _ in range(5):
            rest = list(draw_disc_tuple(rng, n - 1))
            mu = list(draw_disc_tuple(rng, n))
            if repeat == "rest" and n > 2:
                rest[-1] = rest[0]
            elif repeat == "mu":
                mu[-1] = mu[0]
            xs = np.array(draw_disc_tuple(rng, 4))
            values = kernel.fiber_abs_arg(xs, rest, mu)
            assert values.shape == (*xs.shape, 2)
            for x, (abs_k, arg_k) in zip(xs, values):
                ev = kernel_gn((x, *rest), mu)
                # to rounding of per |C|, the bound on Glynn's sum
                assert abs(abs_k * cmath.exp(1j * arg_k) - ev.value) <= 1e-13 * ev.scale / abs(ev.denominator)


def test_fiber_kernel_keeps_the_shape_of_x(rng):
    rest, mu = draw_disc_tuple(rng, 2), draw_disc_tuple(rng, 3)
    xs = np.array(draw_disc_tuple(rng, 6)).reshape(2, 3)
    values = kernel.fiber_abs_arg(xs, rest, mu)
    assert values.shape == (2, 3, 2)
    assert np.array_equal(values[1, 2], kernel.fiber_abs_arg([xs[1, 2]], rest, mu)[0])
    with pytest.raises(ValueError):
        kernel.fiber_abs_arg(xs, rest, mu[:2])
    with pytest.raises(SingularEntry):
        kernel.fiber_abs_arg(xs, [0.5], [0.3, 2.0])


def test_fiber_kernel_at_the_pinned_zero_is_no_worse_than_kernel_gn():
    # at a certified zero the float per C is rounding noise: measured
    # against the exact permanent, the one-row expansion must not be worse
    path = Path(__file__).parent / "data" / "chain7_v1.json"
    cert = ZeroCertificate.from_dict(json.loads(path.read_text()))
    ev = kernel_gn(cert.lam, cert.mu)
    exact = kernel.permanent_exact(cert.lam, cert.mu) / ev.denominator
    [[abs_k, arg_k]] = kernel.fiber_abs_arg([cert.lam[0]], cert.lam[1:], cert.mu)
    assert abs(abs_k * cmath.exp(1j * arg_k) - exact) <= abs(ev.value - exact)


def test_fiber_abs_arg_on_finite_and_overflowing_points_of_one_array():
    # moduli 1 - 2^-9 .. 1 - 2^-19 at phases within 0.005 of 0: along this
    # n = 11 fiber log |K| crosses log(max float), so one array of x holds
    # points whose float K is finite and points where it overflows
    m = 11
    rng = np.random.default_rng(0)
    t = 1 - 2.0 ** -np.arange(9, 9 + m)
    mu = t * np.exp(1j * rng.uniform(-0.005, 0.005, m))
    rest = t[1:] * np.exp(1j * rng.uniform(-0.005, 0.005, m - 1))
    xs = np.concatenate([[0, 0.5, -0.5j], 0.99 * np.exp(2j * PI * np.arange(12) / 12)]).reshape(3, 5)
    values = kernel.fiber_abs_arg(xs, rest, mu)
    lost = values[..., 0] == math.inf
    assert lost.any() and not lost.all()
    for x, (abs_k, arg_k) in zip(xs.ravel(), values.reshape(-1, 2)):
        log_abs, arg = log_kernel_mp((x, *rest), mu)
        if abs_k == math.inf:
            assert log_abs > math.log(np.finfo(float).max)
        else:
            assert abs_k == pytest.approx(math.exp(log_abs), rel=1e-9)
        assert -PI < arg_k <= PI and abs(cmath.exp(1j * arg_k) - cmath.exp(1j * arg)) <= 1e-9


def test_kernel_repeated_coordinate_matches_oracle():
    got = kernel_gn([0.3, 0.3], [0.1, 0.2]).value
    oracle = extrapolated_confluent_kernel([0.3], [2], [0.1, 0.2], [1, 1])
    assert got == pytest.approx(oracle, rel=1e-6)


def test_stable_agrees_with_direct_at_distinct_points():
    s = elem_sym([0.3, 0.7])
    direct = kernel_gn([0.3, 0.7], [0.3, 0.7]).value
    stable = kernel_gn_stable(s, s).value
    assert stable == pytest.approx(direct, rel=1e-11)


# --- dimension-3 closed form ---------------------------------------------------


def test_abc_at_base_triple_matches_closed_forms():
    q = abc_coeffs(TORUS)
    r3, r2, r6 = math.sqrt(3.0), math.sqrt(2.0), math.sqrt(6.0)
    assert q.a == pytest.approx((3 * r3 - 5) * cmath.exp(1j * math.pi / 3), rel=1e-14)
    assert q.b == pytest.approx((6 * r2 - 3 * r6) * cmath.exp(1j * math.pi / 12), rel=1e-14)
    assert q.c == pytest.approx((2 * r3 - 3) * cmath.exp(-1j * math.pi / 6), rel=1e-14)


def test_abc_at_origin():
    q = abc_coeffs((0, 0, 0))
    assert (q.a, q.b, q.c) == (0j, 0j, 3 + 0j)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.builds(complex, st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)),
        min_size=3,
        max_size=3,
    ),
    st.randoms(),
)
def test_abc_permutation_invariant(nu, pyrandom):
    shuffled = list(nu)
    pyrandom.shuffle(shuffled)
    q1 = abc_coeffs(nu)
    q2 = abc_coeffs(shuffled)
    for x, y in ((q1.a, q2.a), (q1.b, q2.b), (q1.c, q2.c)):
        assert x == pytest.approx(y, rel=1e-10, abs=1e-12)


def test_closed_form_matches_determinant_route(rng):
    for _ in range(50):
        lam = draw_disc_tuple(rng, 3)
        mu12 = draw_disc_tuple(rng, 2)
        if abs(mu12[0]) < 0.05:
            continue
        direct = kernel_gn(lam, (mu12[0], mu12[1], 0.0)).value
        closed = kernel_g3_mu3zero(lam, mu12)
        assert closed == pytest.approx(direct, rel=1e-10)


def test_closed_form_mu_one_zero():
    with pytest.raises(MuOneZero):
        kernel_g3_mu3zero([0.1, 0.2, 0.3], [0.0, 0.5])


def test_closed_form_z_zero_matches_stable_route():
    lam = (0.31 + 0.2j, -0.45, 0.18 - 0.37j)
    mu1 = 0.53 - 0.11j
    closed = kernel_g3_mu3zero(lam, (mu1, 0.0))
    stable = kernel_gn_stable(elem_sym(lam), elem_sym((mu1, 0.0, 0.0))).value
    assert closed == pytest.approx(stable, rel=1e-6)


def test_bracket_coefficients_carry_common_factor(rng):
    for _ in range(30):
        nu = draw_disc_tuple(rng, 3, min_gap=0.0)
        big_a, big_b, big_c = bracket_coeffs_ABC(nu)
        q = abc_coeffs(nu)
        factor = nu[1] - nu[0]
        assert big_a == pytest.approx(factor * q.a, rel=1e-10, abs=1e-13)
        assert big_b == pytest.approx(factor * q.b, rel=1e-10, abs=1e-13)
        assert big_c == pytest.approx(factor * q.c, rel=1e-10, abs=1e-13)


def test_bracket_coefficients_vanish_on_equal_first_pair():
    big_a, big_b, big_c = bracket_coeffs_ABC((0.4 + 0.1j, 0.4 + 0.1j, -0.2))
    assert big_a == 0 and big_b == 0 and big_c == 0


def test_bracket_value_matches_extracted_cubic(rng):
    for _ in range(30):
        nu = draw_disc_tuple(rng, 3, min_gap=0.0)
        z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        direct = bracket_expr(*nu, z)
        big_a, big_b, big_c = bracket_coeffs_ABC(nu)
        factored = (z - 1) * (big_a * z * z - big_b * z + 2 * big_c)
        assert factored == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_closed_form_comparison_suite():
    out = closed_form_comparison(samples=200, seed=0)
    assert out["max_rel_diff"] < 1e-9
    assert closed_form_comparison(samples=0) == {"samples": 0, "max_rel_diff": 0.0}


def test_reduction_chain_suite():
    out = reduction_chain_check(samples=60, seed=1)
    assert out["max_rel_diff"] < 1e-9


@pytest.mark.parametrize("width, min_gap", [(1, 0.02), (2, 0.02), (3, 0.02), (4, 0.6)])
def test_disc_samples_match_row_by_row_loop(width, min_gap):
    # min_gap 0.6 rejects most 4-point rows, so the sampler draws many times
    for seed in range(3):
        stacked = kernel._disc_samples(np.random.default_rng(seed), 200, min_gap=min_gap, width=width)
        loop = loop_disc_samples(np.random.default_rng(seed), 200, min_gap=min_gap, width=width)
        assert np.array_equal(stacked, loop)


@pytest.mark.parametrize("width", [2, 3])
def test_disc_samples_match_the_loop_at_verify_paper_size(width):
    # verify-paper draws 1000 rows; at most of these seeds the gap test drops
    # a row of the first round, so a second round is drawn
    redrawn = 0
    for seed in range(20):
        rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        stacked = kernel._disc_samples(rng, 1000, width=width)
        loop, read = loop_disc_draw(loop_rng, 1000, width=width)
        assert stacked.tobytes() == loop.tobytes()
        assert rng.random() == loop_rng.random()  # the same draws follow
        redrawn += read > 1000
    assert redrawn >= 5


@pytest.mark.parametrize("count, width, min_gap", [(1000, 2, 0.02), (1000, 3, 0.02), (200, 4, 0.6)])
def test_disc_samples_turn_only_the_rows_read_into_points(monkeypatch, count, width, min_gap):
    # every kept row and every dropped one before the last kept row, once
    reads = [loop_disc_draw(np.random.default_rng(seed), count, min_gap=min_gap, width=width)[1] for seed in range(20)]
    exp, points = np.exp, []

    def counted(x, *args, **kwargs):
        points.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    for seed, read in enumerate(reads):
        points.clear()
        kernel._disc_samples(np.random.default_rng(seed), count, min_gap=min_gap, width=width)
        assert sum(points) == width * read


def test_closed_form_comparison_matches_per_sample_loop():
    lams, mus = kernel._dim3_samples(300, 7)
    loop_lams, loop_mus = loop_dim3_samples(300, 7)
    assert np.array_equal(lams, loop_lams) and np.array_equal(mus, loop_mus)
    loop = loop_closed_form_comparison(300, 7)
    direct = kernel.batch_kernel(lams, kernel._with_mu3_zero(mus))
    closed = kernel_g3_mu3zero(lams, mus)
    assert closed.shape == (300,)
    assert (np.abs(direct - loop["direct"]) / np.abs(loop["direct"])).max() < 1e-13
    assert (np.abs(closed - loop["closed"]) / np.abs(loop["closed"])).max() < 1e-13
    out = closed_form_comparison(300, 7)
    assert out["max_rel_diff"] == pytest.approx(loop["max_rel_diff"], abs=1e-14)


def test_reduction_stages_match_per_sample_loop():
    loop = loop_reduction_chain_check(120, 5)
    stages = kernel._reduction_stages(*kernel._dim3_samples(120, 5))
    assert stages.shape == loop["stages"].shape == (6, 120)
    ref = np.abs(loop["stages"]).max(axis=0)
    assert (np.abs(stages - loop["stages"]) / ref).max() < 1e-12
    assert reduction_chain_check(120, 5)["max_rel_diff"] < 1e-9


def test_reduction_chain_stacks_each_determinant_stage(monkeypatch):
    calls = []

    def counted(matrix):
        calls.append(np.shape(matrix))
        return det_pivoted(matrix)

    monkeypatch.setattr(kernel, "det_pivoted", counted)
    reduction_chain_check(50, 1)
    assert calls == [(50, 3, 3), (50, 2, 2), (50, 2, 2)]


def test_reduction_chain_detects_a_wrong_bracket_coefficient(monkeypatch):
    def doubled_a(nu):
        big_a, big_b, big_c = bracket_coeffs_ABC(nu)
        return 2 * big_a, big_b, big_c

    monkeypatch.setattr(kernel, "bracket_coeffs_ABC", doubled_a)
    assert reduction_chain_check(50, 1)["max_rel_diff"] > 1e-3


@pytest.mark.parametrize("n", range(2, 8))
def test_batch_kernel_matches_one_pair_kernel(rng, n):
    lams = np.array([draw_disc_tuple(rng, n) for _ in range(40)])
    mus = np.array([draw_disc_tuple(rng, n) for _ in range(40)])
    batch = kernel.batch_kernel(lams, mus)
    [(_, _, values, ratios)] = kernel.kernel_ratio_slabs([(lams, mus)])
    for lam, mu, value, same, ratio in zip(lams, mus, batch, values, ratios):
        ev = kernel_gn(lam, mu)
        assert value == pytest.approx(ev.value, rel=1e-13)
        assert same == pytest.approx(ev.value, rel=1e-13)
        assert ratio == pytest.approx(abs(ev.numerator) / ev.scale, rel=1e-13)


def test_ratio_slabs_of_any_sizes_match_one_slab(rng):
    # the second slab is the largest, so the work arrays grow once
    lams = np.array([draw_disc_tuple(rng, 5) for _ in range(25)])
    mus = np.array([draw_disc_tuple(rng, 5) for _ in range(25)])
    [(_, _, values, ratios)] = kernel.kernel_ratio_slabs([(lams, mus)])
    cuts = [0, 5, 22, 25]
    pieces = [(lams[a:b], mus[a:b]) for a, b in zip(cuts, cuts[1:])]
    slabs = list(kernel.kernel_ratio_slabs(pieces))
    assert [len(v) for _, _, v, _ in slabs] == [5, 17, 3]
    for (got_lams, got_mus, _, _), (lams_ab, mus_ab) in zip(slabs, pieces):
        assert got_lams is lams_ab and got_mus is mus_ab
    np.testing.assert_allclose(np.concatenate([v for _, _, v, _ in slabs]), values, rtol=1e-15)
    np.testing.assert_allclose(np.concatenate([r for _, _, _, r in slabs]), ratios, rtol=1e-15)


def test_slab_buffers_hand_out_one_working_set():
    empty = kernel._SlabBuffers()
    first = [empty((3, 3, 8), complex), empty((3, 8), float)]
    empty.next_slab()
    again = [empty((3, 3, 5), complex), empty((3, 5), float)]
    assert [a.shape for a in again] == [(3, 3, 5), (3, 5)]
    assert all(np.shares_memory(a, b) for a, b in zip(first, again))
    # a shorter slab gets C-contiguous arrays too, which permanent() does
    # not copy
    assert all(a.flags.c_contiguous for a in (*first, *again))
    assert [a.dtype for a in again] == [complex, float]


def test_slab_buffers_honour_the_requested_dtype():
    # a slab may make its requests in another order than the one before
    # it; a buffer big enough but of another dtype must not be handed out
    empty = kernel._SlabBuffers()
    first = [empty((4, 8), complex), empty((4, 8), float)]
    empty.next_slab()
    again = [empty((4, 2), float), empty((4, 2), complex), empty((4, 2), complex)]
    assert [a.dtype for a in first] == [complex, float]
    assert [a.dtype for a in again] == [float, complex, complex]
    empty.next_slab()
    assert empty((3,), np.float64).dtype == float and empty((3,), np.complex128).dtype == complex


def _bits(x):
    """Hex of the real and imaginary parts of every element of x, which
    keeps the sign of a zero."""
    x = np.asarray(x, dtype=complex)
    return [(z.real.hex(), z.imag.hex()) for z in x.ravel().tolist()]


def _walk_inputs(rng, n, batch):
    """Real, complex and zero-rich (parts of +0.0 and -0.0) stacks of shape
    (n, n, *batch), and a strided view of one."""
    shape = (n, n, *batch)
    real, imag = rng.standard_normal(shape), rng.standard_normal(shape)
    cplx = np.empty(shape, dtype=complex)
    cplx.real, cplx.imag = real, imag
    zeros = cplx.copy()
    for part in (zeros.real, zeros.imag):
        signed_zero = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
        part[...] = np.where(rng.random(shape) < 0.5, signed_zero, part)
    wide = np.repeat(cplx[..., None], 3, axis=-1)
    strided = wide[..., 1]
    assert strided.size == 1 or not strided.flags.c_contiguous
    return [real, cplx, zeros.real.copy(), zeros, strided]


def _both_walks(monkeypatch, f, *args):
    """f(*args) with permanent() forced to the stepwise and to the stacked
    walk, by the width that selects them."""
    out = []
    for width in (0, 10**9):
        monkeypatch.setattr(kernel, "_STACKED_POSITIONS", width)
        out.append(f(*args))
    return out


@pytest.mark.parametrize("n", range(1, 13))
def test_stacked_and_stepwise_walks_give_the_same_bits(n, monkeypatch):
    rng = np.random.default_rng(200 + n)
    for batch in ((), (2,), (3, 2)):
        for c in _walk_inputs(rng, n, batch):
            stepwise, stacked = _both_walks(monkeypatch, kernel.permanent, c)
            assert stepwise.shape == stacked.shape == batch
            assert stepwise.dtype == stacked.dtype == c.dtype
            assert _bits(stepwise) == _bits(stacked)


@pytest.mark.parametrize("steps", [1, 3, 8])
def test_stacked_walk_in_blocks_gives_the_same_bits(steps, monkeypatch):
    rng = np.random.default_rng(steps)
    for n in range(1, 8):
        for c in _walk_inputs(rng, n, (2,)):
            whole = kernel.permanent(c)
            monkeypatch.setattr(kernel, "_WALK_STEPS", steps)
            assert _bits(kernel.permanent(c)) == _bits(whole)
            monkeypatch.undo()


def test_permanent_walks_stacks_of_at_most_128_positions_stacked(monkeypatch):
    assert kernel._STACKED_POSITIONS == 128
    taken = []
    for name in ("_stacked_walk", "_stepwise_walk"):
        walk = getattr(kernel, name)
        monkeypatch.setattr(kernel, name, lambda *a, name=name, walk=walk: (taken.append(name), walk(*a)))
    rng = np.random.default_rng(7)
    # 8 x 16 = 128 positions, then 3 x 43 = 129
    cases = [(8, (16,), "_stacked_walk"), (3, (43,), "_stepwise_walk")]
    inputs = [(c, name) for n, batch, name in cases for c in _walk_inputs(rng, n, batch)]
    values = []
    for c, name in inputs:
        taken.clear()
        values.append(kernel.permanent(c))
        assert taken == [name]
    for (c, _), value in zip(inputs, values):
        stepwise, stacked = _both_walks(monkeypatch, kernel.permanent, c)
        assert _bits(stepwise) == _bits(stacked) == _bits(value)


@pytest.mark.parametrize("n", range(1, 9))
def test_kernel_at_real_coordinates_has_the_same_bits_on_both_walks(n, monkeypatch):
    # every B_jk is real, so C holds imaginary parts of +0.0 and -0.0
    rng = np.random.default_rng(300 + n)
    lam, mu = rng.uniform(-0.95, 0.95, n), rng.uniform(-0.95, 0.95, n)
    stepwise, stacked = _both_walks(monkeypatch, kernel.kernel_gn, lam, mu)
    for field in ("value", "numerator", "denominator", "scale"):
        assert _bits(getattr(stepwise, field)) == _bits(getattr(stacked, field))


def test_sample_whose_last_slab_walks_stacked_matches_the_stepwise_walk(tmp_path, monkeypatch):
    # 1034 pairs are a slab of 1024 and one of 10; at n = 2 the last has
    # 20 positions and walks stacked
    from symdisc.cli import main

    walked = []
    stacked = kernel._stacked_walk
    monkeypatch.setattr(kernel, "_stacked_walk", lambda *a: (walked.append(len(a[0])), stacked(*a)))
    texts = []
    for width in (kernel._STACKED_POSITIONS, 0):
        monkeypatch.setattr(kernel, "_STACKED_POSITIONS", width)
        for mode in ("g2_full", "diagonal"):
            out = tmp_path / f"{mode}_{width}.json"
            argv = ["sample", mode, "--count", "1034", "--seed", "3", "--format", "json"]
            assert main([*argv, "--out", str(out)]) == 0
            texts.append(out.read_text())
        if width:
            assert walked == [2, 2, 3, 3]  # C and |C| of each mode's last slab
            walked.clear()
    assert walked == []
    assert texts[:2] == texts[2:]


def test_closed_form_and_bracket_coefficients_on_stacks():
    lam = [0.31 + 0.2j, -0.45, 0.18 - 0.37j]
    mu12 = [0.53 - 0.11j, 0.2 + 0.4j]
    one = kernel_g3_mu3zero(lam, mu12)
    assert type(one) is complex
    stacked = kernel_g3_mu3zero([[lam, lam]] * 3, [[mu12, mu12]] * 3)
    assert stacked.shape == (3, 2) and np.allclose(stacked, one, rtol=1e-14, atol=0)
    coeffs = bracket_coeffs_ABC(lam)
    assert all(type(v) is complex for v in coeffs)
    for v, w in zip(bracket_coeffs_ABC(np.array([lam] * 4)), coeffs):
        # numpy rounds scalar and array powers differently in the last bit
        assert v.shape == (4,) and np.allclose(v, w, rtol=1e-14, atol=0)
    with pytest.raises(MuOneZero):
        kernel_g3_mu3zero([lam, lam], [mu12, [0.0, 0.5]])


def test_permanent_exact_hand_value():
    # C = 1/B = [[1, 1], [1, 4/3]], so per C = 7/3, correctly rounded
    assert kernel.permanent_exact([0, 0.5], [0, 0.5]) == 7 / 3
    with pytest.raises(SingularEntry):
        kernel.permanent_exact([1.0], [1.0])


def test_permanent_exact_matches_the_float_permanent(rng):
    for n in range(1, 8):
        lam, mu = draw_disc_tuple(rng, n), draw_disc_tuple(rng, n)
        assert kernel.permanent_exact(lam, mu) == pytest.approx(kernel_gn(lam, mu).numerator, rel=1e-12)


# --- the fixed-point route of permanent_exact ---------------------------------


def _hex(z):
    # float.hex keeps the sign of a zero
    return z.real.hex(), z.imag.hex()


def _exact_parts(lam, mu):
    """The real and imaginary parts of per C as Fractions, from the
    cleared rows."""
    a, b, per, (dr, di) = kernel._cleared_permanent(lam, mu)
    re, im = kernel._gmul(per, (dr, -di))
    scale = Fraction(2) ** (sum(e for _, e in a) + sum(f for _, f in b)) / (dr * dr + di * di)
    return re * scale, im * scale


def _near_torus(rng, n):
    """n points with 1 - |z| spread from 1e-1 to 1e-6."""
    return (1 - 10.0 ** -rng.uniform(1, 6, n)) * np.exp(2j * np.pi * rng.random(n))


def _route_pairs(rng, n):
    """Pairs of n-tuples: random in the disc, near the torus, real near
    the torus, and near the torus with a repeated lambda, a zero lambda
    and mu_3 = 0."""
    pairs = [(draw_disc_tuple(rng, n), draw_disc_tuple(rng, n))]
    pairs += [(_near_torus(rng, n), _near_torus(rng, n)) for _ in range(2)]
    pairs.append((np.abs(_near_torus(rng, n)), np.abs(_near_torus(rng, n))))
    lam, mu = _near_torus(rng, n), _near_torus(rng, n)
    lam[-1] = lam[0]
    if n > 1:
        lam[1] = 0
    if n > 2:
        mu[2] = 0
    pairs.append((lam, mu))
    return [(tuple(complex(c) for c in lam), tuple(complex(c) for c in mu)) for lam, mu in pairs]


@pytest.mark.parametrize("n", range(1, 10))
def test_fixed_point_route_gives_the_exact_route_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    for lam, mu in _route_pairs(rng, n):
        assert _hex(kernel.permanent_exact(lam, mu)) == _hex(kernel._exact_rounded(lam, mu))
        # none falls back, the real pair included: its imaginary part is
        # exactly +0.0, with an enclosure radius of 0
        assert kernel._rounded(*kernel._fixed_enclosure(lam, mu)) is not None


@pytest.mark.parametrize("n", range(1, 9))
def test_pairs_with_real_entries_take_the_fixed_point_route(n, monkeypatch):
    # every 1 - lambda_j conj(mu_k) is real at real coordinates and at
    # imaginary ones; per C is then real, and its +0.0 imaginary part comes
    # from the enclosure as from the exact sum
    calls = []
    cleared = kernel._cleared_permanent

    def spy(lam, mu):
        calls.append(len(lam))
        return cleared(lam, mu)

    rng = np.random.default_rng(200 + n)
    pairs = []
    for phase in (1, -1, 1j, -1j):
        for draw in (lambda: rng.uniform(-0.95, 0.95, n), lambda: np.abs(_near_torus(rng, n))):
            lam, mu = draw(), draw()
            pairs.append((tuple(complex(phase * x) for x in lam), tuple(complex(phase * x) for x in mu)))
    monkeypatch.setattr(kernel, "_cleared_permanent", spy)
    for lam, mu in pairs:
        (_, im), (_, radius_im), _ = kernel._fixed_enclosure(lam, mu)
        assert im == radius_im == 0
        value = kernel.permanent_exact(lam, mu)
        assert value.imag == 0 and math.copysign(1.0, value.imag) == 1.0
        assert calls == []
        assert _hex(value) == _hex(kernel._exact_rounded(lam, mu))
        calls.clear()


@pytest.mark.parametrize("bits", [8, 16, 32, 64])
def test_fixed_point_enclosure_holds_the_exact_permanent(bits):
    rng = np.random.default_rng(bits)
    zero = construct_zero_dim3()
    pairs = [(zero.lam, zero.mu)] + [pair for n in range(1, 7) for pair in _route_pairs(rng, n)]
    for lam, mu in pairs:
        (re, im), radii, shift = kernel._fixed_enclosure(lam, mu, bits)
        scale = Fraction(2) ** -shift
        for g, exact, radius in zip((re, im), _exact_parts(lam, mu), radii):
            assert abs(g * scale - exact) <= radius * scale
        value = kernel._rounded((re, im), radii, shift)
        assert value is None or _hex(value) == _hex(kernel._exact_rounded(lam, mu))
    # the permanent at the n = 3 zero is 1e-16 of per |C|: 8 bits do not decide it
    assert kernel._rounded(*kernel._fixed_enclosure(zero.lam, zero.mu, 8)) is None


# --- the exact layer against the route it replaced -----------------------------


def _exact_layer_pairs(rng, n):
    """Seeded pairs of n-tuples: those of _route_pairs (random, near the
    torus, real, a repeated and a zero lambda, mu_3 = 0), mu_1 = 0, one
    with magnitudes 1e300 and 1e-300 next to ordinary ones, and one whose
    first row spans 2^54 in |C_1k|."""
    pairs = _route_pairs(rng, n)
    lam, mu = draw_disc_tuple(rng, n), list(draw_disc_tuple(rng, n))
    mu[0] = 0j
    pairs.append((lam, tuple(mu)))
    lam, mu = list(draw_disc_tuple(rng, n)), list(draw_disc_tuple(rng, n))
    lam[0], mu[-1] = 1e300 * lam[0], 1e-300 * mu[-1]
    pairs.append((tuple(lam), tuple(mu)))
    # |C_11| = 1 at e_1 + f_1 = 0 next to |C_1n| = 1 / |1 - 3 fl(1/3)|,
    # about 2^54: the row spans more than 2^16
    lam, mu = list(draw_disc_tuple(rng, n)), list(draw_disc_tuple(rng, n))
    lam[0], mu[0], mu[-1] = 3 + 0j, 0j, complex(1 / 3)
    pairs.append((tuple(lam), tuple(mu)))
    return pairs


def _negative_shift(lam, mu, bits):
    """Whether some entry of the enclosure's rows takes p_j + e_j + f_k < 0,
    which needs the row's largest |C_jl| above 2^(bits + e_j + f_k): on
    the pairs here 16 bits show it, and _FIXED_BITS does not."""
    a, b, rows = kernel._cleared_rows(lam, mu)
    for (_, e), (wr, wi) in zip(a, rows):
        norms = [x * x + y * y for x, y in zip(wr, wi)]
        p = bits - max(e + f - (w2.bit_length() - 1) // 2 for (_, f), w2 in zip(b, norms))
        if any(p + e + f < 0 for _, f in b):
            return True
    return False


@pytest.mark.parametrize("n", range(1, 11))
def test_exact_layer_gives_the_integers_of_the_route_it_replaced(n):
    rng = np.random.default_rng(300 + n)
    pairs = _exact_layer_pairs(rng, n)
    # a row of one entry scales it to 2^bits: its shift is never negative
    assert not any(_negative_shift(lam, mu, kernel._FIXED_BITS) for lam, mu in pairs)
    assert any(_negative_shift(lam, mu, 16) for lam, mu in pairs) == (n > 1)
    for lam, mu in pairs:
        assert kernel._fixed_enclosure(lam, mu) == route_fixed_enclosure(lam, mu)
        assert kernel._fixed_enclosure(lam, mu, 16) == route_fixed_enclosure(lam, mu, 16)
        if n <= 7:
            assert kernel._cleared_permanent(lam, mu) == route_cleared_permanent(lam, mu)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_exact_layer_raises_as_the_route_it_replaced(n):
    rng = np.random.default_rng(400 + n)
    lam, mu = list(draw_disc_tuple(rng, n)), list(draw_disc_tuple(rng, n))
    # 1 - lambda_j conj(mu_k) = 0 at lambda_j = 1 / conj(mu_k), exactly at 0.5 and 2
    lam[-1], mu[0] = 2 + 0j, 0.5 + 0j
    for enclosure in (kernel._fixed_enclosure, route_fixed_enclosure,
                      kernel._cleared_permanent, route_cleared_permanent):
        with pytest.raises(SingularEntry, match="vanishes"):
            enclosure(tuple(lam), tuple(mu))
        with pytest.raises(ValueError, match="same dimension"):
            enclosure(tuple(lam), tuple(mu) + (0j,))


def test_exact_layer_on_every_chain_node_gives_the_routes_integers():
    # the default chain to n = 12, and the schema-1 chain to n = 7, three
    # of whose nodes take the exact sum
    from symdisc.zerofind import build_certificate_chain

    pinned = ZeroCertificate.from_dict(json.loads((Path(__file__).parent / "data" / "chain7_v1.json").read_text()))
    fallbacks = 0
    for node in (*build_certificate_chain(12).nodes(), *pinned.nodes()):
        enclosure = kernel._fixed_enclosure(node.lam, node.mu)
        assert enclosure == route_fixed_enclosure(node.lam, node.mu)
        if kernel._rounded(*enclosure) is None:
            fallbacks += 1
            assert kernel._cleared_permanent(node.lam, node.mu) == route_cleared_permanent(node.lam, node.mu)
    assert fallbacks == 3
