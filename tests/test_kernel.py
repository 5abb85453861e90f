import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdisc import kernel
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
from symdisc.zerofind import ZeroCertificate

from .conftest import draw_disc_tuple
from .oracles import (
    bareiss_delta,
    exact_kernel,
    extrapolated_confluent_kernel,
    fraction_delta,
    loop_closed_form_comparison,
    loop_disc_samples,
    loop_dim3_samples,
    loop_reduction_chain_check,
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
    s = elem_sym((0.31 + 0.2j, -0.45, 0.18 - 0.37j))
    t = elem_sym((0.53 - 0.11j, 0.2, 0.0))
    expected = kernel_gn(roots_from_sym(s), roots_from_sym(t)).value
    calls = []

    def counted(point):
        calls.append(point)
        return roots_from_sym(point)

    monkeypatch.setattr(kernel, "roots_from_sym", counted)
    assert kernel_gn_stable(s, t).value == expected
    assert len(calls) == 2
    calls.clear()
    with pytest.raises(NotInDomain):
        kernel_gn_stable(s, elem_sym((1.5, 0.2, 0.1)))
    with pytest.raises(NotInDomain):
        kernel_gn_stable([5, 6, 0], t)
    assert len(calls) == 3


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
            q = kernel.fiber_polynomial(rest, mu)
            assert q.shape == (n,)
            expected = kernel_gn((x, *rest), mu).numerator * np.prod(1 - x * np.conj(mu))
            assert np.polyval(q, x) == pytest.approx(expected, rel=1e-12)


def test_fiber_polynomial_roots_are_zeros_of_the_permanent(rng):
    for n in range(2, 8):
        for _ in range(10):
            rest = draw_disc_tuple(rng, n - 1)
            mu = draw_disc_tuple(rng, n)
            roots = np.roots(kernel.fiber_polynomial(rest, mu))
            assert len(roots) == n - 1
            for r in roots:
                ev = kernel_gn((r, *rest), mu)
                assert abs(ev.numerator) / ev.scale < 1e-10


def test_fiber_polynomial_rejects_bad_input():
    with pytest.raises(ValueError):
        kernel.fiber_polynomial([0.1, 0.2], [0.3, 0.4])
    with pytest.raises(ValueError):
        kernel.fiber_polynomial([], [0.3])
    with pytest.raises(SingularEntry):
        kernel.fiber_polynomial([0.5], [0.3, 2.0])


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
            values = kernel.fiber_kernel(xs, rest, mu)
            assert values.shape == xs.shape
            for x, value in zip(xs, values):
                ev = kernel_gn((x, *rest), mu)
                # to rounding of per |C|, the bound on Glynn's sum
                assert abs(value - ev.value) <= 1e-13 * ev.scale / abs(ev.denominator)


def test_fiber_kernel_keeps_the_shape_of_x(rng):
    rest, mu = draw_disc_tuple(rng, 2), draw_disc_tuple(rng, 3)
    xs = np.array(draw_disc_tuple(rng, 6)).reshape(2, 3)
    values = kernel.fiber_kernel(xs, rest, mu)
    assert values.shape == (2, 3)
    assert values[1, 2] == kernel.fiber_kernel([xs[1, 2]], rest, mu)[0]
    with pytest.raises(ValueError):
        kernel.fiber_kernel(xs, rest, mu[:2])
    with pytest.raises(SingularEntry):
        kernel.fiber_kernel(xs, [0.5], [0.3, 2.0])


def test_fiber_kernel_at_the_pinned_zero_is_no_worse_than_kernel_gn():
    # at a certified zero the float per C is rounding noise: measured
    # against the exact permanent, the one-row expansion must not be worse
    path = Path(__file__).parent / "data" / "chain7_v1.json"
    cert = ZeroCertificate.from_dict(json.loads(path.read_text()))
    ev = kernel_gn(cert.lam, cert.mu)
    exact = kernel.permanent_exact(cert.lam, cert.mu) / ev.denominator
    [value] = kernel.fiber_kernel([cert.lam[0]], cert.lam[1:], cert.mu)
    assert abs(value - exact) <= abs(ev.value - exact)


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
    assert closed_form_comparison(samples=0) == {"samples": 0, "max_rel_diff": 0.0, "argmax": None}


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
