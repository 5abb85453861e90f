import cmath
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdisc import kernel, zerofind
from symdisc.errors import (
    CertificationFailure,
    ContourTooClose,
    InvalidScaling,
    NonIntegerWinding,
    NoRootInUnitDisc,
    NoSolution,
    WitnessNotFound,
)
from symdisc.kernel import PI, abc_coeffs, delta_n, kernel_gn
from symdisc.symcore import vandermonde_pair
from symdisc.zerofind import (
    FnWitness,
    ZeroCertificate,
    base_root_x,
    build_certificate_chain,
    construct_zero_dim3,
    count_zeros_disc,
    fn_nontrivial,
    lift_zero,
    recertify,
    reference_root,
    sample_nonvanishing,
    solve_abc_quadratic,
    TORUS_BASE,
)

from .oracles import bareiss_delta, fraction_delta

component = st.floats(-5, 5).filter(lambda x: x == 0 or abs(x) > 1e-6)
coeff = st.builds(complex, component, component)


# --- quadratic -----------------------------------------------------------------


def test_quadratic_integer_example():
    from symdisc.kernel import QuadraticData

    q = QuadraticData(nu=(0, 0, 0), a=1, b=3, c=1)
    roots = solve_abc_quadratic(q)
    assert sorted(r.real for r in roots) == pytest.approx([1, 2])


def test_quadratic_linear_degeneration():
    from symdisc.kernel import QuadraticData

    q = QuadraticData(nu=(0, 0, 0), a=0, b=1, c=1)
    assert solve_abc_quadratic(q) == [2 + 0j]


def test_quadratic_no_solution():
    from symdisc.kernel import QuadraticData

    with pytest.raises(NoSolution):
        solve_abc_quadratic(QuadraticData(nu=(0, 0, 0), a=0, b=0, c=3))


@settings(max_examples=60, deadline=None)
@given(coeff, coeff, coeff)
def test_quadratic_residuals(a, b, c):
    from symdisc.kernel import QuadraticData

    if a == 0 and b == 0:
        return
    roots = solve_abc_quadratic(QuadraticData(nu=(0, 0, 0), a=a, b=b, c=c))
    budget = (abs(a) + abs(b) + abs(c)) * 1e-12
    for z in roots:
        assert abs(a * z * z - b * z + 2 * c) < budget * max(1.0, abs(z) ** 2)


def test_quadratic_at_base_triple_reproduces_reference_root():
    x0 = base_root_x()
    assert 0 < x0 < 1
    roots = solve_abc_quadratic(abc_coeffs(TORUS_BASE))
    small = min(roots, key=abs)
    assert abs(small - cmath.exp(-1j * math.pi / 4) * x0) < 1e-10


# --- dimension-3 construction ----------------------------------------------------


@pytest.fixture(scope="module")
def dim3_cert():
    return construct_zero_dim3()


def test_dim3_certificate_properties(dim3_cert):
    cert = dim3_cert
    assert cert.n == 3
    assert cert.residual_rel < 1e-10
    assert all(abs(c) < 1 for c in (*cert.lam, *cert.mu))
    assert len(set(cert.lam)) == 3 and len(set(cert.mu)) == 3
    assert cert.kernel_abs < 1e-10
    assert cert.construction == "dim3"
    # mu_1 is placed on the positive real axis
    assert cert.mu[0].imag == 0 and cert.mu[0].real > 0


def _float_ratio(lam, mu):
    """|per C| / per |C| from the float permanent alone."""
    ev = kernel_gn(lam, mu)
    return abs(ev.numerator) / ev.scale


def test_dim3_witness(dim3_cert):
    wit = dim3_cert.fn_witness
    assert wit.samples <= 64
    assert wit.value_abs > 1e3 * dim3_cert.tolerances["residual_rel"] / 10
    # away from a zero the float ratio is accurate
    ratio = _float_ratio((wit.point, *dim3_cert.lam[1:]), dim3_cert.mu)
    assert wit.value_abs == pytest.approx(ratio, rel=1e-12)


def test_dim3_certificate_recertifies(dim3_cert):
    again = recertify(dim3_cert)
    assert again["residual_rel"] <= 2 * max(dim3_cert.residual_rel, 1e-300)
    assert again["kernel_abs"] == pytest.approx(dim3_cert.kernel_abs, rel=1e-9, abs=1e-300)


def test_dim3_invalid_scaling():
    with pytest.raises(InvalidScaling):
        construct_zero_dim3(rho=0.99, mu1_modulus=0.98)
    with pytest.raises(InvalidScaling):
        construct_zero_dim3(rho=1.2, mu1_modulus=1.3)


def test_dim3_no_root_when_scaled_too_far_inside():
    with pytest.raises(NoRootInUnitDisc):
        construct_zero_dim3(rho=0.5, mu1_modulus=0.6)


def test_abc_origin_has_no_quadratic_root():
    q = abc_coeffs((0, 0, 0))
    with pytest.raises(NoSolution):
        solve_abc_quadratic(q)


def test_witness_requires_distinct_mu(dim3_cert):
    broken = ZeroCertificate(
        n=3,
        lam=dim3_cert.lam,
        mu=(0.5, 0.5, 0.1),
        residual_rel=0.0,
        kernel_abs=0.0,
        construction="dim3",
        fn_witness=FnWitness(0j, 0.0),
        tolerances={"residual_rel": 1e-10},
    )
    with pytest.raises(WitnessNotFound):
        fn_nontrivial(broken)


# --- winding counts ---------------------------------------------------------------


def test_count_simple_zero():
    count, gap = count_zeros_disc(lambda x: x, 0j, 1.0)
    assert count == 1 and gap < 0.01


def test_count_no_zeros():
    count, _ = count_zeros_disc(lambda x: np.ones_like(x), 0j, 1.0)
    assert count == 0


def test_count_two_roots_inside_one_outside():
    count, _ = count_zeros_disc(lambda x: (x - 0.3) * (x + 0.4) * (x - 2.0), 0j, 1.0)
    assert count == 2


def test_count_invariant_under_nonvanishing_factor():
    base = lambda x: (x - 0.2j) * (x + 0.5)
    twisted = lambda x: base(x) * np.exp(1.3 * x + 0.7j)
    c1, _ = count_zeros_disc(base, 0j, 0.9)
    c2, _ = count_zeros_disc(twisted, 0j, 0.9)
    assert c1 == c2 == 2


def test_count_rejects_zero_near_contour():
    with pytest.raises(ContourTooClose):
        count_zeros_disc(lambda x: x - (1.0 + 1e-12), 0j, 1.0)


def test_count_rejects_branch_cut():
    with pytest.raises((NonIntegerWinding, ContourTooClose)):
        count_zeros_disc(np.sqrt, 0j, 1.0)


def test_count_matches_refined_zeros_of_slice(dim3_cert):
    # the first-slot slice vanishes at lambda_1; a small disc contains
    # exactly that zero
    rest = dim3_cert.lam[1:]
    f = np.vectorize(lambda x: delta_n((x, *rest), dim3_cert.mu), otypes=[complex])
    lam1 = dim3_cert.lam[0]
    count, gap = count_zeros_disc(f, lam1, 2e-4)
    assert count == 1 and gap < 0.05


def test_count_evaluates_g_once_per_pass():
    calls = []

    def g(x):
        calls.append(x.shape)
        return x - 0.1

    count, _ = count_zeros_disc(g, 0j, 0.5, start_samples=64)
    assert count == 1
    assert calls[:2] == [(3 * 64,), (3 * 128,)]


# --- lifts -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def chain6():
    return build_certificate_chain(6)


@pytest.fixture(scope="module")
def chain7():
    return build_certificate_chain(7)


@pytest.fixture(scope="module")
def chain8(chain7):
    return lift_zero(chain7)


@pytest.fixture(scope="module")
def chain10(chain8):
    return lift_zero(lift_zero(chain8))


def _hex_pairs(coords):
    return [(c.real.hex(), c.imag.hex()) for c in coords]


def _nodes(cert):
    """The certificate and its ancestors, top down."""
    node = cert
    while node is not None:
        yield node
        node = node.parent


def test_default_chain7_is_pinned(chain7):
    # the n = 7 certificate at the defaults, bit for bit
    assert _hex_pairs(chain7.lam) == [
        ("0x1.ba1684140c8aep-1", "0x1.fff43665eb84ep-2"),
        ("0x1.fdf2eca499516p-2", "0x1.b9a0f3f1900dap-1"),
        ("0x1.b9a0f3f1900dap-1", "-0x1.fdf2eca499516p-2"),
        ("0x1.feffbfdfebf1fp-1", "0x0.0p+0"),
        ("0x1.ff7feffbfebf9p-1", "0x0.0p+0"),
        ("0x1.ffbffbff7fec0p-1", "0x0.0p+0"),
        ("0x1.ffdffeffeffecp-1", "0x0.0p+0"),
    ]
    assert _hex_pairs(chain7.mu) == [
        ("0x1.ff3b645a1cac1p-1", "0x0.0p+0"),
        ("0x1.6685f47816630p-1", "0x1.6547478fa71afp-1"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.feffbfdfebf1fp-1", "0x0.0p+0"),
        ("0x1.ff7feffbfebf9p-1", "0x0.0p+0"),
        ("0x1.ffbffbff7fec0p-1", "0x0.0p+0"),
        ("0x1.ffdffeffeffecp-1", "0x0.0p+0"),
    ]
    assert chain7.residual_rel.hex() == "0x1.b5f7c511f58fdp-44"


def test_delta_matches_fraction_elimination_along_chain7(chain7):
    node = chain7
    while node is not None:
        assert delta_n(node.lam, node.mu) == fraction_delta(node.lam, node.mu)
        node = node.parent


def test_delta_matches_bareiss_along_chain8(chain8):
    node = chain8
    while node is not None:
        assert _hex_pairs([delta_n(node.lam, node.mu)]) == _hex_pairs([bareiss_delta(node.lam, node.mu)])
        node = node.parent


def test_residual_is_the_cancellation_ratio_along_chain10(chain10):
    # per C = det * prod B / (V(lambda) V(conj mu)) with det from Bareiss
    # elimination, and |K| = |det| / (pi^n |V(lambda) V(conj mu)|)
    for node in _nodes(chain10):
        lam, mu = np.array(node.lam), np.array(node.mu)
        prod_b = np.prod(1 - np.multiply.outer(lam, np.conj(mu)))
        det = bareiss_delta(node.lam, node.mu)
        vdm = vandermonde_pair(node.lam, node.mu)
        scale = kernel_gn(node.lam, node.mu).scale
        assert node.residual_rel == pytest.approx(abs(det * prod_b / vdm) / scale, rel=1e-12)
        assert node.kernel_abs == pytest.approx(abs(det) / (PI**node.n * abs(vdm)), rel=1e-12)


def test_lift_keeps_the_parent_mu(chain10):
    # no coordinate moves after the fiber root: mu is the parent's plus t
    for node in _nodes(chain10):
        if node.parent is not None:
            assert node.mu == (*node.parent.mu, node.lam[-1])


def _broken(field, value):
    """kernel_gn with one field of its result replaced."""

    def evaluate(lam, mu):
        return replace(kernel_gn(lam, mu), **{field: value})

    return evaluate


@pytest.mark.parametrize("field, value", [("scale", math.inf), ("scale", 0.0), ("denominator", 0j)])
def test_certification_fails_closed(dim3_cert, monkeypatch, field, value):
    # a per |C| or pi^n prod B that is zero or not finite gives no residual
    monkeypatch.setattr(zerofind, "kernel_gn", _broken(field, value))
    with pytest.raises(CertificationFailure, match="finite and nonzero"):
        construct_zero_dim3()
    with pytest.raises(CertificationFailure, match="finite and nonzero"):
        recertify(dim3_cert)


def test_chain7_written_before_the_cancellation_residual_still_checks():
    # certificate schema 1 as written when residual_rel was |det| over the
    # max row norm of the Cauchy-power matrix and mu was polished
    path = Path(__file__).parent / "data" / "chain7_v1.json"
    cert = ZeroCertificate.from_dict(json.loads(path.read_text()))
    assert [node.n for node in _nodes(cert)] == [7, 6, 5, 4, 3]
    _assert_every_node_checks(cert)


def test_lift_one_step(dim3_cert):
    lifted = lift_zero(dim3_cert)
    assert lifted.n == 4
    assert lifted.residual_rel < 1e-8
    assert lifted.lam[-1] == lifted.mu[-1]
    assert lifted.lam[-1].real > 0 and lifted.lam[-1].imag == 0
    assert lifted.construction == "lift"
    # the parent rides along unchanged
    assert lifted.parent == dim3_cert
    # the first coordinate moved, so the restriction is not a zero
    assert lifted.lam[0] != dim3_cert.lam[0]
    restricted = _float_ratio(lifted.lam[:-1], lifted.mu[:-1])
    assert restricted > 1e3 * lifted.tolerances["residual_rel"]


def test_chain_to_six(chain6):
    node = chain6
    seen = []
    while node is not None:
        seen.append(node)
        node = node.parent
    assert [c.n for c in seen] == [6, 5, 4, 3]
    for c in seen[:-1]:
        assert c.residual_rel < 1e-8
        assert c.lam[-1] == c.mu[-1]
        assert c.lam[-1].real > 0
    for c in seen:
        assert all(abs(x) < 1 for x in (*c.lam, *c.mu))
        assert len(set(c.lam)) == c.n and len(set(c.mu)) == c.n


def test_chain_appended_coordinates_in_both_tuples(chain6):
    for j in range(3, 6):
        assert chain6.lam[j] == chain6.mu[j]
        assert chain6.lam[j].real > 0 and chain6.lam[j].imag == 0


def test_lift_certificates_recertify(chain6):
    node = chain6
    while node is not None:
        again = recertify(node)
        assert again["residual_rel"] <= 2 * max(node.residual_rel, 1e-300)
        node = node.parent


def _assert_every_node_checks(cert):
    node = cert
    while node is not None:
        node.validate()
        assert recertify(node)["residual_rel"] <= node.tolerances["residual_rel"]
        node = node.parent


def test_lift_reaches_n8(chain7, chain8):
    assert chain8.n == 8 and chain8.parent == chain7
    _assert_every_node_checks(chain8)


def test_lift_reaches_n10(chain8, chain10):
    assert chain10.n == 10 and chain10.parent.parent == chain8
    _assert_every_node_checks(chain10)


@pytest.mark.parametrize("rho, mu1", [(0.995, 0.9995), (0.9955, 0.99925)])
def test_chain7_certifies_at_the_band_edge(rho, mu1):
    _assert_every_node_checks(build_certificate_chain(7, rho=rho, mu1_modulus=mu1))


def _appended_rungs(monkeypatch):
    """Record the appended coordinate of every rung lift_zero tries."""
    rungs = []
    fiber = zerofind.fiber_polynomial

    def spy(rest, mu):
        rungs.append(mu[-1])
        return fiber(rest, mu)

    monkeypatch.setattr(zerofind, "fiber_polynomial", spy)
    return rungs


def test_lift_gives_up_after_its_rungs(dim3_cert, monkeypatch):
    rungs = _appended_rungs(monkeypatch)
    monkeypatch.setattr(zerofind, "DEFAULT_TOL_LIFT", 1e-300)
    with pytest.raises(CertificationFailure, match="24 rungs"):
        lift_zero(dim3_cert)
    assert len(rungs) == zerofind._LIFT_CANDIDATES == 24
    # the ladder s = 2^-1, 2^-2, ... with t = sqrt(1 - s), real and positive
    assert rungs == [complex(math.sqrt(1 - 2.0**-k)) for k in range(1, 25)]


def test_lift_skips_a_rung_that_repeats_an_appended_coordinate(chain7, monkeypatch):
    # the n = 8 lift passes the rungs of the earlier lifts; a certificate
    # there would repeat a coordinate, so those rungs are never evaluated
    rungs = _appended_rungs(monkeypatch)
    evaluated = []
    cancellation = zerofind._cancellation

    def spy(lam, mu):
        evaluated.append(lam)
        return cancellation(lam, mu)

    monkeypatch.setattr(zerofind, "_cancellation", spy)
    lifted = lift_zero(chain7)
    repeats = [t for t in rungs if t in chain7.lam]
    assert repeats and lifted.lam[-1] not in repeats
    assert all(len(set(lam)) == len(lam) for lam in evaluated)
    assert len(set(lifted.lam)) == 8 and len(set(lifted.mu)) == 8


def test_lift_zero_is_the_fiber_root_nearest_lam1(chain6):
    parent = chain6.parent
    q = zerofind.fiber_polynomial(chain6.lam[1:], chain6.mu)
    roots = np.roots(q)
    assert chain6.lam[0] == min(roots, key=lambda r: abs(r - parent.lam[0]))


def test_lift_requires_witness(dim3_cert):
    from dataclasses import replace

    bare = replace(dim3_cert, fn_witness=FnWitness(0j, 0.0))
    with pytest.raises(CertificationFailure):
        lift_zero(bare)


# --- serialization ------------------------------------------------------------------


def test_certificate_round_trip(chain6):
    data = chain6.to_dict()
    again = ZeroCertificate.from_dict(data)
    assert again == chain6
    assert data["version"] == 1 and "seed" not in data
    assert data["parent"]["n"] == 5
    with pytest.raises(ValueError):
        ZeroCertificate.from_dict({**data, "version": 2})


def test_certificate_validation_catches_tampering(dim3_cert):
    from dataclasses import replace

    bad = replace(dim3_cert, residual_rel=1.0)
    with pytest.raises(CertificationFailure):
        bad.validate()
    bad = replace(dim3_cert, lam=(0.5, 0.5, 0.1))
    with pytest.raises(CertificationFailure):
        bad.validate()


# --- sampling experiments -------------------------------------------------------------


def test_sampling_g2(rng):
    report = sample_nonvanishing("g2_full", 2000, seed=3)
    assert report.min_scaled_abs > 1e-2
    assert not report.zero_found
    assert len(report.argmin_lambda) == 2


def test_sampling_g3_shared_third():
    report = sample_nonvanishing("g3_equal_third", 2000, seed=4)
    assert report.min_scaled_abs > 1e-2
    assert report.argmin_lambda[2] == report.argmin_mu[2]


def test_sampling_diagonal_real_positive():
    report = sample_nonvanishing("diagonal", 2000, seed=5, n=3)
    assert report.diag_min_real > 0
    assert report.diag_max_imag_ratio < 1e-9


def test_sampling_diagonal_values_are_real_to_rounding():
    # K(lambda, lambda) is real; its imaginary part is rounding only
    report = sample_nonvanishing("diagonal", 5000, seed=5, n=6)
    assert report.diag_max_imag_ratio < 1e-12


def _sampled_pairs(mode, samples, seed, n=3):
    """The pairs sample_nonvanishing draws, from the same generator."""
    rng = np.random.default_rng(seed)
    if mode == "diagonal":
        lams = zerofind._draw_disc(rng, (samples, n))
        return lams, lams
    width = 2 if mode == "g2_full" else 3
    lams = zerofind._draw_disc(rng, (samples, width))
    mus = zerofind._draw_disc(rng, (samples, width))
    if mode == "g3_equal_third":
        mus[:, 2] = lams[:, 2]
    return lams, mus


@pytest.mark.parametrize("mode", zerofind.SAMPLING_MODES)
def test_sampling_scores_by_the_one_pair_kernel(mode, monkeypatch):
    # slabs of 64 pairs, so 200 samples cross slab boundaries
    monkeypatch.setattr(zerofind, "_SAMPLE_CHUNK", 64)
    report = sample_nonvanishing(mode, 200, seed=21)
    lams, mus = _sampled_pairs(mode, 200, 21)
    evals = [kernel_gn(lam, mu) for lam, mu in zip(lams, mus)]
    ratios = [abs(ev.numerator) / ev.scale for ev in evals]
    k = int(np.argmin(ratios))
    assert report.min_scaled_abs == pytest.approx(ratios[k], rel=1e-12)
    assert report.argmin_lambda == tuple(lams[k]) and report.argmin_mu == tuple(mus[k])
    if mode == "diagonal":
        least = min(ev.value.real for ev in evals)
        assert report.diag_min_real == pytest.approx(least, rel=1e-12)
    else:
        assert report.diag_min_real is None and report.diag_max_imag_ratio is None


def test_sampling_memory_does_not_grow_with_the_sample_count(monkeypatch):
    # the 4e4 diagonal n = 6 tuples alone would take 3.84 MB drawn whole
    monkeypatch.setattr(zerofind, "_SAMPLE_CHUNK", 256)
    tracemalloc.start()
    try:
        report = sample_nonvanishing("diagonal", 40_000, seed=1, n=6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.samples == 40_000 and report.diag_min_real > 0
    assert peak < 40_000 * 6 * 16


def test_sampling_ratio_reads_the_certified_zero(chain7):
    [(_, _, _, ratios)] = kernel.kernel_ratio_slabs([(np.array([chain7.lam]), np.array([chain7.mu]))])
    assert ratios[0] < 1e-8


def test_sampling_rejects_unknown_mode():
    with pytest.raises(ValueError):
        sample_nonvanishing("bogus", 10)
    with pytest.raises(ValueError):
        sample_nonvanishing("g2_full", 0)
    for mode in ("g2_full", "g3_equal_third"):
        with pytest.raises(ValueError, match="diagonal mode only"):
            sample_nonvanishing(mode, 10, n=3)


def test_reference_root_value():
    assert abs(reference_root()) == pytest.approx(base_root_x(), rel=1e-15)


def test_moment_identity_at_certificate(dim3_cert):
    from symdisc.zerofind import moment_identity_check

    out = moment_identity_check(dim3_cert.lam, dim3_cert.mu)
    assert out["max_rel_diff"] < 1e-9


def test_moment_identity_random_data(rng):
    from symdisc.zerofind import moment_identity_check

    from .conftest import draw_disc_tuple

    for _ in range(5):
        lam = draw_disc_tuple(rng, 3, radius=0.8)
        mu = draw_disc_tuple(rng, 3, radius=0.8)
        out = moment_identity_check(lam, mu)
        assert out["max_rel_diff"] < 1e-9


def test_closed_form_vanishes_at_certificate(dim3_cert):
    from symdisc.kernel import kernel_g3_mu3zero

    value = kernel_g3_mu3zero(dim3_cert.lam, dim3_cert.mu[:2])
    assert abs(value) < dim3_cert.tolerances["residual_rel"]
