import cmath
import json
import math
import re
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdisc import kernel, zerofind
from symdisc.cli import main
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
    ZeroCertificate,
    base_root_x,
    build_certificate_chain,
    construct_zero_dim3,
    count_zeros_disc,
    fn_nontrivial,
    lift_zero,
    recertify,
    recheck,
    reference_root,
    sample_nonvanishing,
    solve_abc_quadratic,
    TORUS_BASE,
    zero_point_dim3,
)

from .oracles import bareiss_delta, fraction_delta

V1_CHAIN = Path(__file__).parent / "data" / "chain7_v1.json"
# the two ends of the (rho, mu_1) band that find-zero 7 certifies across
BAND_EDGES = ((0.995, 0.9995), (0.9955, 0.99925))

component = st.floats(-5, 5).filter(lambda x: x == 0 or abs(x) > 1e-6)
coeff = st.builds(complex, component, component)


# --- quadratic -----------------------------------------------------------------


def test_quadratic_integer_example():
    from symdisc.kernel import QuadraticData

    q = QuadraticData(a=1, b=3, c=1)
    roots = solve_abc_quadratic(q)
    assert sorted(r.real for r in roots) == pytest.approx([1, 2])


def test_quadratic_linear_degeneration():
    from symdisc.kernel import QuadraticData

    q = QuadraticData(a=0, b=1, c=1)
    assert solve_abc_quadratic(q) == [2 + 0j]


def test_quadratic_no_solution():
    from symdisc.kernel import QuadraticData

    with pytest.raises(NoSolution):
        solve_abc_quadratic(QuadraticData(a=0, b=0, c=3))


@settings(max_examples=60, deadline=None)
@given(coeff, coeff, coeff)
def test_quadratic_residuals(a, b, c):
    from symdisc.kernel import QuadraticData

    if a == 0 and b == 0:
        return
    roots = solve_abc_quadratic(QuadraticData(a=a, b=b, c=c))
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
    assert dim3_cert.witness_abs > 1e3 * dim3_cert.tolerances["residual_rel"] / 10
    # the witness is taken at x = 0, and the file states that point
    assert dim3_cert.to_dict()["fn_witness"]["point"] == [0.0, 0.0]
    # away from a zero the float ratio is accurate
    ratio = _float_ratio((0j, *dim3_cert.lam[1:]), dim3_cert.mu)
    assert dim3_cert.witness_abs == pytest.approx(ratio, rel=1e-12)


def test_dim3_certificate_recertifies(dim3_cert):
    again = recertify(dim3_cert)
    assert again["residual_rel"] <= 2 * max(dim3_cert.residual_rel, 1e-300)
    assert again["kernel_abs"] == pytest.approx(dim3_cert.kernel_abs, rel=1e-9, abs=1e-300)


@pytest.mark.parametrize("scaling", [(), *BAND_EDGES])
def test_zero_point_dim3_is_the_point_construct_zero_dim3_certifies(scaling):
    cert = construct_zero_dim3(*scaling)
    assert zero_point_dim3(*scaling) == (cert.lam, cert.mu)


def test_dim3_invalid_scaling():
    for make in (construct_zero_dim3, zero_point_dim3):
        for rho, mu1 in ((0.99, 0.98), (1.2, 1.3), (0.0, 0.5)):
            with pytest.raises(InvalidScaling):
                make(rho=rho, mu1_modulus=mu1)


def test_dim3_no_root_when_scaled_too_far_inside():
    for make in (construct_zero_dim3, zero_point_dim3):
        with pytest.raises(NoRootInUnitDisc):
            make(rho=0.5, mu1_modulus=0.6)


def test_abc_origin_has_no_quadratic_root():
    q = abc_coeffs((0, 0, 0))
    with pytest.raises(NoSolution):
        solve_abc_quadratic(q)


def test_validate_requires_distinct_mu(dim3_cert):
    broken = replace(dim3_cert, mu=(0.5, 0.5, 0.1))
    with pytest.raises(CertificationFailure, match="pairwise distinct"):
        broken.validate()


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
    for node in chain10.nodes():
        lam, mu = np.array(node.lam), np.array(node.mu)
        prod_b = np.prod(1 - np.multiply.outer(lam, np.conj(mu)))
        det = bareiss_delta(node.lam, node.mu)
        vdm = vandermonde_pair(node.lam, node.mu)
        scale = kernel_gn(node.lam, node.mu).scale
        assert node.residual_rel == pytest.approx(abs(det * prod_b / vdm) / scale, rel=1e-12)
        assert node.kernel_abs == pytest.approx(abs(det) / (PI**node.n * abs(vdm)), rel=1e-12)


def test_lift_keeps_the_parent_mu(chain10):
    # no coordinate moves after the fiber root: mu is the parent's plus t
    for node in chain10.nodes():
        if node.parent is not None:
            assert node.mu == (*node.parent.mu, node.lam[-1])


def _broken(field, value):
    """kernel_gn with one field of its result replaced."""

    def evaluate(lam, mu):
        return replace(kernel_gn(lam, mu), **{field: value})

    return evaluate


def _broken_with_error(field, value):
    """kernel_gn_with_error with one field of its kernel value replaced."""

    def evaluate(lam, mu):
        ev, error = kernel.kernel_gn_with_error(lam, mu)
        return replace(ev, **{field: value}), error

    return evaluate


@pytest.mark.parametrize(
    "field, value",
    [
        ("scale", math.inf),
        ("scale", 0.0),
        ("denominator", complex(math.inf, 0)),
        ("denominator", complex(math.nan, 0)),
    ],
)
def test_certification_fails_closed(dim3_cert, monkeypatch, field, value):
    # a per |C| that is zero or not finite, or a pi^n prod B that is not
    # finite (it would give a kernel_abs of 0), gives no residual
    monkeypatch.setattr(zerofind, "kernel_gn", _broken(field, value))
    with pytest.raises(CertificationFailure, match="finite and nonzero"):
        construct_zero_dim3()
    with pytest.raises(CertificationFailure, match="finite and nonzero"):
        recertify(dim3_cert)


def test_an_underflowed_denominator_gives_an_infinite_kernel_abs(dim3_cert, monkeypatch):
    # pi^n prod B below the smallest subnormal rounds to 0 (from n = 13 on
    # the default chain): |K| is then above the largest double, and the
    # residual does not read it
    residual = recertify(dim3_cert)["residual_rel"]
    monkeypatch.setattr(zerofind, "kernel_gn", _broken("denominator", 0j))
    assert recertify(dim3_cert) == {"residual_rel": residual, "kernel_abs": math.inf}
    cert = construct_zero_dim3()
    assert cert.kernel_abs == math.inf and cert.to_dict()["kernel_abs"] is None


def test_recheck_names_the_first_failing_node_from_the_root(chain7):
    # nodes are rebuilt in the order a chain is built
    data = chain7.to_dict()
    data["parent"]["residual_rel"] = 1.0  # the n = 6 node fails validate()
    data["parent"]["parent"]["parent"]["parent"]["lambda"][0] = [0.5, 0.5]  # n = 3
    with pytest.raises(CertificationFailure, match=r"^node n=3: residual 4\.035e-01 exceeds tolerance 1\.0e-10$"):
        recheck(ZeroCertificate.from_dict(data))
    data["parent"]["parent"]["parent"]["parent"]["lambda"] = chain7.to_dict()["parent"]["parent"]["parent"]["parent"]["lambda"]
    with pytest.raises(CertificationFailure, match=r"^node n=6: residual 1\.000e\+00 exceeds tolerance 1\.0e-08$"):
        recheck(ZeroCertificate.from_dict(data))


def test_recheck_rebuilds_the_unchanged_chain(chain7):
    assert recheck(ZeroCertificate.from_dict(chain7.to_dict())) == chain7


def test_validate_rejects_an_unknown_construction(dim3_cert):
    # a node has no construction field: the one a file states is checked
    # against the chain when it is read, with or without its tolerances
    data = dim3_cert.to_dict()
    data["construction"] = "polish"
    with pytest.raises(CertificationFailure, match="^node n=3: unknown construction 'polish'$"):
        ZeroCertificate.from_dict(data)
    del data["tolerances"]
    with pytest.raises(CertificationFailure, match="^node n=3: unknown construction 'polish'$"):
        ZeroCertificate.from_dict(data)


def test_a_node_stores_facts_and_validate_checks_its_link(chain6):
    # n follows from the coordinates and the construction from the parent
    assert [f.name for f in fields(ZeroCertificate)] == [
        "lam", "mu", "residual_rel", "kernel_abs", "witness_abs", "parent"
    ]
    assert [(node.n, node.construction) for node in chain6.nodes()] == [
        (6, "lift"), (5, "lift"), (4, "lift"), (3, "dim3")
    ]
    parent = chain6.parent
    with pytest.raises(CertificationFailure, match="^a dim3 node has 3 coordinates, not 6$"):
        replace(chain6, parent=None).validate()
    with pytest.raises(CertificationFailure, match="^a lift node has 5 coordinates, not 6$"):
        replace(chain6, parent=parent.parent).validate()
    moved = replace(parent, lam=(parent.lam[0], parent.lam[1] * (1 + 1e-15), *parent.lam[2:]))
    unshared = replace(chain6, mu=(*chain6.mu[:-1], chain6.mu[-1] * (1 - 1e-15)))
    for bad in (replace(chain6, parent=moved), unshared):
        with pytest.raises(CertificationFailure, match="^a lift keeps lambda_2..lambda_n and shares its new coordinate$"):
            bad.validate()
    # mu_1..mu_n of the parent are not compared: schema-1 files polished them
    polished = replace(parent, mu=(parent.mu[0] * (1 + 1e-12), *parent.mu[1:]))
    replace(chain6, parent=polished).validate()


def test_tolerance_is_the_constructions_and_read_only(dim3_cert, chain7, monkeypatch):
    assert dim3_cert.tolerance == zerofind.DEFAULT_TOL_DIM3 and chain7.tolerance == zerofind.DEFAULT_TOL_LIFT
    assert chain7.to_dict()["tolerances"] == {"residual_rel": 1e-8}
    with pytest.raises(TypeError):
        chain7.tolerances["residual_rel"] = 1.0
    monkeypatch.setattr(zerofind, "DEFAULT_TOL_LIFT", 1e-300)  # looked up at call time
    assert chain7.tolerances == {"residual_rel": 1e-300}


def test_chain7_written_before_the_cancellation_residual_still_checks():
    # certificate schema 1 as written when residual_rel was |det| over the
    # max row norm of the Cauchy-power matrix and mu was polished
    cert = ZeroCertificate.from_dict(json.loads(V1_CHAIN.read_text()))
    assert [node.n for node in cert.nodes()] == [7, 6, 5, 4, 3]
    _assert_every_node_checks(cert)
    recheck(cert)


def test_recheck_rebuilds_the_v1_chain_with_todays_numbers():
    # the file's residuals and witnesses have schema 1's meaning (witness
    # values up to 3e20); the rebuilt chain keeps only its coordinates
    stored = ZeroCertificate.from_dict(json.loads(V1_CHAIN.read_text()))
    rebuilt = recheck(stored)
    assert [node.n for node in rebuilt.nodes()] == [7, 6, 5, 4, 3]
    for old, new in zip(stored.nodes(), rebuilt.nodes()):
        assert (new.lam, new.mu, new.construction) == (old.lam, old.mu, old.construction)
        assert {"residual_rel": new.residual_rel, "kernel_abs": new.kernel_abs} == recertify(old)
        assert new.witness_abs <= 1 < old.witness_abs


def test_chain12_builds_without_a_runtime_warning():
    # the suite turns RuntimeWarning into an error: K overflows at n = 12,
    # and the residual and the witness read per C and per |C| only
    cert = build_certificate_chain(12)
    assert cert.n == 12 and cert.kernel_abs == math.inf


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
    for node in cert.nodes():
        node.validate()
        assert recertify(node)["residual_rel"] <= node.tolerances["residual_rel"]


def test_lift_reaches_n8(chain7, chain8):
    assert chain8.n == 8 and chain8.parent == chain7
    _assert_every_node_checks(chain8)


def test_lift_reaches_n10(chain8, chain10):
    assert chain10.n == 10 and chain10.parent.parent == chain8
    _assert_every_node_checks(chain10)
    recheck(chain10)


@pytest.mark.parametrize("rho, mu1", BAND_EDGES)
def test_chain7_certifies_at_the_band_edge(rho, mu1):
    _assert_every_node_checks(build_certificate_chain(7, rho=rho, mu1_modulus=mu1))


def _appended_rungs(monkeypatch):
    """Record, per stacked fiber evaluation of lift_zero, the appended
    coordinate of every rung in the stack, and that of every rung whose
    polynomial the lift assembles."""
    stacks, assembled = [], []
    minors, coefficients = zerofind.fiber_minors, zerofind.fiber_coefficients

    def spy_minors(rests, mus):
        assert all(rest[-1] == mu[-1] for rest, mu in zip(rests, mus))
        stacks.append([mu[-1] for mu in mus])
        return minors(rests, mus)

    def spy_coefficients(pers, mu):
        assembled.append(mu[-1])
        return coefficients(pers, mu)

    monkeypatch.setattr(zerofind, "fiber_minors", spy_minors)
    monkeypatch.setattr(zerofind, "fiber_coefficients", spy_coefficients)
    return stacks, assembled


def _screens(monkeypatch):
    """Record (pers, mus, center, cleared) per call of the lift's
    zero-exclusion screen."""
    calls = []
    screen = zerofind.fiber_zero_free

    def spy(pers, mus, center, radius):
        out = screen(pers, mus, center, radius)
        calls.append((pers, mus, center, out))
        return out

    monkeypatch.setattr(zerofind, "fiber_zero_free", spy)
    return calls


def _clear_nothing(pers, mus, center, radius):
    return np.zeros(len(pers), dtype=bool)


LADDER = [complex(math.sqrt(1 - 2.0**-k)) for k in range(1, 25)]


def test_lift_gives_up_after_its_rungs(dim3_cert, monkeypatch):
    stacks, assembled = _appended_rungs(monkeypatch)
    screens = _screens(monkeypatch)
    monkeypatch.setattr(zerofind, "DEFAULT_TOL_LIFT", 1e-300)
    with pytest.raises(CertificationFailure, match="24 rungs") as failure:
        lift_zero(dim3_cert)
    assert zerofind._LIFT_CANDIDATES == 24
    # one stacked evaluation of the ladder s = 2^-1, 2^-2, ... with
    # t = sqrt(1 - s), real and positive; every rung is either cleared by
    # the screen or assembled and solved, in ladder order
    assert stacks == [LADDER]
    [(_, mus, _, out)] = screens
    skipped = [mu[-1] for mu, skip in zip(mus, out) if skip]
    assert skipped and assembled
    assert sorted(skipped + assembled, key=LADDER.index) == LADDER
    assert assembled == [t for t in LADDER if t not in skipped]
    # the reasons count all 24 rungs, and the message says how many the
    # bound cleared without a solve
    message = str(failure.value)
    counts = [int(c) for c in re.findall(r"(\d+) (?:outside|repeated|residual above)", message)]
    assert sum(counts) == 24
    assert f"{len(skipped)} cleared by the zero-exclusion bound without a solve" in message


def test_lift_without_the_screen_assembles_every_rung(dim3_cert, monkeypatch):
    stacks, assembled = _appended_rungs(monkeypatch)
    monkeypatch.setattr(zerofind, "fiber_zero_free", _clear_nothing)
    monkeypatch.setattr(zerofind, "DEFAULT_TOL_LIFT", 1e-300)
    with pytest.raises(CertificationFailure, match="0 cleared by the zero-exclusion bound"):
        lift_zero(dim3_cert)
    assert stacks == [LADDER]
    assert assembled == LADDER


def _search_radius(cert) -> float:
    """The radius of the search disc of a lift from cert, around lambda_1."""
    lam1 = cert.lam[0]
    return min(0.4 * (1 - abs(lam1)), 0.45 * min(abs(lam1 - c) for c in cert.lam[1:]))


def _hex_chain(cert):
    """Every float of a certificate chain, in hex."""
    return [
        (
            _hex_pairs((*node.lam, *node.mu)),
            node.residual_rel.hex(),
            node.kernel_abs.hex(),
            node.witness_abs.hex(),
        )
        for node in cert.nodes()
    ]


def test_cleared_rungs_have_no_root_within_twice_the_search_radius(chain10, monkeypatch):
    # np.roots would have to move a root by more than the search radius to
    # put it in the search disc of a cleared rung: the loop rejects it too
    lifts, screens = [], _screens(monkeypatch)
    lift = zerofind.lift_zero

    def spy_lift(cert):
        lifts.append(cert)
        return lift(cert)

    monkeypatch.setattr(zerofind, "lift_zero", spy_lift)
    # the certify band of the benchmark: rho in [0.992, 0.9945] and
    # mu_1 - rho in [0.003, 0.0045]
    rng = np.random.default_rng(18)
    draws = [(0.992 + 0.0025 * a, 0.003 + 0.0015 * b) for a, b in rng.random((4, 2))]
    for rho, mu1 in (*BAND_EDGES, *((rho, rho + gap) for rho, gap in draws)):
        build_certificate_chain(7, rho=rho, mu1_modulus=mu1)
    for node in chain10.nodes():
        if node.n < 10:
            spy_lift(node)
    assert len(lifts) == len(screens) == 6 * 4 + 7
    for parent, (pers, mus, center, out) in zip(lifts, screens):
        assert center == parent.lam[0] and len(out) == 24
        # the lift to n = 4 accepts its 8th rung and solves 2
        assert out.sum() >= 6
        reach = 2 * _search_radius(parent)
        for minors, mu in zip(pers[out], np.asarray(mus)[out]):
            roots = np.roots(kernel.fiber_coefficients(minors, mu))
            assert np.abs(roots - center).min() > reach


def test_the_screen_changes_no_certificate(chain10, monkeypatch):
    edges = [build_certificate_chain(7, rho, mu1) for rho, mu1 in BAND_EDGES]
    monkeypatch.setattr(zerofind, "fiber_zero_free", _clear_nothing)
    unscreened = lift_zero(lift_zero(lift_zero(build_certificate_chain(7))))
    assert _hex_chain(unscreened) == _hex_chain(chain10)
    for edge, (rho, mu1) in zip(edges, BAND_EDGES):
        assert _hex_chain(build_certificate_chain(7, rho, mu1)) == _hex_chain(edge)


def test_find_zero_7_solves_at_most_16_fiber_polynomials(tmp_path, monkeypatch):
    # a count, not a time: without the screen the lifts to n = 4..7 solve
    # 8 + 9 + 10 + 11 fiber polynomials, and those to n = 8..10 12-14 each
    stacks, assembled = _appended_rungs(monkeypatch)
    path = tmp_path / "c7.json"
    assert main(["find-zero", "7", "--out", str(path)]) == 0
    assert len(stacks) == 4 and len(assembled) <= 16
    cert = ZeroCertificate.from_dict(json.loads(path.read_text()))
    for n in (8, 9, 10):
        before = len(assembled)
        cert = lift_zero(cert)
        assert cert.n == n and len(assembled) - before <= 8


def test_lift_skips_a_rung_that_repeats_an_appended_coordinate(chain7, monkeypatch):
    # the n = 8 lift passes the rungs of the earlier lifts; a certificate
    # there would repeat a coordinate, so those rungs are never evaluated
    stacks, assembled = _appended_rungs(monkeypatch)
    evaluated = []
    cancellation = zerofind._cancellation

    def spy(lam, mu):
        evaluated.append(lam)
        return cancellation(lam, mu)

    monkeypatch.setattr(zerofind, "_cancellation", spy)
    lifted = lift_zero(chain7)
    assert len(stacks) == 1
    # the rungs the loop reached, not the whole stack
    repeats = [t for t in assembled if t in chain7.lam]
    assert repeats and lifted.lam[-1] not in repeats
    assert all(len(set(lam)) == len(lam) for lam in evaluated)
    assert len(set(lifted.lam)) == 8 and len(set(lifted.mu)) == 8


def test_lift_zero_is_the_fiber_root_nearest_lam1(chain6):
    parent = chain6.parent
    q = kernel.fiber_coefficients(kernel.fiber_minors([chain6.lam[1:]], [chain6.mu])[0][0], chain6.mu)
    roots = np.roots(q)
    assert chain6.lam[0] == min(roots, key=lambda r: abs(r - parent.lam[0]))


def test_lift_validates_its_input(chain6):
    # a record whose stored residual fails its tolerance is no parent
    data = chain6.to_dict()
    data["residual_rel"] = 1.0
    with pytest.raises(CertificationFailure, match="exceeds tolerance"):
        lift_zero(ZeroCertificate.from_dict(data))


def test_lift_requires_witness(dim3_cert):
    # a nan witness fails the gate too
    for witness_abs in (0.0, math.nan):
        bare = replace(dim3_cert, witness_abs=witness_abs)
        with pytest.raises(CertificationFailure, match="slice witness"):
            lift_zero(bare)


def test_chain7_counts_one_fiber_stack_per_lift_and_five_exact_permanents(monkeypatch):
    # call counts, not wall time: a return to one permanent walk per rung,
    # or to exact witnesses, fails here
    shapes, exact = [], []
    permanent, permanent_exact = kernel.permanent, zerofind.permanent_exact

    def spy_permanent(c, *args):
        shapes.append(c.shape)
        return permanent(c, *args)

    def spy_exact(lam, mu):
        exact.append(len(lam))
        return permanent_exact(lam, mu)

    monkeypatch.setattr(kernel, "permanent", spy_permanent)
    monkeypatch.setattr(zerofind, "permanent_exact", spy_exact)
    build_certificate_chain(7)
    # the lift to m coordinates stacks the m minors of its 24 rungs
    assert [s for s in shapes if s[2:] != (2,)] == [(m - 1, m - 1, 24 * m) for m in range(4, 8)]
    # kernel_gn's one call on (C, |C|): a residual and a witness sample per node
    assert sorted(s[0] for s in shapes if s[2:] == (2,)) == [3, 3, 4, 4, 5, 5, 6, 6, 7, 7]
    # the residuals only
    assert exact == [3, 4, 5, 6, 7]


def test_find_zero_7_and_its_read_back_take_no_exact_sum(tmp_path, monkeypatch):
    # a count, not a time: every residual is decided by the fixed-point
    # enclosure, and none falls back to the exact sum over cleared rows
    calls = []
    cleared = kernel._cleared_permanent

    def spy(lam, mu):
        calls.append(len(lam))
        return cleared(lam, mu)

    monkeypatch.setattr(kernel, "_cleared_permanent", spy)
    path = tmp_path / "c7.json"
    assert main(["find-zero", "7", "--out", str(path)]) == 0
    for node in ZeroCertificate.from_dict(json.loads(path.read_text())).nodes():
        node.validate()
        assert recertify(node)["residual_rel"] <= node.tolerances["residual_rel"]
    assert calls == []
    # a real pair takes none either: its imaginary part is exactly +0.0
    assert kernel.permanent_exact([0, 0.5], [0, 0.5]) == 7 / 3 and calls == []
    # the spy does see a fallback: the schema-1 file's n = 7 zero cancels
    # further than the enclosure's bits decide
    v1 = ZeroCertificate.from_dict(json.loads(V1_CHAIN.read_text()))
    kernel.permanent_exact(v1.lam, v1.mu)
    assert calls == [7]


def test_fixed_point_residuals_are_the_exact_route_on_every_certificate(chain10):
    edges = [build_certificate_chain(7, rho, mu1) for rho, mu1 in BAND_EDGES]
    for cert in (chain10, *edges):
        for node in cert.nodes():
            fast = kernel._rounded(*kernel._fixed_enclosure(node.lam, node.mu))
            assert fast is not None, f"n = {node.n} not decided at {kernel._FIXED_BITS} bits"
            assert _hex_pairs([fast]) == _hex_pairs([kernel._exact_rounded(node.lam, node.mu)])
            assert _hex_pairs([kernel.permanent_exact(node.lam, node.mu)]) == _hex_pairs([fast])
    # the schema-1 file's zeros were polished exactly and cancel further:
    # its n = 5, 6 and 7 nodes need 149-171 bits and take the exact sum
    v1 = ZeroCertificate.from_dict(json.loads(V1_CHAIN.read_text()))
    decided = []
    for node in v1.nodes():
        decided.append(kernel._rounded(*kernel._fixed_enclosure(node.lam, node.mu)) is not None)
        assert _hex_pairs([kernel.permanent_exact(node.lam, node.mu)]) == _hex_pairs(
            [kernel._exact_rounded(node.lam, node.mu)]
        )
    assert decided == [False, False, False, True, True]


def _ratio_and_bound(lam, mu):
    """The float |per C| / per |C| of kernel_gn_with_error at a pair and
    its error bound over per |C|: the two numbers fn_nontrivial compares."""
    ev, error = kernel.kernel_gn_with_error(lam, mu)
    return abs(ev.numerator) / ev.scale, error / ev.scale


def test_float_witness_is_within_its_bound_of_the_exact_ratio(chain10):
    for node in chain10.nodes():
        lam = (0j, *node.lam[1:])
        ratio, bound = _ratio_and_bound(lam, node.mu)
        exact, _ = zerofind._cancellation(lam, node.mu)
        assert ratio == node.witness_abs
        assert abs(ratio - exact) <= bound < 1e-5
        assert ratio - bound > zerofind.WITNESS_FACTOR * node.tolerances["residual_rel"]


def test_witness_threshold_inside_the_bound_rejects_the_point(chain7, monkeypatch):
    # with a threshold between ratio - B and ratio, the float ratio alone
    # would pass; less its bound it does not
    ratio, bound = _ratio_and_bound((0j, *chain7.lam[1:]), chain7.mu)
    tol = chain7.tolerances["residual_rel"]
    assert fn_nontrivial(chain7.lam, chain7.mu, tol) == ratio
    monkeypatch.setattr(zerofind, "WITNESS_FACTOR", (ratio - bound / 2) / tol)
    with pytest.raises(WitnessNotFound, match="x = 0"):
        fn_nontrivial(chain7.lam, chain7.mu, tol)


@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
def test_witness_fails_closed_on_a_bad_scale(dim3_cert, monkeypatch, value):
    monkeypatch.setattr(zerofind, "kernel_gn_with_error", _broken_with_error("scale", value))
    with pytest.raises(CertificationFailure, match="finite and nonzero"):
        fn_nontrivial(dim3_cert.lam, dim3_cert.mu, dim3_cert.tolerance)


def test_witness_skips_a_nan_numerator(dim3_cert, monkeypatch):
    monkeypatch.setattr(zerofind, "kernel_gn_with_error", _broken_with_error("numerator", complex(math.nan, 0)))
    with pytest.raises(WitnessNotFound, match="nan"):
        fn_nontrivial(dim3_cert.lam, dim3_cert.mu, dim3_cert.tolerance)


def test_every_witness_of_the_default_band_edge_and_v1_chains_is_at_the_origin(chain10):
    edges = [build_certificate_chain(7, rho, mu1) for rho, mu1 in BAND_EDGES]
    v1 = json.loads(V1_CHAIN.read_text())
    rebuilt = recheck(ZeroCertificate.from_dict(v1))
    # a node keeps no witness point: every file, written or read, states x = 0
    for data in (*(cert.to_dict() for cert in (chain10, *edges, rebuilt)), v1):
        points, top = [], data["n"]
        while data:
            points.append(data["fn_witness"]["point"])
            data = data["parent"]
        assert points == [[0.0, 0.0]] * (top - 2)


# --- serialization ------------------------------------------------------------------


def test_certificate_round_trip(chain6):
    data = chain6.to_dict()
    again = ZeroCertificate.from_dict(data)
    assert again == chain6
    assert data["version"] == 1 and "seed" not in data
    assert data["parent"]["n"] == 5
    with pytest.raises(ValueError):
        ZeroCertificate.from_dict({**data, "version": 2})


def test_overflowed_kernel_abs_is_written_as_null(dim3_cert):
    # |K| overflows to inf near n = 12; strict JSON has no Infinity
    cert = replace(dim3_cert, kernel_abs=math.inf)
    data = cert.to_dict()
    assert data["kernel_abs"] is None
    assert ZeroCertificate.from_dict(json.loads(json.dumps(data, allow_nan=False))) == cert
    # finite values keep their bits
    again = json.loads(json.dumps(dim3_cert.to_dict(), allow_nan=False))
    assert ZeroCertificate.from_dict(again).kernel_abs.hex() == dim3_cert.kernel_abs.hex()


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
    monkeypatch.setattr(kernel, "_BATCH_CHUNK", 64)
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
    monkeypatch.setattr(kernel, "_BATCH_CHUNK", 256)
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
