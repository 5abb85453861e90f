import ast
import cmath
import json
import math
import operator
import random
import subprocess
import sys
from dataclasses import asdict
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdisc import exactfield, kernel, zerofind
from symdisc.exactfield import (
    HALF,
    NU1,
    NU2,
    NU3,
    ONE,
    PHASE_15,
    PHASE_30,
    PHASE_60,
    PHASE_NEG_30,
    PHASE_NEG_45,
    SQRT2,
    SQRT3,
    SQRT6,
    TORUS_BASE,
    Z,
    ExactPoly,
    I,
    alg_sign,
    bracket_expr,
    bracket_raw_displays,
    elem_sym3,
    exact_base_quadratic,
    quadratic_sym_coeffs,
    verify_bracket_identities,
    verify_base_point_identities,
)
from symdisc.kernel import abc_coeffs

from .oracles import TuplePoly, fraction_alg_sign

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
# real constants q0 + q2 sqrt2 + q3 sqrt3 + q6 sqrt6, complex ones re + i im,
# and polynomials whose exponents, generators included, run up to 2
reals = st.tuples(rationals, rationals, rationals, rationals).map(
    lambda q: sum(map(operator.mul, q, (ONE, SQRT2, SQRT3, SQRT6)))
)
complexes = st.builds(lambda re, im: re + im * I, reals, reals)
exactpoly_terms = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * len(exactfield.VARS)), rationals, max_size=4
)
exactpolys = exactpoly_terms.map(ExactPoly)
# constants given by unreduced generator powers, up to 3
constant_terms = st.dictionaries(
    st.tuples(*[st.just(0)] * 4, *[st.integers(0, 3)] * 3), rationals, max_size=6
)


def test_basis_multiplication_table():
    assert SQRT2 * SQRT3 == SQRT6
    assert SQRT2 * SQRT2 == 2
    assert SQRT3 * SQRT3 == 3
    assert SQRT6 * SQRT6 == 6
    assert I * I == -1
    assert SQRT2 * SQRT6 == SQRT3 * 2
    assert SQRT3 * SQRT6 == SQRT2 * 3
    # the constructor reduces exponents above 1 as the products do
    assert ExactPoly({(0, 0, 0, 0, 3, 0, 0): 1}) == SQRT2 * 2
    assert ExactPoly({(1, 0, 0, 0, 0, 2, 3): Fraction(1, 3)}) == -NU1 * I
    assert ExactPoly({(0, 0, 0, 0, 2, 0, 0): 1, (0,) * 7: -2}).is_zero()


def test_unit_circle_conjugate_pair():
    assert PHASE_30 * PHASE_30.conj() == 1
    assert PHASE_60 * PHASE_60.conj() == 1
    assert PHASE_NEG_45 * PHASE_NEG_45.conj() == 1
    assert PHASE_15 * PHASE_15.conj() == 1
    assert I.conj() == -I and (NU1 * I + Z).conj() == Z - NU1 * I


def test_phase_constants_match_floats():
    pairs = [
        (PHASE_30, cmath.exp(1j * math.pi / 6)),
        (PHASE_60, cmath.exp(1j * math.pi / 3)),
        (PHASE_NEG_30, cmath.exp(-1j * math.pi / 6)),
        (PHASE_NEG_45, cmath.exp(-1j * math.pi / 4)),
        (PHASE_15, cmath.exp(1j * math.pi / 12)),
    ]
    for exact, approx in pairs:
        assert complex(exact) == pytest.approx(approx, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(complexes, complexes, complexes)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x * y).conj() == x.conj() * y.conj()


@settings(max_examples=60, deadline=None)
@given(reals)
def test_sign_matches_float(x):
    f = float(x)
    if abs(f) > 1e-12:
        assert alg_sign(x) == (1 if f > 0 else -1)


def test_sign_examples():
    assert alg_sign(SQRT3 * 4 - 6) == 1
    assert float(SQRT3 * 4 - 6) == pytest.approx(0.9282, abs=1e-4)
    p_at_1 = SQRT3 * 7 + SQRT6 * 3 - SQRT2 * 6 - 11
    assert alg_sign(p_at_1) == -1
    assert float(p_at_1) == pytest.approx(-0.0124565, abs=1e-6)
    assert alg_sign(ExactPoly()) == 0 and alg_sign(HALF) == 1 and alg_sign(-HALF) == -1
    # a sign needs a real constant
    for x in (PHASE_30, SQRT2 + NU1):
        with pytest.raises(ValueError):
            alg_sign(x)


def test_float_conversion_is_per_part_in_basis_order():
    assert float(SQRT2) == math.sqrt(2.0) and float(SQRT6) == math.sqrt(6.0)
    # each part is float(q0) + float(q2)*sqrt(2.0) + float(q3)*sqrt(3.0) +
    # float(q6)*sqrt(6.0), added in that order: every other order of the
    # four terms (not merely swapping the first two) rounds at least one of
    # these two parts differently
    re = Fraction(1, 3) + SQRT2 * Fraction(1, 7) - SQRT3 * Fraction(1, 5) + SQRT6 * Fraction(1, 11)
    im = 1 + SQRT2 + SQRT3 + SQRT6
    assert float(re).hex() == "0x1.a583882302868p-2"
    assert float(im).hex() == "0x1.a620d5dba72b5p+2"
    assert complex(re + im * I) == complex(float(re), float(im))
    with pytest.raises(ValueError):
        float(PHASE_30)
    with pytest.raises(ValueError):
        complex(NU1 + 1)


def test_torus_base_and_quadratic_float_bits_are_pinned():
    # every certificate starts from these floats
    assert [(w.real.hex(), w.imag.hex()) for w in zerofind.TORUS_BASE] == [
        ("0x1.bb67ae8584caap-1", "0x1.0000000000000p-1"),
        ("0x1.0000000000000p-1", "0x1.bb67ae8584caap-1"),
        ("0x1.bb67ae8584caap-1", "-0x1.0000000000000p-1"),
    ]
    assert [(complex(v).real.hex(), complex(v).imag.hex()) for v in exact_base_quadratic()] == [
        ("0x1.91b85c8473000p-4", "0x1.5be65d91a02c0p-3"),
        ("0x1.191b85c847300p+0", "0x1.2d4a4563563f0p-2"),
        ("0x1.9b91e8dee3400p-2", "-0x1.db3d742c26550p-3"),
    ]


def test_sign_escalates_from_low_precision():
    p_at_1 = SQRT3 * 7 + SQRT6 * 3 - SQRT2 * 6 - 11
    # a 4-bit starting interval cannot decide a 1e-2 margin; the doubling
    # loop must still land on the right sign
    assert alg_sign(p_at_1, start_bits=4) == -1
    assert alg_sign(p_at_1, start_bits=512) == -1


def test_exact_quadratic_matches_float_route():
    a_ex, b_ex, c_ex = exact_base_quadratic()
    q = abc_coeffs(tuple(complex(w) for w in TORUS_BASE))
    assert complex(a_ex) == pytest.approx(q.a, rel=1e-14)
    assert complex(b_ex) == pytest.approx(q.b, rel=1e-14)
    assert complex(c_ex) == pytest.approx(q.c, rel=1e-14)


def test_verify_base_point_identities_all_pass():
    rep = verify_base_point_identities()
    assert rep.passed, rep.to_text()
    assert len(rep.checks) >= 10


def test_verify_base_point_identities_fault_injection():
    rep = verify_base_point_identities(fault="p-coeff")
    failures = rep.failures()
    assert len(failures) == 1
    assert failures[0].name == "p-subst"


def test_verify_base_point_identities_decides_each_sign_once(monkeypatch):
    # a count, not a time: p-root-in-01 reuses the three signs decided for
    # p-disc-pos, p-at-0 and p-at-1
    signs = []
    alg_sign = exactfield.alg_sign

    def spy(x, *args):
        signs.append(alg_sign(x, *args))
        return signs[-1]

    monkeypatch.setattr(exactfield, "alg_sign", spy)
    for fault in (None, "p-coeff"):
        signs.clear()
        rep = verify_base_point_identities(fault=fault)
        assert signs == [1, 1, -1]
        assert [c.passed for c in rep.checks if c.name.startswith("p-")][-4:] == [True] * 4


def test_verify_base_point_identities_unknown_fault():
    with pytest.raises(ValueError):
        verify_base_point_identities(fault="nonsense")


def test_verify_bracket_identities_all_pass():
    rep = verify_bracket_identities()
    assert rep.passed, rep.to_text()
    assert len(rep.checks) >= 7


def test_bracket_specialization_collapses():
    # with the first two variables identified, every identity degenerates to 0 = 0
    bracket = bracket_expr(NU1, NU1, NU3, Z)
    assert bracket.is_zero()
    a, b, c = quadratic_sym_coeffs(*elem_sym3(NU1, NU1, NU3))
    factor = NU1 - NU1
    assert (factor * a).is_zero()
    reassembled = (Z - 1) * (
        bracket.coeff_in("z", 3) * Z * Z
        - (bracket.coeff_in("z", 1) + bracket.coeff_in("z", 0)) * Z
        + (ExactPoly.const(Fraction(-1, 1)) * bracket.coeff_in("z", 0))
    )
    assert bracket == reassembled


def test_bracket_numeric_spot_check(rng=None):
    import numpy as np

    gen = np.random.default_rng(31415)
    for _ in range(100):
        pt = tuple(complex(v) for v in gen.uniform(-0.8, 0.8, 4) + 1j * gen.uniform(-0.8, 0.8, 4))
        lhs = bracket_expr(*pt)
        big_a, big_c_times_m2, big_b_plus_2c = bracket_raw_displays(*pt[:3])
        big_b = big_b_plus_2c + big_c_times_m2
        z = pt[3]
        rhs = (z - 1) * (
            big_a * z * z
            - big_b * z
            - big_c_times_m2  # z^0 coefficient is -2C
        )
        assert rhs == pytest.approx(lhs, rel=1e-10, abs=1e-12)


def test_exactpoly_basic_algebra():
    p = (NU1 + 2) * (NU1 - 2)
    assert p == NU1 * NU1 - 4
    assert (NU2 * NU3) ** 2 == NU2 * NU2 * NU3 * NU3
    assert p.degree_in("nu1") == 2
    assert p.coeff_in("nu1", 0) == ExactPoly.const(-4)
    with pytest.raises(ValueError):
        NU1 ** (-1)


def test_report_serialization():
    rep = verify_bracket_identities()
    data = rep.to_dict()
    assert data["passed"] is True
    assert all({"name", "statement", "passed", "detail"} <= set(c) for c in data["checks"])
    # the dict dataclasses.asdict gives, keys in the same order, built directly
    for report in (rep, verify_base_point_identities(fault="p-coeff")):
        want = {**asdict(report), "passed": report.passed}
        assert report.to_dict() == want
        assert json.dumps(report.to_dict()) == json.dumps(want)
    text = rep.to_text()
    assert text.count("[PASS]") == len(rep.checks)


def test_integral_coordinates_are_ints():
    x = Fraction(6, 3) + SQRT2 * 4 + SQRT3 * Fraction(1, 2)
    q0, q2, q3, q6 = x.real_coords()
    assert type(q0) is int and q0 == 2
    assert type(q2) is int and isinstance(q3, Fraction)
    assert type((x * 2).real_coords()[2]) is int  # 2 * 1/2 normalises back to an int
    assert x.coords() == (2, 4, Fraction(1, 2), 0, 0, 0, 0, 0)
    assert (x * I).coords() == (0, 0, 0, 0, 2, 4, Fraction(1, 2), 0)
    y = Fraction(2) + SQRT2 * 4 + SQRT3 * Fraction(1, 2)
    assert x == 2 + SQRT2 * 4 + SQRT3 * Fraction(1, 2) and hash(x) == hash(y)


def test_exactfield_imports_only_the_standard_library():
    tree = ast.parse(Path(exactfield.__file__).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import would bring in the rest of the package
            assert node.level == 0, f"relative import from {node.module!r}"
            modules.add(node.module)
    assert {name.split(".")[0] for name in modules} <= sys.stdlib_module_names


def test_exactfield_proves_its_identities_without_numpy():
    # loaded by path, outside the package, with every numpy import failing
    script = """
import importlib.util, sys
sys.modules["numpy"] = None
spec = importlib.util.spec_from_file_location("exactfield", sys.argv[1])
module = sys.modules["exactfield"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
reports = (module.verify_base_point_identities(), module.verify_bracket_identities())
sys.exit(0 if all(r.passed and r.checks for r in reports) else 1)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, exactfield.__file__], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


def test_base_quadratic_is_computed_once():
    assert exact_base_quadratic() is exact_base_quadratic()


def test_tampered_bracket_display_fails_extraction(monkeypatch):
    from symdisc import exactfield

    displays = exactfield.bracket_raw_displays

    def tampered(nu1, nu2, nu3):
        a_coef, minus_two_c, b_plus_two_c = displays(nu1, nu2, nu3)
        return a_coef + 1, minus_two_c, b_plus_two_c

    monkeypatch.setattr(exactfield, "bracket_raw_displays", tampered)
    rep = verify_bracket_identities()
    assert [c.name for c in rep.failures()] == ["extract-z3"]


def test_float_bracket_coefficients_come_from_the_proved_displays(monkeypatch):
    # one tampered display, installed where the exact suite and the float
    # A, B, C each look it up: the proof and the numeric chain both see it
    displays = kernel.bracket_raw_displays

    def tampered(nu1, nu2, nu3):
        a_coef, minus_two_c, b_plus_two_c = displays(nu1, nu2, nu3)
        return a_coef + 1, minus_two_c, b_plus_two_c

    monkeypatch.setattr(kernel, "bracket_raw_displays", tampered)
    monkeypatch.setattr(exactfield, "bracket_raw_displays", tampered)
    assert [c.name for c in verify_bracket_identities().failures()] == ["extract-z3"]
    assert kernel.reduction_chain_check(50, 1)["max_rel_diff"] > 1e-3


@settings(max_examples=90, deadline=None)
@given(st.one_of(st.tuples(s, s) for s in (reals, complexes, exactpolys)))
def test_derived_ring_operations(pair):
    x, y = pair
    assert x - y == x + (-y)
    assert 1 - x == -x + 1 and (1 - x) + x == 1
    assert x**3 == x * x * x and x**0 == 1
    assert (x + y) - y == x and hash((x + y) - y) == hash(x)
    assert x * y == y * x and hash(x * y) == hash(y * x)
    # the types are rings: no division, and a negative power fails at once
    # instead of looping
    with pytest.raises(ValueError, match="negative power"):
        x**-1
    with pytest.raises(TypeError):
        1 / x


@pytest.mark.parametrize("coef", [Decimal(1), 1.0, 1j], ids=repr)
def test_exactpoly_coefficients_are_rational(coef):
    for make in (ExactPoly.const, lambda c: NU1 * c, lambda c: NU1 + c, lambda c: c - NU1):
        with pytest.raises(TypeError):
            make(coef)
    # a coefficient is a rational number: field elements enter as polynomials
    # in the generators, not as coefficients
    with pytest.raises(TypeError):
        ExactPoly.const(SQRT2)
    bracket = bracket_expr(NU1, NU2, NU3, Z)
    half = ExactPoly.const(Fraction(1, 2)) * bracket + Fraction(3, 2)
    coefs = [*bracket.terms.values(), *half.terms.values()]
    assert all(type(c) is int or c.denominator != 1 for c in coefs)
    assert any(isinstance(c, Fraction) for c in coefs)


def test_equal_values_of_different_types_hash_equal():
    # == crosses types, so a set must not hold two equal values
    assert len({SQRT2 * SQRT2, 2}) == 1
    assert len({PHASE_30 * PHASE_30.conj(), ONE, 1}) == 1
    assert len({ExactPoly.const(3), 3}) == 1
    assert len({(I * HALF) * -I, HALF, Fraction(1, 2)}) == 1
    assert len({SQRT2 + I - I, SQRT2}) == 1 and len({ExactPoly(), 0}) == 1
    # values that differ stay apart
    assert len({ExactPoly.const(2), I + 2, ExactPoly.const(3) + NU1, 3}) == 4


@settings(max_examples=90, deadline=None)
@given(st.one_of(st.tuples(s, s) for s in (reals, complexes, exactpolys)))
def test_ring_operations_return_reduced_values(pair):
    x, y = pair
    results = [x, x + y, x - y, -x, x * y, x**2, x * y * y, 3 * x, x + 1, 1 - x, x.conj()]
    for r in results:
        for expo, coef in r.terms.items():
            assert len(expo) == len(exactfield.VARS)
            assert all(e <= 1 for e in expo[4:]), expo  # sqrt2, sqrt3, i
            assert coef != 0


_BASE_POINT_CHECKS = [
    ("sym-1", "first symmetric value equals (1 + 2*sqrt3 + i*sqrt3)/2", ""),
    ("sym-2", "second symmetric value equals (2 + sqrt3 + 3i)/2", ""),
    ("sym-3", "third symmetric value equals e^{i pi/3}", ""),
    ("abc-a", "a equals (3*sqrt3 - 5) e^{i pi/3}", ""),
    ("abc-b", "b equals (6*sqrt2 - 3*sqrt6) e^{i pi/12}", ""),
    ("abc-c", "c equals (2*sqrt3 - 3) e^{-i pi/6}", ""),
    (
        "p-subst",
        "e^{i pi/6}(a z^2 - b z + 2c) with z = e^{-i pi/4} x equals p(x) as a polynomial",
        "x^2 ok=True x ok=True const ok=True",
    ),
    ("p-disc", "discriminant of p equals 80*sqrt3 - 138", ""),
    ("p-disc-pos", "discriminant is positive", ""),
    ("p-at-0", "p(0) > 0", ""),
    ("p-at-1", "p(1) < 0", ""),
    ("p-root-in-01", "p has a real root strictly between 0 and 1", ""),
]

_BRACKET_CHECKS = [
    ("bracket-degree", "the bracket is a cubic in z", ""),
    ("extract-z3", "z^3 coefficient matches its direct expansion", ""),
    ("extract-z0", "z^0 coefficient matches its direct expansion (-2C form)", ""),
    ("extract-z1", "z coefficient matches its direct expansion (B + 2C form)", ""),
    ("factor-A", "A = (nu2 - nu1) * a", ""),
    ("factor-B", "B = (nu2 - nu1) * b", ""),
    ("factor-C", "C = (nu2 - nu1) * c", ""),
    ("bracket-factored", "bracket = (z - 1)(A z^2 - B z + 2C) as polynomials", ""),
]


def _report(title, checks, failed=()):
    rows = [
        {"name": name, "statement": statement, "passed": name not in failed, "detail": detail}
        for name, statement, detail in checks
    ]
    return {"title": title, "passed": not failed, "checks": rows}


def test_exact_reports_are_pinned():
    assert verify_base_point_identities().to_dict() == _report(
        "exact base-point identities", _BASE_POINT_CHECKS
    )
    assert verify_bracket_identities().to_dict() == _report(
        "exact bracket identities", _BRACKET_CHECKS
    )
    faulted = [
        (n, s, "x^2 ok=True x ok=False const ok=True" if n == "p-subst" else d)
        for n, s, d in _BASE_POINT_CHECKS
    ]
    assert verify_base_point_identities(fault="p-coeff").to_dict() == _report(
        "exact base-point identities", faulted, failed=("p-subst",)
    )


def _typed(terms):
    # an int and an integral Fraction are equal, but terms keeps only the int
    return {e: (type(c), c) for e, c in terms.items()}


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(exactpoly_terms, constant_terms),
    st.one_of(exactpoly_terms, constant_terms),
    rationals,
    st.integers(0, 4),
    st.sampled_from(exactfield.VARS),
    st.integers(0, 3),
)
def test_packed_ring_matches_the_tuple_keyed_ring(d1, d2, q, k, name, power):
    x, y = ExactPoly(d1), ExactPoly(d2)
    ox, oy = TuplePoly(d1), TuplePoly(d2)
    pairs = [
        (x, ox),
        (x + y, ox + oy),
        (x - y, ox - oy),
        (x * y, ox * oy),
        (x**k, ox**k),
        (x.conj(), ox.conj()),
        (x + q, ox + q),
        (q - x, q - ox),
        (x * q, ox * q),
        (x.coeff_in(name, power), ox.coeff_in(name, power)),
    ]
    for got, want in pairs:
        assert _typed(got.terms) == _typed(want.terms)
    assert x.degree_in(name) == ox.degree_in(name)
    assert (x == y) == (ox == oy)
    try:
        want = ox.coords()
    except ValueError:
        with pytest.raises(ValueError):
            x.coords()
    else:
        assert [(type(c), c) for c in x.coords()] == [(type(c), c) for c in want]


def test_exponent_past_its_field_raises_instead_of_spilling():
    top = 2 ** (exactfield._FIELD_BITS - 1) - 1
    for k, v in enumerate((NU1, NU2, NU3, Z)):
        name = exactfield.VARS[k]
        x = v**top
        assert x.degree_in(name) == top
        assert sum(x.degree_in(other) for other in exactfield.VARS) == top
        past = tuple(top + 1 if j == k else 0 for j in range(len(exactfield.VARS)))
        for make in (
            lambda: x * v,
            lambda: v ** (top + 1),
            lambda: (v * SQRT2 + 1) ** (top + 1),
            lambda: x * x,
            lambda: ExactPoly({past: 1}),
        ):
            with pytest.raises(OverflowError):
                make()
    # generator exponents of any size reduce instead of overflowing
    assert ExactPoly({(0, 0, 0, 0, 2 * top + 3, 0, 0): 1}) == SQRT2 * 2 ** (top + 1)
    assert I ** (4 * top + 1) == I


def _decimal(x):
    # a float sum of these coordinates is rounding noise; 300 digits are not
    with localcontext() as ctx:
        ctx.prec = 300
        q0, q2, q3, q6 = (Decimal(q.numerator) / q.denominator for q in map(Fraction, x.real_coords()))
        return q0 + q2 * Decimal(2).sqrt() + q3 * Decimal(3).sqrt() + q6 * Decimal(6).sqrt()


def _tiny_elements():
    # near-cancelling elements, with |x| < 2^-60
    yield (SQRT2 - 1) ** 50
    yield -((SQRT3 - SQRT2) ** 40)
    yield (SQRT6 - 2) ** 55
    yield (5 - SQRT6 * 2) ** 29
    rlo = math.isqrt(2 << 160)
    yield SQRT2 - Fraction(rlo, 1 << 80)
    yield Fraction(rlo + 1, 1 << 80) - SQRT2
    yield (SQRT3 - 1) ** 2 - (4 - SQRT3 * 2)  # exactly 0


def test_sign_matches_the_fraction_interval_sign():
    rnd = random.Random(2605)

    def rational():
        return Fraction(rnd.randint(-60, 60), rnd.randint(1, 40))

    elements = [ExactPoly(), ONE - 1, HALF, -HALF, ExactPoly.const(Fraction(-7, 3)), SQRT2 - SQRT2]
    tiny = list(_tiny_elements())
    assert all(abs(_decimal(x)) < Decimal(2) ** -60 for x in tiny)
    elements += tiny
    elements += [x * rational() for x in tiny]
    for _ in range(200):
        q = [rational() if rnd.random() < 0.7 else 0 for _ in range(4)]
        elements.append(q[0] + SQRT2 * q[1] + SQRT3 * q[2] + SQRT6 * q[3])
    assert any(x.is_zero() for x in elements)
    assert any(x.real_coords()[0] and not any(x.real_coords()[1:]) for x in elements)
    for x in elements:
        for start_bits in (4, 64):
            assert alg_sign(x, start_bits) == fraction_alg_sign(*x.real_coords(), start_bits)
