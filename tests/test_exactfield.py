import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdisc import exactfield, kernel
from symdisc.exactfield import (
    NU1,
    NU2,
    NU3,
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
    AlgComplex,
    AlgNum,
    ExactPoly,
    alg_sign,
    exact_base_quadratic,
    verify_bracket_identities,
    verify_base_point_identities,
)
from symdisc.kernel import abc_coeffs, bracket_expr, elem_sym3, quadratic_sym_coeffs

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
algnums = st.builds(AlgNum, rationals, rationals, rationals, rationals)
algcomplexes = st.builds(AlgComplex, algnums, algnums)
exactpolys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * len(exactfield.VARS)), rationals, max_size=4
).map(ExactPoly)


def test_basis_multiplication_table():
    assert SQRT2 * SQRT3 == SQRT6
    assert SQRT2 * SQRT2 == AlgNum(2)
    assert SQRT3 * SQRT3 == AlgNum(3)
    assert SQRT6 * SQRT6 == AlgNum(6)
    assert SQRT2 * SQRT6 == SQRT3 * 2
    assert SQRT3 * SQRT6 == SQRT2 * 3


def test_unit_circle_conjugate_pair():
    assert PHASE_30 * PHASE_30.conj() == AlgComplex(1)
    assert PHASE_60 * PHASE_60.conj() == AlgComplex(1)
    assert PHASE_NEG_45 * PHASE_NEG_45.conj() == AlgComplex(1)
    assert PHASE_15 * PHASE_15.conj() == AlgComplex(1)


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
@given(algnums, algnums, algnums)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(max_examples=60, deadline=None)
@given(algnums)
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
    assert alg_sign(AlgNum(0)) == 0


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
    bracket = bracket_expr(NU1, NU2, NU3, Z)
    big_a = bracket.coeff_in("z", 3)
    big_c_times_m2 = bracket.coeff_in("z", 0)
    big_b = bracket.coeff_in("z", 1) + bracket.coeff_in("z", 0)
    for _ in range(100):
        pt = tuple(gen.uniform(-0.8, 0.8, 4) + 1j * gen.uniform(-0.8, 0.8, 4))
        lhs = bracket.evaluate(pt)
        z = pt[3]
        rhs = (z - 1) * (
            big_a.evaluate(pt) * z * z
            - big_b.evaluate(pt) * z
            - big_c_times_m2.evaluate(pt)  # z^0 coefficient is -2C
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
    text = rep.to_text()
    assert text.count("[PASS]") == len(rep.checks)


def test_integral_coordinates_are_ints():
    x = AlgNum(Fraction(6, 3), 4, Fraction(1, 2))
    assert type(x.q0) is int and x.q0 == 2
    assert type(x.q2) is int and isinstance(x.q3, Fraction)
    assert type((x * 2).q3) is int  # 2 * 1/2 normalises back to an int
    assert x == AlgNum(2, 4, Fraction(1, 2)) and hash(x) == hash(AlgNum(Fraction(2), 4, Fraction(1, 2)))


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
@given(st.one_of(st.tuples(s, s) for s in (algnums, algcomplexes, exactpolys)))
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


@pytest.mark.parametrize("coef", [AlgNum(1), AlgComplex(1), 1.0, 1j], ids=repr)
def test_exactpoly_coefficients_are_rational(coef):
    for make in (ExactPoly.const, lambda c: NU1 * c, lambda c: NU1 + c, lambda c: c - NU1):
        with pytest.raises(TypeError):
            make(coef)
    bracket = bracket_expr(NU1, NU2, NU3, Z)
    half = ExactPoly.const(Fraction(1, 2)) * bracket + Fraction(3, 2)
    coefs = [*bracket.terms.values(), *half.terms.values()]
    assert all(type(c) is int or c.denominator != 1 for c in coefs)
    assert any(isinstance(c, Fraction) for c in coefs)


def test_equal_values_of_different_types_hash_equal():
    # == crosses types, so a set must not hold two equal values
    assert len({AlgNum(2), 2}) == 1
    assert len({AlgNum(1), AlgComplex(1)}) == 1
    assert len({ExactPoly.const(3), 3}) == 1
    assert len({AlgComplex(Fraction(1, 2)), AlgNum(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert len({AlgComplex(SQRT2), SQRT2}) == 1 and len({ExactPoly(), 0}) == 1
    # values that differ stay apart
    assert len({AlgNum(2), AlgComplex(2, 1), ExactPoly.const(3) + NU1, 3}) == 4
