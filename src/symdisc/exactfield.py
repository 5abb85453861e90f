"""Exact arithmetic in Q(sqrt2, sqrt3) and the identity verification suite.

Every constant appearing in the dimension-3 zero construction lives in
the real field Q(sqrt2, sqrt3), represented on the basis
{1, sqrt2, sqrt3, sqrt6} with rational coordinates, plus an explicit
complex pair on top.  The bracket identities are polynomial identities
with rational coefficients, so ExactPoly works over Q alone.  An
integral coordinate or coefficient is kept as an int and only a true
fraction as a Fraction, so identities with integer coefficients run on
ints, without a gcd per product.  The three types share one set of
derived ring operations (_Ring): they are rings, with no division, as no
identity of the suite divides by an irrational element.  Signs of
nonzero elements are decided by interval arithmetic with escalating
precision (exact-zero short circuit first), so every verification below
is precision-independent.

The two verification entry points re-derive, with zero tolerance:

* verify_base_point_identities -- the symmetric values of the unimodular base
  triple, the closed forms of the quadratic coefficients there, the
  phase-rotated substitution that turns the quadratic into a real
  polynomial p, the discriminant of p, and the sign pattern p(0) > 0 > p(1).
* verify_bracket_identities -- the cubic-in-z bracket identities: coefficient
  extraction, the common factor (nu_2 - nu_1), and the factorization
  bracket = (z - 1)(A z^2 - B z + 2 C), as full polynomial identities.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Iterable, Union

from .kernel import bracket_expr, bracket_raw_displays, elem_sym3, quadratic_sym_coeffs

_Rat = Union[int, Fraction]


def _frac(x: _Rat) -> _Rat:
    """A rational coordinate: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class _Ring:
    """The derived operations of a commutative ring, for one type.

    A subclass provides `of` (coercion of an operand into the type, which
    raises TypeError for anything else), __add__, __neg__, __mul__, _key
    (the value that decides equality) and _plain (the simpler value the
    element equals, or None); subtraction, the reflected operations,
    powers with a nonnegative integer exponent, == and hash follow from
    those.  There is no division, so a negative power raises ValueError.
    """

    __slots__ = ()

    def __eq__(self, other) -> bool:
        try:
            o = self.of(other)
        except TypeError:
            return NotImplemented
        return self._key() == o._key()

    def __hash__(self):
        # == crosses types through `of`, so an element equal to an int, a
        # Fraction or a real field element hashes as that value does
        plain = self._plain()
        return hash(self._key() if plain is None else plain)

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        return self + (-self.of(other))

    def __rsub__(self, other):
        return self.of(other) + (-self)

    def __rmul__(self, other):
        return self * other

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError(f"negative power {k} of a ring element")
        out = self.of(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out


class AlgNum(_Ring):
    """Element q0 + q2*sqrt2 + q3*sqrt3 + q6*sqrt6 with rational coordinates."""

    __slots__ = ("q0", "q2", "q3", "q6")

    def __init__(self, q0: _Rat = 0, q2: _Rat = 0, q3: _Rat = 0, q6: _Rat = 0):
        self.q0 = _frac(q0)
        self.q2 = _frac(q2)
        self.q3 = _frac(q3)
        self.q6 = _frac(q6)

    @classmethod
    def of(cls, x) -> "AlgNum":
        if isinstance(x, AlgNum):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        raise TypeError(f"cannot coerce {type(x).__name__} into the field")

    def coords(self):
        return (self.q0, self.q2, self.q3, self.q6)

    _key = coords

    def _plain(self):
        return self.q0 if self.is_rational() else None

    def is_zero(self) -> bool:
        return not (self.q0 or self.q2 or self.q3 or self.q6)

    def is_rational(self) -> bool:
        return not (self.q2 or self.q3 or self.q6)

    def __add__(self, other):
        o = AlgNum.of(other)
        return AlgNum(self.q0 + o.q0, self.q2 + o.q2, self.q3 + o.q3, self.q6 + o.q6)

    def __neg__(self):
        return AlgNum(-self.q0, -self.q2, -self.q3, -self.q6)

    def __mul__(self, other):
        o = AlgNum.of(other)
        a0, a2, a3, a6 = self.coords()
        b0, b2, b3, b6 = o.coords()
        # basis table: sqrt2*sqrt3 = sqrt6, sqrt2*sqrt6 = 2 sqrt3, sqrt3*sqrt6 = 3 sqrt2
        return AlgNum(
            a0 * b0 + 2 * a2 * b2 + 3 * a3 * b3 + 6 * a6 * b6,
            a0 * b2 + a2 * b0 + 3 * (a3 * b6 + a6 * b3),
            a0 * b3 + a3 * b0 + 2 * (a2 * b6 + a6 * b2),
            a0 * b6 + a6 * b0 + a2 * b3 + a3 * b2,
        )

    def __float__(self) -> float:
        return (
            float(self.q0)
            + float(self.q2) * math.sqrt(2.0)
            + float(self.q3) * math.sqrt(3.0)
            + float(self.q6) * math.sqrt(6.0)
        )

    def __repr__(self):
        return f"AlgNum({self.q0}, {self.q2}, {self.q3}, {self.q6})"


ONE = AlgNum(1)
SQRT2 = AlgNum(0, 1)
SQRT3 = AlgNum(0, 0, 1)
SQRT6 = AlgNum(0, 0, 0, 1)
HALF = AlgNum(Fraction(1, 2))


def _sqrt_interval(n: int, bits: int) -> tuple[Fraction, Fraction]:
    """Dyadic enclosure of sqrt(n) with ~bits fractional bits."""
    shifted = n << (2 * bits)
    lo = isqrt(shifted)
    hi = lo if lo * lo == shifted else lo + 1
    denom = 1 << bits
    return Fraction(lo, denom), Fraction(hi, denom)


def _scaled_interval(q: Fraction, lo: Fraction, hi: Fraction):
    return (q * lo, q * hi) if q >= 0 else (q * hi, q * lo)


def alg_sign(x: AlgNum, start_bits: int = 64) -> int:
    """Exact sign (-1, 0, +1) of a field element.

    Exact zero is decided by coordinates; otherwise dyadic intervals for
    the radicals are refined (doubling precision) until the enclosure of
    x excludes zero, which always terminates for nonzero elements.
    """
    if x.is_zero():
        return 0
    if x.is_rational():
        return -1 if x.q0 < 0 else 1
    bits = max(4, start_bits)
    while True:
        lo = hi = x.q0
        for q, radicand in ((x.q2, 2), (x.q3, 3), (x.q6, 6)):
            if q:
                rlo, rhi = _sqrt_interval(radicand, bits)
                add_lo, add_hi = _scaled_interval(q, rlo, rhi)
                lo += add_lo
                hi += add_hi
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2


class AlgComplex(_Ring):
    """Complex pair over AlgNum; conjugation negates the imaginary part."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = AlgNum.of(re)
        self.im = AlgNum.of(im)

    @classmethod
    def of(cls, x) -> "AlgComplex":
        if isinstance(x, AlgComplex):
            return x
        if isinstance(x, (AlgNum, int, Fraction)):
            return cls(x)
        raise TypeError(f"cannot coerce {type(x).__name__} into the complex field")

    def _key(self):
        return self.re.coords() + self.im.coords()

    def _plain(self):
        return self.re if self.im.is_zero() else None

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def __add__(self, other):
        o = AlgComplex.of(other)
        return AlgComplex(self.re + o.re, self.im + o.im)

    def __neg__(self):
        return AlgComplex(-self.re, -self.im)

    def __mul__(self, other):
        o = AlgComplex.of(other)
        return AlgComplex(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    def conj(self) -> "AlgComplex":
        return AlgComplex(self.re, -self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"AlgComplex({self.re!r}, {self.im!r})"


# unit-circle constants used by the construction (half/quarter-angle values)
PHASE_30 = AlgComplex(SQRT3 * HALF, HALF)                      # e^{i pi/6}
PHASE_60 = AlgComplex(HALF, SQRT3 * HALF)                      # e^{i pi/3}
PHASE_NEG_30 = PHASE_30.conj()                                 # e^{-i pi/6}
PHASE_NEG_45 = AlgComplex(SQRT2 * HALF, -(SQRT2 * HALF))       # e^{-i pi/4}
PHASE_15 = AlgComplex(
    (SQRT6 + SQRT2) * AlgNum(Fraction(1, 4)),
    (SQRT6 - SQRT2) * AlgNum(Fraction(1, 4)),
)                                                              # e^{i pi/12}

# unimodular base triple of the dimension-3 zero construction
TORUS_BASE = (PHASE_30, PHASE_60, PHASE_NEG_30)


# --- sparse polynomials over Q ----------------------------------------------

VARS = ("nu1", "nu2", "nu3", "z")
_NV = len(VARS)


def _rational(x) -> _Rat:
    """A polynomial coefficient: an int or a Fraction, as _frac keeps it."""
    if isinstance(x, (int, Fraction)):
        return _frac(x)
    raise TypeError(f"cannot coerce {type(x).__name__} into Q")


class ExactPoly(_Ring):
    """Sparse multivariate polynomial in (nu1, nu2, nu3, z) over Q.

    A coefficient is an int, or a Fraction when it is not integral, and
    zero coefficients are never stored; equality is exact coefficient
    comparison, which is the identity test used by the verification
    suite (full expansion, not randomized evaluation).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        clean = {}
        for expo, coef in (terms or {}).items():
            c = _rational(coef)
            if c:
                clean[tuple(expo)] = c
        self.terms = clean

    @classmethod
    def const(cls, c) -> "ExactPoly":
        return cls({(0,) * _NV: c})

    @classmethod
    def var(cls, name: str) -> "ExactPoly":
        expo = [0] * _NV
        expo[VARS.index(name)] = 1
        return cls({tuple(expo): 1})

    @classmethod
    def of(cls, x) -> "ExactPoly":
        if isinstance(x, ExactPoly):
            return x
        return cls.const(x)

    def _key(self):
        return frozenset(self.terms.items())

    def _plain(self):
        if not self.terms:
            return 0
        return self.terms.get((0,) * _NV) if len(self.terms) == 1 else None

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for expo, coef in ExactPoly.of(other).terms.items():
            out[expo] = out.get(expo, 0) + coef
        return ExactPoly(out)

    def __neg__(self):
        return ExactPoly({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        o = ExactPoly.of(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                out[expo] = out.get(expo, 0) + c1 * c2
        return ExactPoly(out)

    def coeff_in(self, name: str, power: int) -> "ExactPoly":
        """Coefficient of name**power, as a polynomial in the other variables."""
        idx = VARS.index(name)
        out = {}
        for expo, coef in self.terms.items():
            if expo[idx] == power:
                reduced = list(expo)
                reduced[idx] = 0
                out[tuple(reduced)] = coef
        return ExactPoly(out)

    def degree_in(self, name: str) -> int:
        idx = VARS.index(name)
        return max((e[idx] for e in self.terms), default=0)

    def evaluate(self, values: Iterable[complex]) -> complex:
        vals = tuple(complex(v) for v in values)
        total = 0j
        for expo, coef in self.terms.items():
            term = complex(coef)
            for v, p in zip(vals, expo):
                if p:
                    term *= v**p
            total += term
        return total

    def __repr__(self):
        return f"ExactPoly({len(self.terms)} terms)"


NU1 = ExactPoly.var("nu1")
NU2 = ExactPoly.var("nu2")
NU3 = ExactPoly.var("nu3")
Z = ExactPoly.var("z")


# --- verification reports -----------------------------------------------------


@dataclass
class CheckResult:
    name: str
    statement: str
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    title: str
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, statement: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, statement, bool(passed), detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_text(self) -> str:
        lines = [f"# {self.title}"]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"[{mark}] {c.name}: {c.statement}")
            if c.detail and not c.passed:
                lines.append(f"       {c.detail}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "statement": c.statement,
                    "passed": c.passed,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


# --- the exact quadratic data at the base triple ------------------------------


@functools.cache
def exact_base_sym() -> tuple[AlgComplex, AlgComplex, AlgComplex]:
    """Elementary symmetric values of the unimodular base triple (computed
    once per process)."""
    return elem_sym3(*TORUS_BASE)


@functools.cache
def exact_base_quadratic() -> tuple[AlgComplex, AlgComplex, AlgComplex]:
    """Exact (a, b, c) at the base triple, via the generic coefficient
    expressions shared with the float path (computed once per process)."""
    return quadratic_sym_coeffs(*exact_base_sym())


def verify_base_point_identities(fault: str | None = None) -> VerificationReport:
    """Exact checks of the base-point constants and the real quadratic p.

    `fault="p-coeff"` flips one target coefficient of p so that exactly
    the substitution-identity check fails (used to exercise the report
    plumbing end to end).
    """
    rep = VerificationReport("exact base-point identities")

    p1, p2, p3 = exact_base_sym()
    expected_p1 = AlgComplex(HALF + SQRT3, SQRT3 * HALF)
    expected_p2 = AlgComplex(ONE + SQRT3 * HALF, AlgNum(Fraction(3, 2)))
    expected_p3 = PHASE_60
    rep.add(
        "sym-1",
        "first symmetric value equals (1 + 2*sqrt3 + i*sqrt3)/2",
        p1 == expected_p1,
    )
    rep.add(
        "sym-2",
        "second symmetric value equals (2 + sqrt3 + 3i)/2",
        p2 == expected_p2,
    )
    rep.add("sym-3", "third symmetric value equals e^{i pi/3}", p3 == expected_p3)

    a, b, c = exact_base_quadratic()
    a_closed = AlgComplex.of(SQRT3 * 3 - 5) * PHASE_60
    b_closed = AlgComplex.of(SQRT2 * 6 - SQRT6 * 3) * PHASE_15
    c_closed = AlgComplex.of(SQRT3 * 2 - 3) * PHASE_NEG_30
    rep.add("abc-a", "a equals (3*sqrt3 - 5) e^{i pi/3}", a == a_closed)
    rep.add("abc-b", "b equals (6*sqrt2 - 3*sqrt6) e^{i pi/12}", b == b_closed)
    rep.add("abc-c", "c equals (2*sqrt3 - 3) e^{-i pi/6}", c == c_closed)

    # substitution z = e^{-i pi/4} x turns e^{i pi/6}(a z^2 - b z + 2c) into
    # the real polynomial p(x) = (3 sqrt3 - 5) x^2 + (3 sqrt6 - 6 sqrt2) x + (4 sqrt3 - 6)
    p_a = AlgComplex.of(SQRT3 * 3 - 5)
    p_b = AlgComplex.of(SQRT6 * 3 - SQRT2 * 6)
    p_c = AlgComplex.of(SQRT3 * 4 - 6)
    if fault == "p-coeff":
        p_b = -p_b
    elif fault is not None:
        raise ValueError(f"unknown fault injection target: {fault!r}")
    got_x2 = PHASE_30 * a * PHASE_NEG_45 * PHASE_NEG_45
    got_x1 = -(PHASE_30 * b * PHASE_NEG_45)
    got_x0 = PHASE_30 * (c + c)
    rep.add(
        "p-subst",
        "e^{i pi/6}(a z^2 - b z + 2c) with z = e^{-i pi/4} x equals p(x) as a polynomial",
        got_x2 == p_a and got_x1 == p_b and got_x0 == p_c,
        detail=f"x^2 ok={got_x2 == p_a} x ok={got_x1 == p_b} const ok={got_x0 == p_c}",
    )

    # discriminant and sign pattern of p (real arithmetic from here on)
    pa, pb, pc = SQRT3 * 3 - 5, SQRT6 * 3 - SQRT2 * 6, SQRT3 * 4 - 6
    disc = pb * pb - 4 * pa * pc
    rep.add("p-disc", "discriminant of p equals 80*sqrt3 - 138", disc == SQRT3 * 80 - 138)
    rep.add("p-disc-pos", "discriminant is positive", alg_sign(disc) > 0)
    p0 = pc
    p1_val = pa + pb + pc
    rep.add("p-at-0", "p(0) > 0", alg_sign(p0) > 0)
    rep.add("p-at-1", "p(1) < 0", alg_sign(p1_val) < 0)
    rep.add(
        "p-root-in-01",
        "p has a real root strictly between 0 and 1",
        alg_sign(disc) > 0 and alg_sign(p0) > 0 and alg_sign(p1_val) < 0,
    )
    return rep


def verify_bracket_identities() -> VerificationReport:
    """Exact polynomial identities of the two-column reduction bracket."""
    rep = VerificationReport("exact bracket identities")

    bracket = bracket_expr(NU1, NU2, NU3, Z)
    rep.add(
        "bracket-degree",
        "the bracket is a cubic in z",
        bracket.degree_in("z") == 3,
    )

    coeff_z3 = bracket.coeff_in("z", 3)
    coeff_z1 = bracket.coeff_in("z", 1)
    coeff_z0 = bracket.coeff_in("z", 0)

    raw_a, raw_m2c, raw_bp2c = bracket_raw_displays(NU1, NU2, NU3)
    rep.add(
        "extract-z3",
        "z^3 coefficient matches its direct expansion",
        coeff_z3 == raw_a,
    )
    rep.add(
        "extract-z0",
        "z^0 coefficient matches its direct expansion (-2C form)",
        coeff_z0 == raw_m2c,
    )
    rep.add(
        "extract-z1",
        "z coefficient matches its direct expansion (B + 2C form)",
        coeff_z1 == raw_bp2c,
    )

    big_a = coeff_z3
    big_c = ExactPoly.const(Fraction(-1, 2)) * coeff_z0
    big_b = coeff_z1 + coeff_z0  # (B + 2C) - 2C

    sa, sb, sc = quadratic_sym_coeffs(*elem_sym3(NU1, NU2, NU3))
    factor = NU2 - NU1
    rep.add("factor-A", "A = (nu2 - nu1) * a", big_a == factor * sa)
    rep.add("factor-B", "B = (nu2 - nu1) * b", big_b == factor * sb)
    rep.add("factor-C", "C = (nu2 - nu1) * c", big_c == factor * sc)

    reassembled = (Z - 1) * (big_a * Z * Z - big_b * Z + (big_c + big_c))
    rep.add(
        "bracket-factored",
        "bracket = (z - 1)(A z^2 - B z + 2C) as polynomials",
        bracket == reassembled,
    )
    return rep
