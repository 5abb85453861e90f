"""Exact arithmetic in Q(sqrt2, sqrt3, i) and the identity verification suite.

One exact type, ExactPoly, serves the whole suite: a sparse polynomial
over Q in the four unknowns nu1, nu2, nu3, z of the bracket identities
and the three generators sqrt2, sqrt3, i of the field that the
base-point constants live in.  Every value is kept reduced by
sqrt2^2 = 2, sqrt3^2 = 3 and i^2 = -1, so each generator's exponent is
0 or 1.  A constant then has eight rational coordinates, its real and
its imaginary part each on the basis {1, sqrt2, sqrt3, sqrt6}, and a
polynomial has such a constant per monomial of the unknowns.  The
reduced form is unique, so equality is an exact comparison of terms,
which is the identity test of the suite (full expansion, not randomized
evaluation).  A constant converts to float or complex part by part, each
part as float(q0) + float(q2)*sqrt(2.0) + float(q3)*sqrt(3.0) +
float(q6)*sqrt(6.0) added in that order, so the float base triple that
every certificate starts from has fixed bits.  An integral coefficient
is kept as an int and only a true fraction as a Fraction, so identities
with integer coefficients run on ints, without a gcd per product.
ExactPoly is a ring, with no division, as no identity of the suite
divides by an irrational element.  Signs of nonzero real constants are
decided by interval arithmetic with escalating precision (exact-zero
short circuit first), so every verification below is
precision-independent.

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
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import isqrt
from operator import add
from typing import Union

from .kernel import bracket_expr, bracket_raw_displays, elem_sym3, quadratic_sym_coeffs

_Rat = Union[int, Fraction]

VARS = ("nu1", "nu2", "nu3", "z", "sqrt2", "sqrt3", "i")
_NV = len(VARS)
_NU = 4  # VARS[:_NU] are the unknowns, VARS[_NU:] the generators
_SQUARES = (2, 3, -1)  # the squares of sqrt2, sqrt3 and i
_CONST = (0,) * _NV
# generator exponents of the basis 1, sqrt2, sqrt3, sqrt6 of the real part,
# then of i, i sqrt2, i sqrt3, i sqrt6
_BASIS = tuple(
    (0,) * _NU + (b2, b3, bi) for bi in (0, 1) for b2, b3 in ((0, 0), (1, 0), (0, 1), (1, 1))
)


def _reduced(expo: tuple, coef: _Rat) -> tuple[tuple, _Rat]:
    """The term coef * x^expo with each generator's square replaced by its value."""
    gens = expo[_NU:]
    if max(gens) < 2:
        return expo, coef
    for g, square in zip(gens, _SQUARES):
        coef *= square ** (g >> 1)
    return expo[:_NU] + tuple(g & 1 for g in gens), coef


def _rational(x) -> _Rat:
    """A coefficient: an int or a Fraction, and nothing else."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"cannot coerce {type(x).__name__} into Q")


def _frac(x: _Rat) -> _Rat:
    """A rational coefficient: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    return x.numerator if x.denominator == 1 else x


def _float(q0: _Rat, q2: _Rat, q3: _Rat, q6: _Rat) -> float:
    """q0 + q2 sqrt2 + q3 sqrt3 + q6 sqrt6 in floats, summed in that order."""
    return (
        float(q0)
        + float(q2) * math.sqrt(2.0)
        + float(q3) * math.sqrt(3.0)
        + float(q6) * math.sqrt(6.0)
    )


class ExactPoly:
    """Sparse polynomial in (nu1, nu2, nu3, z) over Q(sqrt2, sqrt3, i).

    The terms map an exponent tuple over VARS to a nonzero rational
    coefficient: an int, or a Fraction when it is not integral.  The
    generators sqrt2, sqrt3 and i are variables too, kept reduced by
    sqrt2^2 = 2, sqrt3^2 = 3 and i^2 = -1, so their exponents are 0 or 1
    and equal values have equal terms; the constructor reduces whatever
    it is given.  A constant converts to float and complex part by part,
    each part as float(q0) + float(q2)*sqrt(2.0) + float(q3)*sqrt(3.0)
    + float(q6)*sqrt(6.0), added in that order.

    The ring operations accept int and Fraction operands, and == and hash
    cross types: a rational constant equals and hashes as its int or
    Fraction.  There is no division, so a negative power raises
    ValueError.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        merged: dict = {}
        for expo, coef in (terms or {}).items():
            expo, coef = _reduced(tuple(expo), _rational(coef))
            merged[expo] = merged.get(expo, 0) + coef
        self.terms = {e: _frac(c) for e, c in merged.items() if c}

    @classmethod
    def _of_reduced(cls, terms: dict) -> "ExactPoly":
        """The value of terms that are already reduced, with rational
        coefficients: the ring operations' constructor."""
        out = object.__new__(cls)
        out.terms = {e: _frac(c) for e, c in terms.items() if c}
        return out

    @classmethod
    def const(cls, c: _Rat) -> "ExactPoly":
        return cls({_CONST: c})

    @classmethod
    def var(cls, name: str) -> "ExactPoly":
        expo = [0] * _NV
        expo[VARS.index(name)] = 1
        return cls({tuple(expo): 1})

    @classmethod
    def of(cls, x) -> "ExactPoly":
        return x if isinstance(x, ExactPoly) else cls.const(x)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        try:
            o = ExactPoly.of(other)
        except TypeError:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        # == crosses types, so a rational constant hashes as its int or Fraction
        if self.terms.keys() <= {_CONST}:
            return hash(self.terms.get(_CONST, 0))
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for expo, coef in ExactPoly.of(other).terms.items():
            out[expo] = out.get(expo, 0) + coef
        return ExactPoly._of_reduced(out)

    __radd__ = __add__

    def __neg__(self):
        return ExactPoly._of_reduced({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-ExactPoly.of(other))

    def __rsub__(self, other):
        return ExactPoly.of(other) + (-self)

    def __mul__(self, other):
        o = ExactPoly.of(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                expo, coef = _reduced(tuple(map(add, e1, e2)), c1 * c2)
                out[expo] = out.get(expo, 0) + coef
        return ExactPoly._of_reduced(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError(f"negative power {k} of a ring element")
        out = ExactPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self) -> "ExactPoly":
        """The complex conjugate of the coefficients: i -> -i."""
        return ExactPoly._of_reduced({e: -c if e[-1] else c for e, c in self.terms.items()})

    def coords(self) -> tuple:
        """The eight rational coordinates of a constant: (q0, q2, q3, q6) of
        its real part on the basis 1, sqrt2, sqrt3, sqrt6, then of its
        imaginary part.  A polynomial that is not constant raises ValueError."""
        if any(any(e[:_NU]) for e in self.terms):
            raise ValueError(f"{self!r} is not a constant")
        return tuple(self.terms.get(e, 0) for e in _BASIS)

    def real_coords(self) -> tuple:
        """(q0, q2, q3, q6) of a real constant q0 + q2 sqrt2 + q3 sqrt3 +
        q6 sqrt6; anything else raises ValueError."""
        c = self.coords()
        if any(c[4:]):
            raise ValueError(f"{self!r} is not real")
        return c[:4]

    def __float__(self) -> float:
        return _float(*self.real_coords())

    def __complex__(self) -> complex:
        c = self.coords()
        return complex(_float(*c[:4]), _float(*c[4:]))

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

    def __repr__(self):
        return f"ExactPoly({len(self.terms)} terms)"


NU1 = ExactPoly.var("nu1")
NU2 = ExactPoly.var("nu2")
NU3 = ExactPoly.var("nu3")
Z = ExactPoly.var("z")
I = ExactPoly.var("i")

ONE = ExactPoly.const(1)
SQRT2 = ExactPoly.var("sqrt2")
SQRT3 = ExactPoly.var("sqrt3")
SQRT6 = SQRT2 * SQRT3
HALF = ExactPoly.const(Fraction(1, 2))


def _sqrt_interval(n: int, bits: int) -> tuple[Fraction, Fraction]:
    """Dyadic enclosure of sqrt(n) with ~bits fractional bits."""
    shifted = n << (2 * bits)
    lo = isqrt(shifted)
    hi = lo if lo * lo == shifted else lo + 1
    denom = 1 << bits
    return Fraction(lo, denom), Fraction(hi, denom)


def _scaled_interval(q: Fraction, lo: Fraction, hi: Fraction):
    return (q * lo, q * hi) if q >= 0 else (q * hi, q * lo)


def alg_sign(x: ExactPoly, start_bits: int = 64) -> int:
    """Exact sign (-1, 0, +1) of a real constant x.

    x is q0 + q2*sqrt2 + q3*sqrt3 + q6*sqrt6 in reduced form, with the
    four rational coordinates of x.real_coords() (ValueError for a
    constant with an imaginary part or a polynomial that is not
    constant); float(x) sums the same four terms in that order, and can
    round a small x to the wrong sign, which this function never does.
    Zero and rational values are decided by the coordinates; otherwise
    dyadic intervals for the radicals are refined (doubling precision)
    until the enclosure of x excludes zero, which always terminates for
    nonzero elements.
    """
    q0, q2, q3, q6 = x.real_coords()
    if not (q2 or q3 or q6):
        return (q0 > 0) - (q0 < 0)
    bits = max(4, start_bits)
    while True:
        lo = hi = q0
        for q, radicand in ((q2, 2), (q3, 3), (q6, 6)):
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


# unit-circle constants used by the construction (half/quarter-angle values)
PHASE_30 = (SQRT3 + I) * HALF                                  # e^{i pi/6}
PHASE_60 = (1 + SQRT3 * I) * HALF                              # e^{i pi/3}
PHASE_NEG_30 = PHASE_30.conj()                                 # e^{-i pi/6}
PHASE_NEG_45 = (1 - I) * SQRT2 * HALF                          # e^{-i pi/4}
PHASE_15 = (SQRT6 + SQRT2 + (SQRT6 - SQRT2) * I) * Fraction(1, 4)  # e^{i pi/12}

# unimodular base triple of the dimension-3 zero construction
TORUS_BASE = (PHASE_30, PHASE_60, PHASE_NEG_30)


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
        return {**asdict(self), "passed": self.passed}


# --- the exact quadratic data at the base triple ------------------------------


@functools.cache
def exact_base_sym() -> tuple[ExactPoly, ExactPoly, ExactPoly]:
    """Elementary symmetric values of the unimodular base triple (computed
    once per process)."""
    return elem_sym3(*TORUS_BASE)


@functools.cache
def exact_base_quadratic() -> tuple[ExactPoly, ExactPoly, ExactPoly]:
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
    expected_p1 = HALF + SQRT3 + SQRT3 * HALF * I
    expected_p2 = ONE + SQRT3 * HALF + Fraction(3, 2) * I
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
    a_closed = (SQRT3 * 3 - 5) * PHASE_60
    b_closed = (SQRT2 * 6 - SQRT6 * 3) * PHASE_15
    c_closed = (SQRT3 * 2 - 3) * PHASE_NEG_30
    rep.add("abc-a", "a equals (3*sqrt3 - 5) e^{i pi/3}", a == a_closed)
    rep.add("abc-b", "b equals (6*sqrt2 - 3*sqrt6) e^{i pi/12}", b == b_closed)
    rep.add("abc-c", "c equals (2*sqrt3 - 3) e^{-i pi/6}", c == c_closed)

    # substitution z = e^{-i pi/4} x turns e^{i pi/6}(a z^2 - b z + 2c) into
    # the real polynomial p(x) = (3 sqrt3 - 5) x^2 + (3 sqrt6 - 6 sqrt2) x + (4 sqrt3 - 6)
    pa, pb, pc = SQRT3 * 3 - 5, SQRT6 * 3 - SQRT2 * 6, SQRT3 * 4 - 6
    if fault not in (None, "p-coeff"):
        raise ValueError(f"unknown fault injection target: {fault!r}")
    target_b = -pb if fault else pb
    got_x2 = PHASE_30 * a * PHASE_NEG_45 * PHASE_NEG_45
    got_x1 = -(PHASE_30 * b * PHASE_NEG_45)
    got_x0 = PHASE_30 * (c + c)
    rep.add(
        "p-subst",
        "e^{i pi/6}(a z^2 - b z + 2c) with z = e^{-i pi/4} x equals p(x) as a polynomial",
        got_x2 == pa and got_x1 == target_b and got_x0 == pc,
        detail=f"x^2 ok={got_x2 == pa} x ok={got_x1 == target_b} const ok={got_x0 == pc}",
    )

    # discriminant and sign pattern of p (real arithmetic from here on)
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
