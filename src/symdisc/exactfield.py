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
every certificate starts from has fixed bits.

A polynomial is stored packed: each monomial is one int, with a bit
field per variable, and maps to an int numerator over one positive
denominator common to the whole polynomial.  The generators take 2-bit
fields at the low end, in VARS order, and the unknowns _FIELD_BITS-bit
fields above them, in VARS order.  A monomial product is then one int
addition: a generator field that reaches 2 sets its high bit, which one
mask test finds and one table lookup turns into its square 2, 3 or -1.
The top bit of an unknown's field is a guard that no stored exponent
sets, so the sum of two stored exponents never carries into the next
field; a product, power or constructor input that sets it raises
OverflowError instead.  Each result is normalized once, by one gcd of
its denominator and numerators, and integer polynomials, whose
denominator is 1, skip even that.  ExactPoly is a ring, with no
division, as no identity of the suite divides by an irrational element.
Signs of nonzero real constants are decided on the integer numerators by
interval arithmetic with escalating precision (exact-zero short circuit
first), so every verification below is precision-independent.

The dimension-3 coefficient polynomials are generic ring expressions,
proved here on ExactPoly values and evaluated in floats by kernel.  The
module imports only the standard library, so the proofs run without numpy.

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
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Union

_Rat = Union[int, Fraction]

VARS = ("nu1", "nu2", "nu3", "z", "sqrt2", "sqrt3", "i")
_NU = 4  # VARS[:_NU] are the unknowns, VARS[_NU:] the generators
_SQUARES = (2, 3, -1)  # the squares of sqrt2, sqrt3 and i
_FIELD_BITS = 8  # per unknown, its top bit the overflow guard: exponents up to 127

# packed layout: the generators' 2-bit fields from bit 0, then the unknowns'
_GEN_SHIFTS = tuple(range(0, 2 * len(_SQUARES), 2))
_SHIFTS = tuple(2 * len(_SQUARES) + _FIELD_BITS * k for k in range(_NU)) + _GEN_SHIFTS
_FIELD_MASKS = ((1 << _FIELD_BITS) - 1,) * _NU + (0b11,) * len(_SQUARES)
_UNKNOWNS = sum(m << s for m, s in zip(_FIELD_MASKS[:_NU], _SHIFTS))
_GUARDS = sum(1 << (s + _FIELD_BITS - 1) for s in _SHIFTS[:_NU])
_CARRIES = sum(2 << s for s in _GEN_SHIFTS)  # a generator exponent of 2
_HIGH = _CARRIES | _GUARDS
_I_BIT = 1 << _SHIFTS[VARS.index("i")]
# every nonzero set of carried generators -> the product of their squares
_SQUARE_PRODUCTS = {
    sum(2 << s for s, bit in zip(_GEN_SHIFTS, bits) if bit): math.prod(
        sq for sq, bit in zip(_SQUARES, bits) if bit
    )
    for bits in itertools.product((0, 1), repeat=len(_SQUARES))
    if any(bits)
}
# packed basis 1, sqrt2, sqrt3, sqrt6 of the real part, then of i, i sqrt2,
# i sqrt3, i sqrt6
_BASIS = tuple(
    b2 << _GEN_SHIFTS[0] | b3 << _GEN_SHIFTS[1] | bi << _GEN_SHIFTS[2]
    for bi in (0, 1)
    for b2, b3 in ((0, 0), (1, 0), (0, 1), (1, 1))
)


def _pack(expo) -> tuple[int, int]:
    """The packed monomial of an exponent tuple over VARS, with each
    generator's square replaced by its value: (key, the product of those
    values)."""
    if len(expo) != len(VARS):
        raise ValueError(f"an exponent tuple has {len(VARS)} entries, got {len(expo)}")
    key, factor = 0, 1
    for k, (e, shift) in enumerate(zip(expo, _SHIFTS)):
        if e < 0:
            raise ValueError(f"negative exponent {e} of {VARS[k]}")
        if k >= _NU:
            factor *= _SQUARES[k - _NU] ** (e >> 1)
            e &= 1
        elif e >> (_FIELD_BITS - 1):
            raise OverflowError(f"exponent {e} of {VARS[k]} overflows its {_FIELD_BITS}-bit field")
        key |= e << shift
    return key, factor


def _carry_factor(carried: int) -> int:
    """The factor of the generator squares carried in a monomial sum; a
    set guard bit is an unknown's exponent past its field."""
    try:
        return _SQUARE_PRODUCTS[carried]
    except KeyError:
        raise OverflowError(
            f"an exponent reaches 2**{_FIELD_BITS - 1} and overflows its packed field"
        ) from None


def _rational(x) -> _Rat:
    """A coefficient: an int or a Fraction, and nothing else."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"cannot coerce {type(x).__name__} into Q")


def _quotient(num: int, den: int) -> _Rat:
    """num / den: an int when integral, else a Fraction."""
    if den == 1:
        return num
    q = Fraction(num, den)
    return q.numerator if q.denominator == 1 else q


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

    The value is num / den: num maps a packed monomial (see the module
    docstring) to a nonzero int numerator, and den is the one positive
    denominator of all of them, coprime to the numerators together.  The
    generators sqrt2, sqrt3 and i are variables too, kept reduced by
    sqrt2^2 = 2, sqrt3^2 = 3 and i^2 = -1, so their exponents are 0 or 1
    and equal values have equal (num, den).  The constructor takes a dict
    from exponent tuples over VARS to int or Fraction coefficients and
    reduces whatever it is given; `terms` gives that dict back, reduced,
    with an int for each integral coefficient and a Fraction for the
    rest.  An unknown's exponent is below 2**(_FIELD_BITS - 1); one that
    reaches it raises OverflowError.  A constant converts to float and
    complex part by part, each part as float(q0) + float(q2)*sqrt(2.0) +
    float(q3)*sqrt(3.0) + float(q6)*sqrt(6.0), added in that order.

    The ring operations accept int and Fraction operands and compute in
    ints alone, and == and hash cross types: a rational constant equals
    and hashes as its int or Fraction.  There is no division, so a
    negative power raises ValueError.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms: dict | None = None):
        coefs = [(_pack(tuple(expo)), _rational(c)) for expo, c in (terms or {}).items()]
        den = lcm(*(c.denominator for _, c in coefs))
        num: dict = {}
        for (key, factor), c in coefs:
            num[key] = num.get(key, 0) + c.numerator * factor * (den // c.denominator)
        self._set(num, den)

    def _set(self, num: dict, den: int) -> None:
        """Store num / den in lowest terms, without zero numerators."""
        if 0 in num.values():
            num = {e: c for e, c in num.items() if c}
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {e: c // g for e, c in num.items()}
        self._num = num
        self._den = den

    @classmethod
    def _of(cls, num: dict, den: int) -> "ExactPoly":
        """num / den: the ring operations' constructor."""
        out = object.__new__(cls)
        out._set(num, den)
        return out

    @classmethod
    def const(cls, c: _Rat) -> "ExactPoly":
        c = _rational(c)
        return cls._of({0: c.numerator}, c.denominator)

    @classmethod
    def var(cls, name: str) -> "ExactPoly":
        return cls._of({1 << _SHIFTS[VARS.index(name)]: 1}, 1)

    @classmethod
    def of(cls, x) -> "ExactPoly":
        return x if isinstance(x, ExactPoly) else cls.const(x)

    @property
    def terms(self) -> dict:
        """The coefficient of each monomial, keyed by its exponent tuple over VARS."""
        return {
            tuple(e >> s & m for s, m in zip(_SHIFTS, _FIELD_MASKS)): _quotient(c, self._den)
            for e, c in self._num.items()
        }

    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other) -> bool:
        try:
            o = ExactPoly.of(other)
        except TypeError:
            return NotImplemented
        return self._den == o._den and self._num == o._num

    def __hash__(self):
        # == crosses types, so a rational constant hashes as its int or Fraction
        if self._num.keys() <= {0}:
            return hash(_quotient(self._num.get(0, 0), self._den))
        return hash((frozenset(self._num.items()), self._den))

    def _plus(self, other, sign: int) -> "ExactPoly":
        """self + sign * other, over the least common denominator."""
        o = ExactPoly.of(other)
        den = lcm(self._den, o._den)
        scale, o_scale = den // self._den, sign * (den // o._den)
        out = dict(self._num) if scale == 1 else {e: c * scale for e, c in self._num.items()}
        get = out.get
        for e, c in o._num.items():
            out[e] = get(e, 0) + c * o_scale
        return ExactPoly._of(out, den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return ExactPoly._of({e: -c for e, c in self._num.items()}, self._den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return ExactPoly.of(other)._plus(self, -1)

    def __mul__(self, other):
        o = ExactPoly.of(other)
        out: dict = {}
        get = out.get
        high, carry_factor = _HIGH, _carry_factor
        o_items = o._num.items()
        for e1, c1 in self._num.items():
            for e2, c2 in o_items:
                e = e1 + e2
                carried = e & high
                if carried:
                    e ^= carried
                    out[e] = get(e, 0) + c1 * c2 * carry_factor(carried)
                else:
                    out[e] = get(e, 0) + c1 * c2
        return ExactPoly._of(out, self._den * o._den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError(f"negative power {k} of a ring element")
        out = ExactPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:  # no square past the last bit, which could overflow for nothing
                base = base * base
        return out

    def conj(self) -> "ExactPoly":
        """The complex conjugate of the coefficients: i -> -i."""
        return ExactPoly._of({e: -c if e & _I_BIT else c for e, c in self._num.items()}, self._den)

    def _constant_numerators(self) -> tuple:
        """The numerators over den of the eight coordinates of a constant;
        a polynomial that is not constant raises ValueError."""
        if any(e & _UNKNOWNS for e in self._num):
            raise ValueError(f"{self!r} is not a constant")
        return tuple(self._num.get(e, 0) for e in _BASIS)

    def coords(self) -> tuple:
        """The eight rational coordinates of a constant: (q0, q2, q3, q6) of
        its real part on the basis 1, sqrt2, sqrt3, sqrt6, then of its
        imaginary part.  A polynomial that is not constant raises ValueError."""
        return tuple(_quotient(c, self._den) for c in self._constant_numerators())

    def _real_numerators(self) -> tuple:
        """(n0, n2, n3, n6) of a real constant (n0 + n2 sqrt2 + n3 sqrt3 +
        n6 sqrt6) / den; anything else raises ValueError."""
        n = self._constant_numerators()
        if any(n[4:]):
            raise ValueError(f"{self!r} is not real")
        return n[:4]

    def real_coords(self) -> tuple:
        """(q0, q2, q3, q6) of a real constant q0 + q2 sqrt2 + q3 sqrt3 +
        q6 sqrt6; anything else raises ValueError."""
        return tuple(_quotient(c, self._den) for c in self._real_numerators())

    def __float__(self) -> float:
        return _float(*self.real_coords())

    def __complex__(self) -> complex:
        c = self.coords()
        return complex(_float(*c[:4]), _float(*c[4:]))

    def coeff_in(self, name: str, power: int) -> "ExactPoly":
        """Coefficient of name**power, as a polynomial in the other variables."""
        k = VARS.index(name)
        shift, mask = _SHIFTS[k], _FIELD_MASKS[k]
        clear = ~(mask << shift)
        out = {e & clear: c for e, c in self._num.items() if e >> shift & mask == power}
        return ExactPoly._of(out, self._den)

    def degree_in(self, name: str) -> int:
        k = VARS.index(name)
        shift, mask = _SHIFTS[k], _FIELD_MASKS[k]
        return max((e >> shift & mask for e in self._num), default=0)

    def __repr__(self):
        return f"ExactPoly({len(self._num)} terms)"


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


def alg_sign(x: ExactPoly, start_bits: int = 64) -> int:
    """Exact sign (-1, 0, +1) of a real constant x.

    x is (n0 + n2*sqrt2 + n3*sqrt3 + n6*sqrt6) / den in reduced form,
    with int numerators over the positive common denominator of x
    (ValueError for a constant with an imaginary part or a polynomial
    that is not constant), so its sign is the sign of the numerator sum.
    float(x) sums the four terms of x.real_coords() in that order, and
    can round a small x to the wrong sign, which this function never
    does.  Zero and rational values are decided by the numerators;
    otherwise each radical gets integer bounds
    isqrt(r << 2b) <= 2^b sqrt(r) <= that + 1, and b doubles until the
    enclosure of 2^b times the numerator sum excludes zero, which always
    terminates for nonzero elements.
    """
    n0, n2, n3, n6 = x._real_numerators()
    if not (n2 or n3 or n6):
        return (n0 > 0) - (n0 < 0)
    bits = max(4, start_bits)
    while True:
        lo = hi = n0 << bits
        for n, radicand in ((n2, 2), (n3, 3), (n6, 6)):
            if n:
                shifted = radicand << (2 * bits)
                rlo = isqrt(shifted)
                rhi = rlo if rlo * rlo == shifted else rlo + 1
                lo += n * (rlo if n > 0 else rhi)
                hi += n * (rhi if n > 0 else rlo)
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
        """The report as the dict dataclasses.asdict gives, plus its
        verdict under "passed"; the fields are strings and a bool, so they
        are read directly instead of deep-copied."""
        return {
            "title": self.title,
            "checks": [
                {"name": c.name, "statement": c.statement, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "passed": self.passed,
        }


# --- generic ring expressions, shared with the float path ------------------


def elem_sym3(nu1, nu2, nu3):
    """The three elementary symmetric values of a triple, generically."""
    return (
        nu1 + nu2 + nu3,
        nu1 * nu2 + nu1 * nu3 + nu2 * nu3,
        nu1 * nu2 * nu3,
    )


def quadratic_sym_coeffs(p1, p2, p3):
    """Coefficients (a, b, c) of the dimension-3 quadratic, expressed in
    the elementary symmetric values of nu.  Works over any commutative
    ring whose elements support + - * with small integers, so the same
    expressions serve float evaluation and exact-field identities."""
    a = p2 * (2 - p1) + p3 * (2 * p1 - 3)
    b = (p1 - 2) * (p2 - 2 * p1 + 3) + 3 * (p3 - p1 + 2)
    c = p2 - 2 * p1 + 3
    return a, b, c


def bracket_expr(nu1, nu2, nu3, z):
    """The bracketed cubic-in-z expression from reducing the dimension-3
    determinant to two columns.  Generic in its arguments (numbers,
    exact field elements, or polynomial generators)."""
    t1 = (nu1 + nu3 - 2) * (z * nu2 + z * nu3 - 2) * (1 - z * nu1) ** 2 * (1 - nu2) ** 2
    t2 = (nu2 + nu3 - 2) * (z * nu1 + z * nu3 - 2) * (1 - nu1) ** 2 * (1 - z * nu2) ** 2
    return t1 - t2


def bracket_raw_displays(nu1, nu2, nu3):
    """The direct z^3, z^0 and z^1 coefficient extractions of the bracket:
    returns (A, minus_two_C, B_plus_two_C), generically."""
    a_coef = (nu1 + nu3 - 2) * (nu2 + nu3) * nu1**2 * (1 - nu2) ** 2 - (
        nu2 + nu3 - 2
    ) * (nu1 + nu3) * nu2**2 * (1 - nu1) ** 2
    minus_two_c = 2 * (nu2 + nu3 - 2) * (1 - nu1) ** 2 - 2 * (nu1 + nu3 - 2) * (
        1 - nu2
    ) ** 2
    b_plus_two_c = (nu1 + nu3 - 2) * (nu2 + nu3 + 4 * nu1) * (1 - nu2) ** 2 - (
        nu2 + nu3 - 2
    ) * (nu1 + nu3 + 4 * nu2) * (1 - nu1) ** 2
    return a_coef, minus_two_c, b_plus_two_c


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
    disc_pos, p0_pos, p1_neg = alg_sign(disc) > 0, alg_sign(pc) > 0, alg_sign(pa + pb + pc) < 0
    rep.add("p-disc-pos", "discriminant is positive", disc_pos)
    rep.add("p-at-0", "p(0) > 0", p0_pos)
    rep.add("p-at-1", "p(1) < 0", p1_neg)
    rep.add("p-root-in-01", "p has a real root strictly between 0 and 1", disc_pos and p0_pos and p1_neg)
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
