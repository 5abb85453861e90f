"""Bergman kernel of the symmetrized polydisc.

In preimage coordinates the kernel is the determinant of the
Cauchy-power matrix with entries (1 - lambda_j * conj(mu_k))^(-2) over
pi^n times the paired Vandermonde product.  With B_jk = 1 - lambda_j *
conj(mu_k) and C = 1/B, Borchardt's identity det(C o C) = det C * per C
and Cauchy's determinant cancel the Vandermonde product:

    K = per C / (pi^n * prod_{j,k} B_jk),

which is smooth at coincident coordinates.  Every float evaluation goes
through this formula, with the permanent computed by Glynn's formula in
Gray-code order.  At a certified zero the float per C is rounding
noise, so the residual of a certificate takes per C exactly at the
stored float coordinates: they are dyadic Gaussian rationals, Glynn's
loop runs over Python ints after the rows of C are cleared of their
denominators, and the value is rounded once, at the end
(permanent_exact).  The same sum times the Vandermonde products gives
the exact Cauchy-power determinant, det = V(lambda) V(conj mu) per C /
prod B (delta_n), which the tests compare against elimination.

Dimension 3 with mu_3 = 0 admits a closed quadratic form in
z = conj(mu_2)/conj(mu_1) whose coefficients are symmetric functions of
nu_j = lambda_j * conj(mu_1); those coefficient polynomials live here
as generic expressions so the exact-arithmetic module can reuse them
verbatim on its own field elements.

per C is linear in the first row, so on a fiber (lambda_2..lambda_n, mu)
it is a rational function of lambda_1 built from the permanents of the
first-row minors.  Its numerator, the fiber polynomial, has the first
coordinates at which the kernel vanishes as its roots; fiber_kernel
evaluates the kernel along the fiber from the same minors, O(n) per
point, which is what grid slices use.

det_pivoted takes one matrix or a stack of them; it serves the
dimension-3 reduction checks and the slice moment identity.  The batch
helpers, for sampling and the numeric cross-checks, work in ordinary
complex128.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import MuOneZero, NotInDomain, SingularEntry
from .symcore import (
    SymPoint,
    _coords,
    classify_roots,
    roots_from_sym,
)

PI = math.pi

# pairs per slab of the batch evaluators: bounds the (n, n, chunk) work
# arrays, about 3 MB at n = 7.  With slabs of 4096 pairs the peak memory of
# a process running many sample jobs (and grid jobs, which then evaluated
# every point as a pair) varied from run to run by up to 16 MB
_BATCH_CHUNK = 1024


@dataclass(frozen=True)
class KernelEval:
    """A kernel value together with the pieces it was assembled from.

    value * denominator == numerator, with numerator = per C and
    denominator = pi^n * prod B_jk; scale = per |C| bounds |numerator|,
    so |numerator| / scale <= 1 is a scale-free measure of cancellation.
    """

    value: complex
    numerator: complex
    denominator: complex
    scale: float


@dataclass(frozen=True)
class QuadraticData:
    """The quadratic a z^2 - b z + 2 c of the dimension-3 closed form,
    tagged with the nu triple it came from."""

    nu: tuple[complex, complex, complex]
    a: complex
    b: complex
    c: complex


def _base_matrix(lam, mu) -> np.ndarray:
    """Matrix B with entries 1 - lambda_j * conj(mu_k); none may vanish."""
    a = np.asarray(_coords(lam), dtype=complex)
    b = np.asarray(_coords(mu), dtype=complex)
    if a.shape != b.shape:
        raise ValueError("tuples must have the same dimension")
    base = 1.0 - np.multiply.outer(a, np.conj(b))
    if np.any(base == 0):
        raise SingularEntry("some 1 - lambda_j*conj(mu_k) vanishes")
    return base


def permanent(c: np.ndarray, empty=np.empty) -> np.ndarray:
    """Permanents of c over its first two axes, shape (n, n, *batch).

    Glynn's formula per c = 2^(1-n) sum_d (prod_j d_j) prod_k sum_j d_j c_jk
    over sign vectors d with d_0 = +1, visited in Gray-code order: each
    step flips one sign, which updates the column sums in O(n) and
    alternates the sign of prod_j d_j.  `empty(shape, dtype)` provides
    the work arrays (the batch evaluators pass a _SlabBuffers).
    """
    n = c.shape[0]
    twice = np.multiply(c, 2.0, out=empty(c.shape, c.dtype))
    sums = c.sum(axis=0, out=empty(c.shape[1:], c.dtype))
    prods = empty((2 ** (n - 1), *c.shape[2:]), c.dtype)
    sums.prod(axis=0, out=prods[0, ...])
    flipped = [False] * n
    for step in range(1, 2 ** (n - 1)):
        j = (step & -step).bit_length()  # the sign flipped at this step, 1..n-1
        if flipped[j]:
            sums += twice[j]
        else:
            sums -= twice[j]
        flipped[j] = not flipped[j]
        sums.prod(axis=0, out=prods[step, ...])
    return (prods[0::2].sum(axis=0) - prods[1::2].sum(axis=0)) / 2 ** (n - 1)


def _minor_permanents(rest, mu):
    """(pers, mubar, base) for the fiber (rest; mu): pers[k] is the permanent
    of R without column k, where R holds the rows 1 / (1 - lambda_j conj(mu_k))
    of rest = lambda_2..lambda_m, mubar is conj(mu) and base the (m - 1, m)
    matrix of those 1 - lambda_j conj(mu_k).  The m minors go through one
    permanent call, stacked on its batch axis."""
    rest = np.asarray(rest, dtype=complex)
    mubar = np.conj(np.asarray(mu, dtype=complex))
    m = len(mubar)
    if m < 2 or len(rest) != m - 1:
        raise ValueError("need m >= 2 mu coordinates and m - 1 rest coordinates")
    base = 1.0 - np.multiply.outer(rest, mubar)
    if np.any(base == 0):
        raise SingularEntry("some 1 - lambda_j*conj(mu_k) vanishes")
    c = 1.0 / base
    keep = ~np.eye(m, dtype=bool)  # row k: every column but k
    minors = np.stack([c[:, keep[k]] for k in range(m)], axis=-1)
    return permanent(minors), mubar, base


def fiber_polynomial(rest, mu) -> np.ndarray:
    """Coefficients, highest degree first (as np.roots takes them), of

        q(x) = sum_k per(R without column k) prod_{l != k} (1 - x conj(mu_l)),

    where R holds the rows 1 / (1 - lambda_j conj(mu_k)) of rest = lambda_2..
    lambda_m.  per C is linear in the first row, so q(x) is
    per C((x, *rest); mu) * prod_k (1 - x conj(mu_k)): a polynomial of
    degree at most m - 1 whose roots in the unit disc are the first
    coordinates that make the kernel vanish on this fiber.
    """
    pers, mubar, _ = _minor_permanents(rest, mu)
    m = len(mubar)
    # prod_{l != k} (1 - x conj(mu_l)) from prefix and suffix products
    factors = [np.array([-b, 1.0]) for b in mubar]
    prefix = [np.ones(1, dtype=complex)]
    for f in factors[:-1]:
        prefix.append(np.convolve(prefix[-1], f))
    q = np.zeros(m, dtype=complex)
    suffix = np.ones(1, dtype=complex)
    for k in range(m - 1, -1, -1):
        q += pers[k] * np.convolve(prefix[k], suffix)
        suffix = np.convolve(suffix, factors[k])
    return q


def fiber_kernel(x, rest, mu) -> np.ndarray:
    """Kernel values K((x, *rest), mu) for an array x of first coordinates.

    The expansion of per C along its first row gives
    per C = sum_k per(R without column k) / (1 - x conj(mu_k)), with the
    minor permanents of fiber_polynomial computed once for the fiber; the
    denominator is pi^m prod_{j>=2,k} B_jk prod_k (1 - x conj(mu_k)).  So
    each x costs O(m), against the m 2^(m-1) of a full permanent, and the
    value is kernel_gn's at every x with no zero 1 - x conj(mu_k).
    """
    pers, mubar, base = _minor_permanents(rest, mu)
    x = np.asarray(x, dtype=complex)
    per = np.zeros_like(x)
    row = np.ones_like(x)
    for minor, b in zip(pers, mubar):
        first = 1.0 - x * b
        per += minor / first
        row *= first
    return per / (PI ** len(mubar) * np.prod(base) * row)


def det_pivoted(matrix: np.ndarray) -> complex | np.ndarray:
    """Determinants in complex128 (LAPACK LU with partial pivoting).

    Takes one (n, n) matrix, which gives a complex, or a stack
    (..., n, n), which gives a complex array of shape (...).
    """
    return _complex_if_scalar(np.linalg.det(np.asarray(matrix, dtype=complex)))


# --- exact permanent and determinant ----------------------------------------
#
# A float coordinate is a dyadic rational: lambda_j = a_j / 2^e_j and
# mu_k = b_k / 2^f_k with Gaussian integers a_j, b_k.  Then
#
#     B_jk = 1 - lambda_j conj(mu_k) = W_jk / 2^(e_j + f_k),
#     W_jk = 2^(e_j + f_k) - a_j conj(b_k).
#
# So C_jk = 1/B_jk = 2^e_j 2^f_k E_jk / P_j with P_j = prod_l W_jl and
# the Gaussian integer E_jk = prod_{l != k} W_jl.  The permanent is
# linear in each row and each column, so the factors come out:
#
#     per C = 2^(sum e + sum f) per E / prod_{j,l} W_jl.
#
# per E is Glynn's sum in Gray-code order, as in permanent(), over
# (re, im) pairs of Python ints; the only division is the last one,
# which rounds once.  Borchardt's identity and Cauchy's determinant give
# the determinant of the Cauchy-power matrix C o C from the same sum,
#
#     det(C o C) = V(lambda) V(conj mu) per C / prod_{j,k} B_jk
#                = 2^(2 sum e + 2 sum f) v(a) v(conj b) per E / (prod W)^2,
#
# with V(x) = prod_{j<k} (x_j - x_k) and
# v(a) = prod_{j<k} (a_j 2^e_k - a_k 2^e_j).


def _gmul(a, b):
    """Product of two Gaussian integers with three real multiplications
    (Gauss's trick), which pays on integers of thousands of bits."""
    (ar, ai), (br, bi) = a, b
    k = br * (ar + ai)
    return k - ai * (br + bi), k + ar * (bi - br)


def _dyadic(c: complex) -> tuple[tuple[int, int], int]:
    """(g, e) with c = g / 2^e, g a Gaussian integer and e >= 0 least."""
    pr, qr = c.real.as_integer_ratio()
    pi, qi = c.imag.as_integer_ratio()
    er, ei = qr.bit_length() - 1, qi.bit_length() - 1
    e = max(er, ei)
    return (pr << (e - er), pi << (e - ei)), e


def _vandermonde_int(points) -> tuple[int, int]:
    """v(a) = prod_{j<k} (a_j 2^e_k - a_k 2^e_j) for dyadic (a_j, e_j)."""
    v = (1, 0)
    for j, ((ar, ai), e) in enumerate(points):
        for (br, bi), f in points[j + 1 :]:
            v = _gmul(v, ((ar << f) - (br << e), (ai << f) - (bi << e)))
    return v


def _glynn_sum(rows) -> tuple[int, int]:
    """2^(n-1) per E for a square matrix of Gaussian integers given as
    rows of (re, im) pairs: the exact form of permanent()'s loop."""
    n = len(rows)
    sr = [sum(row[k][0] for row in rows) for k in range(n)]
    si = [sum(row[k][1] for row in rows) for k in range(n)]
    twice = [([2 * x for x, _ in row], [2 * y for _, y in row]) for row in rows]
    flipped = [False] * n
    tr = ti = 0
    for step in range(1 << (n - 1)):
        if step:
            j = (step & -step).bit_length()  # the sign flipped at this step, 1..n-1
            dr, di = twice[j]
            if flipped[j]:
                sr = [s + d for s, d in zip(sr, dr)]
                si = [s + d for s, d in zip(si, di)]
            else:
                sr = [s - d for s, d in zip(sr, dr)]
                si = [s - d for s, d in zip(si, di)]
            flipped[j] = not flipped[j]
        pr, pi = sr[0], si[0]
        for xr, xi in zip(sr[1:], si[1:]):
            k = xr * (pr + pi)
            pr, pi = k - pi * (xr + xi), k + pr * (xi - xr)
        if step & 1:
            tr -= pr
            ti -= pi
        else:
            tr += pr
            ti += pi
    return tr, ti


def _cleared_permanent(lam, mu):
    """(a, b, per E, prod W) for a pair of float tuples: the dyadic
    coordinates, the permanent of the cleared rows E and the product of
    every W_jk, all exact."""
    a = [_dyadic(c) for c in _coords(lam)]
    b = [_dyadic(c) for c in _coords(mu)]
    n = len(a)
    if len(b) != n:
        raise ValueError("tuples must have the same dimension")
    rows = []
    prod_w = (1, 0)
    for (gr, gi), e in a:
        ws = []
        for (hr, hi), f in b:
            wr = (1 << (e + f)) - gr * hr - gi * hi
            wi = gr * hi - gi * hr
            if not (wr or wi):
                raise SingularEntry("some 1 - lambda_j*conj(mu_k) vanishes")
            ws.append((wr, wi))
        # E_jk = prod_{l != k} W_jl from prefix and suffix products
        prefix = [(1, 0)]
        for w in ws[:-1]:
            prefix.append(_gmul(prefix[-1], w))
        row = [None] * n
        suffix = (1, 0)
        for k in range(n - 1, -1, -1):
            row[k] = _gmul(prefix[k], suffix)
            suffix = _gmul(suffix, ws[k])
        rows.append(row)
        prod_w = _gmul(prod_w, suffix)  # suffix is now P_j
    per_r, per_i = _glynn_sum(rows)
    # Glynn's sum is 2^(n-1) per E, so these shifts are exact
    return a, b, (per_r >> (n - 1), per_i >> (n - 1)), prod_w


def permanent_exact(lam, mu) -> complex:
    """per C for the pair (lam, mu), C = 1/B, computed exactly at the
    given float coordinates and rounded once (int true division rounds
    correctly)."""
    a, b, per, (dr, di) = _cleared_permanent(lam, mu)
    # per E / prod W = per E conj(prod W) / |prod W|^2
    re, im = _gmul(per, (dr, -di))
    shift = sum(e for _, e in a) + sum(f for _, f in b)
    den = dr * dr + di * di
    return complex((re << shift) / den, (im << shift) / den)


def delta_exact(lam, mu) -> tuple[int, int, int]:
    """Determinant of the Cauchy-power matrix as an exact complex rational:
    ints (re, im, den) with det = (re + i im) / den and den > 0."""
    a, b, per, prod_w = _cleared_permanent(lam, mu)
    vr, vi = _vandermonde_int(b)
    v = _gmul(_vandermonde_int(a), (vr, -vi))  # v(conj b) = conj(v(b))
    x = _gmul(v, per)
    # x / d = x conj(d) / |d|^2 with d = (prod W)^2
    dr, di = _gmul(prod_w, prod_w)
    re, im = _gmul(x, (dr, -di))
    shift = 2 * (sum(e for _, e in a) + sum(f for _, f in b))
    return re << shift, im << shift, dr * dr + di * di


def delta_n(lam, mu) -> complex:
    """Determinant of the Cauchy-power matrix for the pair (lam, mu).

    Computed exactly over dyadic Gaussian integers (delta_exact); the
    returned complex is the correctly rounded value of the true
    determinant of the matrix formed at the given (float) coordinates,
    since int true division rounds correctly.
    """
    re, im, den = delta_exact(lam, mu)
    return complex(re / den, im / den)


def kernel_gn(lam, mu) -> KernelEval:
    """Kernel value at a pair of preimage tuples, in floats.

    value = per C / (pi^n * prod_{j,k} B_jk), valid at repeated
    coordinates too.  Swapping the arguments conjugates the value;
    permuting one tuple alone leaves it unchanged.
    """
    base = _base_matrix(lam, mu)
    c = 1.0 / base
    num, scale = permanent(np.stack([c, np.abs(c)], axis=-1))
    den = PI ** len(base) * np.prod(base)
    return KernelEval(
        value=complex(num / den),
        numerator=complex(num),
        denominator=complex(den),
        scale=float(scale.real),
    )


def kernel_gn_stable(
    s: SymPoint | Sequence[complex],
    t: SymPoint | Sequence[complex],
) -> KernelEval:
    """Kernel on the symmetrized domain, at symmetric coordinates.

    Preimage tuples are recovered by roots_from_sym (companion-matrix
    eigenvalues), one solve per argument; the same roots decide
    membership and are passed to kernel_gn.  The eigenvalues are
    backward stable, so at repeated preimage coordinates the value
    matches kernel_gn at the exact tuples to about 1e-12 relative.
    """
    preimages = []
    for name, point in (("first", s), ("second", t)):
        roots = roots_from_sym(point)
        if classify_roots(roots) != "inside":
            raise NotInDomain(f"{name} argument is not in the symmetrized polydisc")
        preimages.append(roots)
    return kernel_gn(*preimages)


# --- dimension-3 closed form -------------------------------------------------


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


def abc_coeffs(nu: Sequence[complex]) -> QuadraticData:
    """QuadraticData for a numeric nu triple."""
    n1, n2, n3 = (complex(v) for v in nu)
    a, b, c = quadratic_sym_coeffs(*elem_sym3(n1, n2, n3))
    return QuadraticData(nu=(n1, n2, n3), a=a, b=b, c=c)


def kernel_g3_mu3zero(lam, mu12) -> complex | np.ndarray:
    """Closed form of the dimension-3 kernel at mu = (mu_1, mu_2, 0).

    (a z^2 - b z + 2 c) / (pi^3 * prod_{j<=3,k<=2} (1 - lambda_j conj(mu_k))^2)
    with z = conj(mu_2)/conj(mu_1) and nu_j = lambda_j * conj(mu_1).
    The expression is smooth in lambda, so coincident lambda coordinates
    are harmless.  The coordinates run along the last axis: lam (..., 3)
    and mu12 (..., 2) give an array of shape (...), and one pair gives a
    complex.
    """
    lam = np.asarray(lam, dtype=complex)
    mu12 = np.asarray(mu12, dtype=complex)
    if np.any(mu12[..., 0] == 0):
        raise MuOneZero("mu_1 = 0: permute (mu_1, mu_2) or use kernel_gn_stable")
    mubar = np.conj(mu12)
    z = mubar[..., 1] / mubar[..., 0]
    nu = lam * mubar[..., :1]
    a, b, c = quadratic_sym_coeffs(*elem_sym3(nu[..., 0], nu[..., 1], nu[..., 2]))
    num = a * z * z - b * z + 2 * c
    den = PI**3 * np.prod((1.0 - lam[..., :, None] * mubar[..., None, :]) ** 2, axis=(-2, -1))
    return _complex_if_scalar(num / den)


def _complex_if_scalar(x):
    return complex(x) if np.ndim(x) == 0 else x


# --- bracket of the two-column reduction -------------------------------------


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


def _conv(p, q):
    out = [0j] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def bracket_coeffs_ABC(nu) -> tuple:
    """(A, B, C) from expanding the bracket as a cubic in z.

    A, B, C are the z^3 coefficient, (z^1 coefficient) - 2C, and
    -(z^0 coefficient)/2; each equals (nu_2 - nu_1) times the matching
    closed-form quadratic coefficient.  nu runs along the last axis: a
    (..., 3) array gives three arrays of shape (...), one triple gives
    three complex numbers.
    """
    n1, n2, n3 = np.moveaxis(np.asarray(nu, dtype=complex), -1, 0)
    # ascending z-coefficient lists of each factor
    term1 = _conv([-2, n2 + n3], [1, -2 * n1, n1 * n1])
    term1 = [c * (n1 + n3 - 2) * (1 - n2) ** 2 for c in term1]
    term2 = _conv([-2, n1 + n3], [1, -2 * n2, n2 * n2])
    term2 = [c * (n2 + n3 - 2) * (1 - n1) ** 2 for c in term2]
    coeffs = [a - b for a, b in zip(term1, term2)]
    c0, c1, _, c3 = coeffs
    big_a = c3
    big_c = -c0 / 2
    big_b = c1 + c0  # c1 = B + 2C and c0 = -2C
    return tuple(_complex_if_scalar(v) for v in (big_a, big_b, big_c))


# --- batch evaluation (complex128, for sampling and cross-checks) -----------


def batch_cauchy_power(lams: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """Stacked Cauchy-power matrices for (B, n) coordinate arrays."""
    return (1.0 - lams[:, :, None] * np.conj(mus[:, None, :])) ** -2


class _SlabBuffers:
    """np.empty for a stream of slabs of one n: the i-th request of each
    slab gets the same buffer (its leading part along the batch axis, the
    last, in a shorter slab), so the stream allocates its working set
    once.  Arrays allocated anew per slab go back to the system whenever
    malloc trims its heap, and fault their pages in again on the next
    slab: on a 2-vCPU x86 host a 1e5-pair diagonal n = 6 sample took
    23 000 page faults and 0.20-0.24 s that way, against 1 100 and
    0.15-0.18 s."""

    def __init__(self):
        self.buffers = []
        self.used = 0

    def next_slab(self) -> None:
        self.used = 0

    def __call__(self, shape, dtype) -> np.ndarray:
        i = self.used
        self.used += 1
        if i == len(self.buffers):
            self.buffers.append(None)
        buf = self.buffers[i]
        if buf is None or buf.shape[-1] < shape[-1]:
            buf = self.buffers[i] = np.empty(shape, dtype)
        return buf[..., : shape[-1]]


def _split(lams: np.ndarray, mus: np.ndarray):
    """Slabs (lams, mus) of _BATCH_CHUNK pairs of stacked (B, n) arrays."""
    for lo in range(0, len(lams), _BATCH_CHUNK):
        yield lams[lo : lo + _BATCH_CHUNK], mus[lo : lo + _BATCH_CHUNK]


def _slabs(pairs):
    """(lams, mus, c, scale, empty) for each slab (lams, mus) of `pairs`,
    stacked (b, n) coordinate arrays of one n: c[j, k, i] is
    1 / (1 - lambda_ij * conj(mu_ik)), kernel_gn's value per pair is
    per c / scale, and empty provides the slab's work arrays, the same
    for every slab (see _SlabBuffers).  A contiguous batch axis keeps the
    column products in permanent() about 3x faster."""
    empty = _SlabBuffers()
    for lams, mus in pairs:
        empty.next_slab()
        count, n = lams.shape
        lt = empty((n, count), complex)
        mt = empty((n, count), complex)
        np.copyto(lt, lams.T)
        np.conj(mus.T, out=mt)
        base = np.multiply(lt[:, None, :], mt[None, :, :], out=empty((n, n, count), complex))
        np.subtract(1.0, base, out=base)
        scale = PI**n * base.prod(axis=(0, 1))
        yield lams, mus, np.divide(1.0, base, out=base), scale, empty


def batch_kernel(lams: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """Kernel values for stacked (B, n) coordinate arrays, by the same
    permanent formula as kernel_gn, in slabs of _BATCH_CHUNK pairs."""
    values = [permanent(c, empty) / scale for _, _, c, scale, empty in _slabs(_split(lams, mus))]
    return np.concatenate(values) if values else np.empty(0, dtype=complex)


def kernel_ratio_slabs(pairs):
    """(lams, mus, values, ratios) for each slab (lams, mus) of `pairs`,
    stacked (b, n) coordinate arrays of one n: kernel_gn's value and
    |numerator| / scale = |per C| / per |C| per pair.  A caller that
    draws its pairs slab by slab streams them through here, and the work
    arrays are allocated once for all the slabs."""
    for lams, mus, c, scale, empty in _slabs(pairs):
        # per |C| from its own call on the real |c|: one call on the stack
        # of c and |c| would run in complex and hold both at once
        per = permanent(c, empty)
        ratios = np.abs(per) / permanent(np.abs(c, out=empty(c.shape, float)), empty)
        yield lams, mus, per / scale, ratios


# --- numeric cross-check suites ----------------------------------------------


def _disc_samples(rng, count, radius=0.9, min_gap=0.02, width=1):
    """count tuples of `width` disc points with pairwise separation.

    Each draw is count rows; rows with two points closer than min_gap
    are dropped, the rest fill the output in order until it is full.
    """
    out = np.empty((count, width), dtype=complex)
    j, k = np.triu_indices(width, 1)
    filled = 0
    while filled < count:
        draw = radius * np.sqrt(rng.random((count, width))) * np.exp(
            2j * np.pi * rng.random((count, width))
        )
        gaps = np.abs(draw[:, j] - draw[:, k]).min(axis=1, initial=np.inf)
        kept = draw[gaps >= min_gap][: count - filled]
        out[filled : filled + len(kept)] = kept
        filled += len(kept)
    return out


def _dim3_samples(samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (samples, 3) lambda and (samples, 2) mu arrays, with mu_1
    kept away from 0 so that z = conj(mu_2)/conj(mu_1) stays well defined."""
    rng = np.random.default_rng(seed)
    lams = _disc_samples(rng, samples, width=3)
    mus = _disc_samples(rng, samples, width=2)
    small = np.abs(mus[:, 0]) < 0.05
    mus[small, 0] += 0.3
    return lams, mus


def _with_mu3_zero(mus: np.ndarray) -> np.ndarray:
    return np.concatenate([mus, np.zeros((len(mus), 1))], axis=1)


def closed_form_comparison(samples: int = 1000, seed: int = 0) -> dict:
    """Compare the dimension-3 closed form against the permanent formula
    (batch_kernel) at seeded random in-domain points; returns the worst
    relative gap and the pair where it occurs."""
    lams, mus = _dim3_samples(samples, seed)
    direct = batch_kernel(lams, _with_mu3_zero(mus))
    closed = kernel_g3_mu3zero(lams, mus)
    rel = np.abs(direct - closed) / np.maximum(np.abs(direct), np.abs(closed))
    worst = float(rel.max(initial=0.0))
    argworst = None
    if worst:
        k = int(np.argmax(rel))
        argworst = (lams[k].tolist(), mus[k].tolist())
    return {"samples": samples, "max_rel_diff": worst, "argmax": argworst}


def _reduction_stages(lams: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """The six values of the two-column reduction at (S, 3) lambda and
    (S, 2) mu arrays, shape (6, S): pi^3 times the Vandermonde product
    times the kernel, the 3x3 determinant, the 2x2 determinant after
    subtracting the last row, the 2x2 determinant with its common factors
    pulled out, the bracket, and the factored cubic."""
    mus3 = _with_mu3_zero(mus)
    m1c = np.conj(mus[:, 0])
    z = np.conj(mus[:, 1]) / m1c
    nu = lams * m1c[:, None]
    zc = z[:, None]
    u = (1 - nu) ** -2.0
    v = (1 - zc * nu) ** -2.0
    stage_det3 = det_pivoted(np.stack([u, v, np.ones_like(u)], axis=-1))
    stage_det2 = det_pivoted(np.stack([u[:, :2] - u[:, 2:], v[:, :2] - v[:, 2:]], axis=-1))
    head, last = nu[:, :2], nu[:, 2:]
    pulled = np.stack(
        [
            (head + last - 2) / (1 - head) ** 2,
            (zc * head + zc * last - 2) / (1 - zc * head) ** 2,
        ],
        axis=-1,
    )
    pref = (nu[:, 0] - nu[:, 2]) * (nu[:, 1] - nu[:, 2]) * z
    stage_mid = pref / ((1 - nu[:, 2]) ** 2 * (1 - z * nu[:, 2]) ** 2) * det_pivoted(pulled)
    prod_all = np.prod((1 - lams[:, :, None] * np.conj(mus)[:, None, :]) ** 2, axis=(1, 2))
    stage_bracket = pref * bracket_expr(nu[:, 0], nu[:, 1], nu[:, 2], z) / prod_all
    big_a, big_b, big_c = bracket_coeffs_ABC(nu)
    stage_factored = pref * (z - 1) * (big_a * z * z - big_b * z + 2 * big_c) / prod_all
    vandermonde = np.ones(len(lams), dtype=complex)
    for j, k in ((0, 1), (0, 2), (1, 2)):
        vandermonde *= (lams[:, j] - lams[:, k]) * np.conj(mus3[:, j] - mus3[:, k])
    lhs = PI**3 * vandermonde * batch_kernel(lams, mus3)
    return np.stack([lhs, stage_det3, stage_det2, stage_mid, stage_bracket, stage_factored])


def reduction_chain_check(samples: int = 200, seed: int = 1) -> dict:
    """Numeric agreement of every stage of the two-column reduction of
    the dimension-3 determinant, from the raw 3x3 determinant down to the
    factored cubic, each stage evaluated over all samples at once;
    returns the worst relative gap across stages."""
    vals = _reduction_stages(*_dim3_samples(samples, seed))
    ref = np.abs(vals).max(axis=0)
    worst = (np.abs(vals[1:] - vals[0]) / ref).max(initial=0.0)
    return {"samples": samples, "max_rel_diff": float(worst)}
