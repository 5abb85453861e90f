"""Bergman kernel of the symmetrized polydisc.

In preimage coordinates the kernel is the determinant of the
Cauchy-power matrix with entries (1 - lambda_j * conj(mu_k))^(-2) over
pi^n times the paired Vandermonde product.  With B_jk = 1 - lambda_j *
conj(mu_k) and C = 1/B, Borchardt's identity det(C o C) = det C * per C
and Cauchy's determinant cancel the Vandermonde product:

    K = per C / (pi^n * prod_{j,k} B_jk),

which is smooth at coincident coordinates.  Every float evaluation goes
through this formula, with the permanent computed by Glynn's formula in
Gray-code order (permanent): a single pair or fiber walks every step at
once, as one cumsum over the updates gathered from one table, and the
batch slabs walk step by step; both make the same additions, so they give
the same bits.
At a certified zero the float per C is rounding noise, so the residual
of a certificate takes per C correctly rounded at the stored float
coordinates (permanent_exact).  They are dyadic Gaussian rationals, so
the rows of C scaled to fixed point and truncated give, through Glynn's
loop over Python ints, an enclosure of per C with a proved radius; when
both ends of the enclosure round to the same double, that is the value.
Otherwise the rows of C are cleared of their denominators, Glynn's loop
runs exactly and the value is rounded once, at the end.  That exact
sum times the Vandermonde products gives the exact Cauchy-power
determinant, det = V(lambda) V(conj mu) per C / prod B (delta_n), which
the tests compare against elimination.
Away from a zero the float per C suffices where its forward-error bound
(numerator_error, which kernel_gn_with_error returns with the value) is
small against |per C|, as at a slice witness.

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
point, which is what grid slices use, and fiber_log_kernel gives log |K|
and arg K there from the logs of the factors, where the float quotient
overflows.  fiber_minors takes a stack of
fibers, the lift's rungs, through one permanent call, and
fiber_zero_free proves from the same minors, by a Taylor bound with its
own rounding accounted for, that a fiber polynomial has no root in a
given disc.

det_pivoted takes one matrix or a stack of them; it serves the
dimension-3 reduction checks and the slice moment identity.  The batch
helpers, for sampling and the numeric cross-checks, work in ordinary
complex128.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import MuOneZero, NotInDomain, SingularEntry
from .symcore import _coords, _preimages, classify_roots

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
    """The quadratic a z^2 - b z + 2 c of the dimension-3 closed form."""

    a: complex
    b: complex
    c: complex


def _base_matrix(lam, mu) -> np.ndarray:
    """Matrix B with entries 1 - lambda_j * conj(mu_k) of two points,
    each validated by _coords; none may vanish."""
    return _base(_coords(lam), _coords(mu))


def _base(a: tuple[complex, ...], b: tuple[complex, ...]) -> np.ndarray:
    """_base_matrix of two tuples of complex coordinates already known
    finite, with conj(mu) taken in Python (it is exact either way) so that
    both rows go into one array.  Every entry is tested at once: B.all()
    without the method's Python wrapper."""
    if len(a) != len(b):
        raise ValueError("tuples must have the same dimension")
    a, bbar = np.array((a, [z.conjugate() for z in b]), dtype=complex)
    base = 1.0 - np.multiply.outer(a, bbar)
    if not np.logical_and.reduce(base, axis=None):
        raise SingularEntry("some 1 - lambda_j*conj(mu_k) vanishes")
    return base


# the widest stack, in positions c[0].size, that permanent() walks stacked.
# Per call on a 2-vCPU x86 host (numpy 2.4), stacked against stepwise, the
# two ways cost the same between 255 and 384 positions at n = 5 and 6 and
# between 384 and 512 at n = 7 and 8: 252-256 positions take 0.59-0.98x the
# stepwise time stacked and 378-384 take 0.68-1.22x, but 510-512 take
# 1.15-2.6x, where the gathered steps and their column-first copy outgrow
# the caches.  Few stacks fall between 128 and that crossover: one fiber's
# minors, with m^2 - m positions, at m = 12..20, and a batch's last slab of
# fewer than 384 / n pairs.  The benchmark times neither (its grids are at
# n = 3 and 7, its samples end on slabs of 672 pairs), and either walk
# gives the same bits, so the limit stays at 128
_STACKED_POSITIONS = 128
# steps per block of the stacked walk: bounds its gathered array to 8 MiB
# at 128 complex positions, whatever n is
_WALK_STEPS = 4096


def permanent(c: np.ndarray, empty=np.empty) -> np.ndarray:
    """Permanents of c over its first two axes, shape (n, n, *batch).

    Glynn's formula per c = 2^(1-n) sum_d (prod_j d_j) prod_k sum_j d_j c_jk
    over sign vectors d with d_0 = +1, visited in Gray-code order: each
    step flips one sign, which updates the column sums in O(n) and
    alternates the sign of prod_j d_j.  The walk is taken one of two ways,
    chosen by the shape of c alone, by its positions c[0].size = n * batch:

    * stacked, for at most _STACKED_POSITIONS positions (a single pair, a
      single fiber's minors, a short last slab): one table holds the rows
      2c, -2c and the column sums; one gather of its rows in step order
      (the column sums first, then each step's update +-2 c_j), one
      in-place cumsum and one column product give every step at once.
      The gathered array holds 2^(n-1) x positions values (16 B each when
      complex), in blocks of at most _WALK_STEPS steps.
    * stepwise, for wider stacks (the batch slabs, the lift's rung stack):
      one in-place update and one column product per step, in Python.

    Both make the same additions in the same order, so they give the same
    bits: cumsum adds sequentially along its axis, and a subtracting step
    adds np.negative(2 c_j), which is s - 2 c_j bit for bit, zero signs
    included (a product by -2.0 need not be).  Per call on a 2-vCPU x86
    host (numpy 2.4, the least of 7 repeats in two runs), stacked against
    stepwise: one [C, |C|] pair (2n positions) takes 15 against 15-16 us
    at n = 3, 16-17 against 37-39 us at n = 5, 23-24 against 124-132 us
    at n = 7 and 0.10 against 1.00-1.04 ms at n = 10; with two steps, at
    n = 2, stepwise is faster (12 against 15 us).  A cumsum along the
    first axis is slow over many positions: a 24-rung stack of n = 7
    minors (1008 positions) takes 640 against 117-120 us and a 1024-pair
    slab at n = 6 4.9-5.1 against 0.37-0.39 ms.  See
    _STACKED_POSITIONS for the crossover.  `empty(shape, dtype)` provides
    the work arrays (the batch evaluators pass a _SlabBuffers).  A
    strided c is copied to a contiguous one first: numpy's reductions may
    round in another order on a strided array, and the bits of the result
    should depend on the values of c alone.  The reductions call
    np.add.reduce, np.multiply.reduce and ndarray.cumsum directly:
    ndarray.sum and .prod, np.cumsum and np.prod reach the same ufunc
    reductions, with the same bits, through numpy's Python-level
    wrappers, which add 0.2-2.4 us per call to a single pair's evaluation
    of 30-50 us at n <= 7.
    """
    c = np.ascontiguousarray(c)
    n = c.shape[0]
    prods = empty((2 ** (n - 1), *c.shape[2:]), c.dtype)
    if c[0].size <= _STACKED_POSITIONS:
        _stacked_walk(c, prods, empty)
    else:
        twice = np.multiply(c, 2.0, out=empty(c.shape, c.dtype))
        _stepwise_walk(twice, np.add.reduce(c, axis=0, out=empty(c.shape[1:], c.dtype)), prods)
    return (np.add.reduce(prods[0::2], axis=0) - np.add.reduce(prods[1::2], axis=0)) / 2 ** (n - 1)


@functools.cache
def _gray_schedule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, negate, updates), read-only int arrays over the 2^(n-1) steps
    of Glynn's Gray walk: step t >= 1 flips the sign of row rows[t], which
    takes 2 c_j off the column sums when negate[t] is 1 and adds it back
    when it is 0; updates[t] = rows[t] + n negate[t] is that update's row
    in the table (2c, -2c, column sums) of the stacked walk.  Step 0 reads
    the column sums themselves: rows[0] and negate[0] are 0, updates[0]
    is 2n."""
    rows = np.zeros(2 ** (n - 1), dtype=np.intp)
    negate = np.zeros(2 ** (n - 1), dtype=np.intp)
    flipped = [False] * n
    for step in range(1, 2 ** (n - 1)):
        j = (step & -step).bit_length()
        rows[step], negate[step] = j, not flipped[j]
        flipped[j] = not flipped[j]
    updates = rows + n * negate
    updates[0] = 2 * n
    for a in (rows, negate, updates):
        a.flags.writeable = False
    return rows, negate, updates


def _stepwise_walk(twice, sums, prods) -> None:
    """Fill prods[t] with the column product after step t, one step at a
    time, updating sums in place."""
    rows, negate, _ = _gray_schedule(len(twice))
    np.multiply.reduce(sums, axis=0, out=prods[0, ...])
    for step, j, sub in zip(range(1, len(prods)), rows[1:].tolist(), negate[1:].tolist()):
        if sub:
            sums -= twice[j]
        else:
            sums += twice[j]
        np.multiply.reduce(sums, axis=0, out=prods[step, ...])


def _stacked_walk(c, prods, empty) -> None:
    """Fill prods as _stepwise_walk does, from cumsums over the table
    (2c, -2c, column sums) gathered in step order, _WALK_STEPS steps at a
    time; each later block starts from the running sums of the one before.

    The column product runs over a column-first copy of the running sums,
    so that numpy multiplies whole contiguous rows of steps x positions,
    n - 1 calls of its inner loop, instead of one short run of positions
    per step and column, with the same products in the same order: the
    permanent of a pair at n = 7 takes 24 against 33 us, at n = 10 0.10
    against 0.20 ms.  A stack of one position keeps the step-first
    product: numpy reduces a lone column of n values in its reduction
    loop, whose complex product can round differently from the elementwise
    loop (it does on AVX-512 hosts), and _stepwise_walk reduces such a
    stack there too."""
    n = len(c)
    *_, updates = _gray_schedule(n)
    table = empty((2 * n + 1, *c.shape[1:]), c.dtype)
    np.multiply(c, 2.0, out=table[:n])
    np.negative(table[:n], out=table[n : 2 * n])
    np.add.reduce(c, axis=0, out=table[2 * n])
    one_position = c[0].size == n
    for lo in range(0, len(prods), _WALK_STEPS):
        block = slice(lo, lo + _WALK_STEPS)
        steps = table.take(updates[block], axis=0)
        if lo:
            np.add(sums, steps[0], out=steps[0])
        steps.cumsum(axis=0, out=steps)
        if one_position:
            np.multiply.reduce(steps, axis=1, out=prods[block])
        else:
            np.multiply.reduce(steps.swapaxes(0, 1).copy(), axis=0, out=prods[block])
        sums = steps[-1]


def fiber_minors(rests, mus) -> tuple[np.ndarray, np.ndarray]:
    """(pers, base) for a stack of F fibers (rests[f]; mus[f]), arrays of
    shape (F, m - 1) and (F, m): pers[f, k] is the permanent of R_f without
    column k, where R_f holds the rows 1 / (1 - lambda_j conj(mu_k)) of
    rests[f] = lambda_2..lambda_m, and base[f] is the (m - 1, m) matrix of
    those 1 - lambda_j conj(mu_k).  All F m minors go through one permanent
    call, stacked on its batch axis; every element sees the same arithmetic
    as in a call with F = 1, so a fiber's minors do not depend on the others
    in the stack."""
    rests = np.asarray(rests, dtype=complex)
    mubar = np.conj(np.asarray(mus, dtype=complex))
    count, m = mubar.shape
    if m < 2 or rests.shape != (count, m - 1):
        raise ValueError("need m >= 2 mu coordinates and m - 1 rest coordinates per fiber")
    base = 1.0 - rests[:, :, None] * mubar[:, None, :]
    if np.any(base == 0):
        raise SingularEntry("some 1 - lambda_j*conj(mu_k) vanishes")
    c = 1.0 / base
    # cols[k] lists every column but k; minors[i, j, f * m + k] = c[f, i, cols[k, j]]
    cols = np.array([[j for j in range(m) if j != k] for k in range(m)])
    minors = c[:, :, cols].transpose(1, 3, 0, 2).reshape(m - 1, m - 1, count * m)
    return permanent(minors).reshape(count, m), base


def fiber_coefficients(pers, mu) -> np.ndarray:
    """Coefficients, highest degree first (as symcore.companion_roots
    takes them), of the fiber polynomial

        q(x) = sum_k pers[k] prod_{l != k} (1 - x conj(mu_l))

    for the minor permanents pers of one fiber (a row of fiber_minors).
    per C is linear in the first row, so q(x) is
    per C((x, *rest); mu) * prod_k (1 - x conj(mu_k)): a polynomial of
    degree at most m - 1 whose roots in the unit disc are the first
    coordinates that make the kernel vanish on the fiber.
    """
    factors = [np.array([-b, 1.0]) for b in np.conj(np.asarray(mu, dtype=complex))]
    m = len(factors)
    # prod_{l != k} (1 - x conj(mu_l)) from prefix and suffix products
    prefix = [np.ones(1, dtype=complex)]
    for f in factors[:-1]:
        prefix.append(np.convolve(prefix[-1], f))
    q = np.zeros(m, dtype=complex)
    suffix = np.ones(1, dtype=complex)
    for k in range(m - 1, -1, -1):
        q += pers[k] * np.convolve(prefix[k], suffix)
        suffix = np.convolve(suffix, factors[k])
    return q


def fiber_zero_free(pers, mus, center, radius) -> np.ndarray:
    """For a stack of F fibers, whether the fiber polynomial of each
    provably has no root in the closed disc |x - center| <= radius: a bool
    array of shape (F,).  pers (F, m) holds the fibers' minor permanents
    (fiber_minors) and mus (F, m) their mu coordinates; the statement is
    about the polynomial these exact floats define (fiber_coefficients),
    whatever the rounding of the test's own arithmetic.

    The bound.  Along a fiber, with mubar_k = conj(mu_k), per C is
    f(x) = sum_k pers_k / (1 - x mubar_k) and q(x) = f(x) prod_k (1 - x mubar_k)
    (fiber_coefficients).  Write
    x = c + w with |w| <= rho and B_k = 1 - c mubar_k.  On the disc
    |1 - x mubar_k| = |B_k - w mubar_k| >= |B_k| - rho |mu_k|, so where that
    is positive for every k no factor of the product vanishes, f is
    analytic on the disc, and f and q have the same roots there.  The
    geometric series 1 / (B_k - w mubar_k) = sum_j (w mubar_k)^j / B_k^(j+1)
    gives

        f(c + w) = f(c) + w f'(c) + R,
        f(c) = sum_k pers_k / B_k,    f'(c) = sum_k pers_k mubar_k / B_k^2,
        R = sum_k pers_k (w mubar_k)^2 / (B_k^2 (B_k - w mubar_k)),
        |R| <= rho^2 sum_k |pers_k| |mu_k|^2 / (|B_k|^2 (|B_k| - rho |mu_k|)),

    so |f(c)| > rho |f'(c)| + (the bound on |R|) shows that f, and with it
    q, has no root in the disc.  At the lift's rungs (lift_zero) rho is at
    most 0.8 (1 - |c|), so |c| + rho < 1, and with |mu_k| < 1,
    |B_k| - rho |mu_k| >= 1 - (|c| + rho) |mu_k| is positive.

    The rounding.  With u = 2^-53 the float B^_k = fl(1 - c mubar_k) is
    within d_k = 3u |c| |mu_k| + 2u |B^_k| of B_k (a complex product, then a
    subtraction).  The test takes g_k = |B^_k| - rho |mu_k| - s_k with
    s_k = u (3 |c| |mu_k| + 4 |B^_k| + 4 rho |mu_k|), which is d_k plus the
    rounding of this difference, and requires every g_k > 0.  Then both
    |B_k - w mubar_k| and |B^_k - w mubar_k| are at least g_k on the disc,
    so f^, f with B^ in place of B, is within
    M = sum_k |pers_k| s_k / g_k^2 of f there, and the expansion above,
    applied to f^, bounds its remainder by
    T = rho^2 sum_k |pers_k| |mu_k|^2 / (|B^_k|^2 g_k).  Each term of the float
    f^(c) and f^'(c) takes at most three complex operations, each within
    12u relatively (a quotient, by Smith's algorithm, is the worst), and
    the m terms sum with an error of at most (m - 1) u times the sum of
    their moduli, S_0 = sum_k |pers_k| / |B^_k| and
    S_1 = sum_k |pers_k| |mu_k| / |B^_k|^2.  The real sums S_0, S_1, T and M
    take a few operations per term on positive values.  So with
    gamma = k u / (1 - k u), k = 2 m + 64,

        |f^(c)| > rho |f^'(c)| + T + M + gamma (S_0 + rho S_1 + T + M)

    in floats implies |f(c + w)| > 0 for every |w| <= rho in exact
    arithmetic: the gamma term covers the errors of f^(c), rho f^'(c) and
    of every real quantity in the comparison.  The bound assumes that no
    intermediate result underflows.  A zero, infinite or NaN quantity
    fails the comparison, so the test then clears nothing.
    """
    pers = np.asarray(pers, dtype=complex)
    mubar = np.conj(np.asarray(mus, dtype=complex))
    u = 2.0**-53
    k = 2 * mubar.shape[-1] + 64
    gamma = k * u / (1 - k * u)
    with np.errstate(all="ignore"):
        base = 1.0 - center * mubar
        size, mod, per_mod = np.abs(mubar), np.abs(base), np.abs(pers)
        slack = u * (3 * abs(center) * size + 4 * mod + 4 * radius * size)
        gap = mod - radius * size - slack
        terms = pers / base
        value = terms.sum(axis=-1)
        slope = (terms * (mubar / base)).sum(axis=-1)
        tail = radius**2 * (per_mod * size**2 / (mod**2 * gap)).sum(axis=-1)
        moved = (per_mod * slack / gap**2).sum(axis=-1)
        moduli = (per_mod / mod * (1 + radius * size / mod)).sum(axis=-1)
        rounding = moved + gamma * (moduli + tail + moved)
        return (gap > 0).all(axis=-1) & (np.abs(value) > radius * np.abs(slope) + tail + rounding)


def fiber_kernel(x, rest, mu) -> np.ndarray:
    """Kernel values K((x, *rest), mu) for an array x of first coordinates.

    The expansion of per C along its first row gives
    per C = sum_k per(R without column k) / (1 - x conj(mu_k)), with the
    minor permanents of fiber_minors computed once for the fiber; the
    denominator is pi^m prod_{j>=2,k} B_jk prod_k (1 - x conj(mu_k)).  So
    each x costs O(m), against the m 2^(m-1) of a full permanent, and the
    value is kernel_gn's at every x with no zero 1 - x conj(mu_k).
    """
    pers, base = fiber_minors([rest], [mu])
    mubar = np.conj(np.asarray(mu, dtype=complex))
    x = np.asarray(x, dtype=complex)
    per = np.zeros_like(x)
    row = np.ones_like(x)
    for minor, b in zip(pers[0], mubar):
        first = 1.0 - x * b
        per += minor / first
        row *= first
    return per / (PI ** len(mubar) * np.prod(base[0]) * row)


def fiber_log_kernel(x, rest, mu) -> tuple[np.ndarray, np.ndarray]:
    """(log |K|, arg K) at the points of fiber_kernel, from the log moduli
    and the arguments of per C and of each factor of its denominator, pi^m,
    every B_jk with j >= 2 and every 1 - x conj(mu_k): where the product
    underflows to 0 (n >= 13 at the default chain's nodes) or the quotient
    overflows (n >= 12), these stay finite.  per C is fiber_kernel's, bit
    for bit; arg K is wrapped to (-pi, pi]."""
    pers, base = fiber_minors([rest], [mu])
    mubar = np.conj(np.asarray(mu, dtype=complex))
    x = np.asarray(x, dtype=complex)
    per = np.zeros_like(x)
    log_abs = np.full(x.shape, -len(mubar) * math.log(PI) - np.log(np.abs(base[0])).sum())
    arg = np.full(x.shape, -np.angle(base[0]).sum())
    for minor, b in zip(pers[0], mubar):
        first = 1.0 - x * b
        per += minor / first
        log_abs -= np.log(np.abs(first))
        arg -= np.angle(first)
    log_abs += np.log(np.abs(per))
    arg += np.angle(per)
    # into (-pi, pi]: the remainder lies in [0, 2 pi)
    return log_abs, PI - np.remainder(PI - arg, 2 * PI)


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

# bits per row of the fixed-point enclosure that permanent_exact tries
# before the exact sum.  At a certified zero per C cancels to about 1e-16
# of per |C|, so the enclosure needs far more than 53 bits: the least that
# decides was 109-126 over the 981 nodes of the default chain to n = 12,
# the chains to n = 7 at both edges of the benchmark's (rho, mu_1) band
# and at 64 draws from it for each of the seeds 1-3 (126 at the worst).
# 144 leaves 18 bits of margin and costs what 128 does at n = 5..10.  The
# zeros of schema-1 files were polished exactly and cancel further: three
# nodes of tests/data/chain7_v1.json need 149-171 bits and fall back.
_FIXED_BITS = 144


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
    rows of (re, im) pairs: the exact form of permanent()'s walk, on the
    same _gray_schedule."""
    n = len(rows)
    sr = [sum(row[k][0] for row in rows) for k in range(n)]
    si = [sum(row[k][1] for row in rows) for k in range(n)]
    twice = [([2 * x for x, _ in row], [2 * y for _, y in row]) for row in rows]
    flips, negate, _ = _gray_schedule(n)
    tr = ti = 0
    for step, j, sub in zip(range(1 << (n - 1)), flips.tolist(), negate.tolist()):
        if step:
            dr, di = twice[j]
            if sub:
                sr = [s - d for s, d in zip(sr, dr)]
                si = [s - d for s, d in zip(si, di)]
            else:
                sr = [s + d for s, d in zip(sr, dr)]
                si = [s + d for s, d in zip(si, di)]
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


def _cleared_rows(lam, mu):
    """(a, b, rows) for a pair of float tuples: the dyadic coordinates and
    the Gaussian integers W_jk, row by row."""
    a = [_dyadic(c) for c in _coords(lam)]
    b = [_dyadic(c) for c in _coords(mu)]
    if len(b) != len(a):
        raise ValueError("tuples must have the same dimension")
    rows = []
    for (gr, gi), e in a:
        ws = []
        for (hr, hi), f in b:
            wr = (1 << (e + f)) - gr * hr - gi * hi
            wi = gr * hi - gi * hr
            if not (wr or wi):
                raise SingularEntry("some 1 - lambda_j*conj(mu_k) vanishes")
            ws.append((wr, wi))
        rows.append(ws)
    return a, b, rows


def _cleared_permanent(lam, mu):
    """(a, b, per E, prod W) for a pair of float tuples: the dyadic
    coordinates, the permanent of the cleared rows E and the product of
    every W_jk, all exact."""
    a, b, w_rows = _cleared_rows(lam, mu)
    n = len(a)
    rows = []
    prod_w = (1, 0)
    for ws in w_rows:
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


def _floor_scaled(x: int, s: int, d: int) -> int:
    """floor(x 2^s / d) for d > 0."""
    return (x << s) // d if s >= 0 else x // (d << -s)


def _fixed_enclosure(lam, mu, bits: int = _FIXED_BITS):
    """((re, im), (radius_re, radius_im), shift): each part of 2^shift
    per C lies within its radius of the matching part of the Gaussian
    integer re + i im.

    Row j of C is scaled by 2^p_j, p_j chosen so that the row's largest
    |C_jk| times 2^p_j lies in (2^(bits-1), 2^bits], and truncated: from
    C_jk = 2^(e_j + f_k) conj(W_jk) / |W_jk|^2, each part of
    X_jk = floor(2^p_j C_jk) is one integer division.  So
    2^p_j C = X + D with both parts of every D_jk in [0, 1), and
    per(2^p C) = 2^shift per C, shift = sum_j p_j, since the permanent is
    linear in each row.  Glynn's sum over X is exact, 2^(n-1) per X.

    The error: per is multilinear in the rows, so per(X + D) - per X is
    the sum, over the nonempty sets S of rows, of the permanents taking
    the rows in S from D and the others from X.  |per Y| is at most the
    product of the row sums sum_k |Y_jk|, |X_jk| <= |Re X_jk| + |Im X_jk|
    and |D_jk| < 2, so with R_j = sum_k (|Re X_jk| + |Im X_jk|) the sum
    is at most sum_S prod_{j in S} 2n prod_{j not in S} R_j
    = prod_j (R_j + 2n) - prod_j R_j, the radius.  It bounds the
    modulus, hence each part.  When every W_jk is real (as at real
    coordinates), so are C, X and D: the imaginary part of per C is then
    exactly 0 = im, and its radius is 0.
    """
    a, b, w_rows = _cleared_rows(lam, mu)
    n = len(a)
    rows, shift, sums, padded = [], 0, 1, 1
    for (_, e), ws in zip(a, w_rows):
        norms = [wr * wr + wi * wi for wr, wi in ws]
        # |C_jk| = 2^(e + f_k) / |W_jk| lies in (2^(t - 1), 2^t] with
        # t = e + f_k - (bit length of |W_jk|^2 - 1) // 2
        p = bits - max(e + f - (w2.bit_length() - 1) // 2 for (_, f), w2 in zip(b, norms))
        row = [
            (_floor_scaled(wr, p + e + f, w2), _floor_scaled(-wi, p + e + f, w2))
            for (wr, wi), w2, (_, f) in zip(ws, norms, b)
        ]
        r = sum(abs(xr) + abs(xi) for xr, xi in row)
        sums *= r
        padded *= r + 2 * n
        rows.append(row)
        shift += p
    per_r, per_i = _glynn_sum(rows)
    real = not any(wi for ws in w_rows for _, wi in ws)
    radius = padded - sums
    return (per_r >> (n - 1), per_i >> (n - 1)), (radius, 0 if real else radius), shift


def _scaled_float(x: int, s: int) -> float:
    """x / 2^s correctly rounded."""
    return x / (1 << s) if s >= 0 else float(x << -s)


def _rounded(per, radii, shift: int) -> complex | None:
    """The correctly rounded per C from a _fixed_enclosure, or None when
    the enclosure does not decide it: both ends of each part must round
    to the same double, the sign of a zero included (int true division
    gives -0.0 only below zero).  Rounding is monotone, so every value
    between the ends then rounds to it too."""
    parts = []
    for x, radius in zip(per, radii):
        lo, hi = _scaled_float(x - radius, shift), _scaled_float(x + radius, shift)
        if lo != hi or math.copysign(1.0, lo) != math.copysign(1.0, hi):
            return None
        parts.append(lo)
    return complex(*parts)


def permanent_exact(lam, mu) -> complex:
    """per C for the pair (lam, mu), C = 1/B, exact at the given float
    coordinates and rounded once, per part.

    A fixed-point enclosure with _FIXED_BITS bits per row
    (_fixed_enclosure) decides the rounding in almost every case, as in
    Ziv's strategy for correctly rounded functions: its Glynn sum runs
    over ints of about _FIXED_BITS bits, against (n - 1) 107 bits per
    entry of the exact cleared rows.  Where every 1 - lambda_j conj(mu_k)
    is real, as at real coordinates, the imaginary part is exactly +0.0 and
    only the real part needs deciding.  Only an enclosure whose ends round
    to different doubles (a part within the enclosure's width of a
    rounding boundary) takes the exact sum (_cleared_permanent), where int
    true division rounds correctly.  Both give the same float, zero signs
    included.
    """
    value = _rounded(*_fixed_enclosure(lam, mu))
    return _exact_rounded(lam, mu) if value is None else value


def _exact_rounded(lam, mu) -> complex:
    """per C from the exact sum over the cleared rows, rounded once: the
    reference permanent_exact falls back to."""
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
    return _evaluate(_base_matrix(lam, mu))[0]


def _evaluate(base) -> tuple[KernelEval, np.ndarray]:
    """kernel_gn's evaluation for the matrix B, and the |C| it summed.

    C and |C| go through one permanent call, as the two halves of a
    preallocated (n, n, 2) stack.  Both are computed contiguous and then
    copied into it: np.abs from one strided half of the stack into the
    other, through out=, takes another loop than on contiguous arrays,
    and it changed the last bit of |C|, and so of scale, in most of 4000
    seeded draws.
    """
    n = len(base)
    c = 1.0 / base
    size = np.abs(c)
    pair = np.empty((n, n, 2), complex)
    pair[..., 0] = c
    pair[..., 1] = size
    num, scale = permanent(pair)
    den = PI**n * np.multiply.reduce(base, axis=None)
    ev = KernelEval(
        value=complex(num / den),
        numerator=complex(num),
        denominator=complex(den),
        scale=float(scale.real),
    )
    return ev, size


def kernel_gn_with_error(lam, mu) -> tuple[KernelEval, float]:
    """(kernel_gn(lam, mu), numerator_error of its numerator), from one
    construction of C."""
    ev, size = _evaluate(_base_matrix(lam, mu))
    return ev, numerator_error(size, ev.scale)


def numerator_error(size: np.ndarray, scale: float) -> float:
    """Bound on |kernel_gn(lam, mu).numerator - per C|, with per C exact at
    the given float coordinates, size the float |C| and scale the float
    per |C| of that evaluation (kernel_gn_with_error).

    A complex sum rounds with relative error at most u = 2^-53, a product
    with at most 3u, and the reciprocal 1/B (Smith's algorithm) with at
    most 6u.  Two sources add up; Higham's gamma_k = k u / (1 - k u) in
    place of k u absorbs the higher orders:

    * Glynn's sum.  With S_k = sum_j |C_jk|, every running column sum of
      the Gray walk in permanent() is at most S_k in modulus, and it is off
      by at most (n - 1 + t) u S_k after the column sum and t steps,
      t < T = 2^(n-1), in the stacked and the stepwise walk alike: both
      make the same additions in the same order.  So each of the T terms,
      a product of n such sums, is off by at most
      (n (n + T - 2) + 3 (n - 1)) u prod S_k; the terms sum, in any order,
      with error at most (T / 2 + 1) u T prod S_k; and the division by T
      is exact.  The error is at most gamma_k prod S_k with
      k = (n + 1) T + n (n + 3), and n (n + 1) more cover the rounding of
      prod S_k itself.
    * The entries.  B_jk = 1 - lambda_j conj(mu_k) rounds to within
      3u + u |B_jk|, so the float C_jk is within e_jk = g / (1 - g),
      g = 3u |C_jk| + 7u, of the exact 1 / B_jk, relatively.  per is linear
      in each row, so this moves it by at most
      per |C| (prod_j (1 + max_k e_jk) - 1), and per |C| is at most scale
      plus the Glynn bound.

    The first term dominates: divided by per |C| it is 2e-9 at the n = 7
    node of the default chain and 6e-4 at n = 12.
    """
    n = len(size)
    u = 2.0**-53
    k = (n + 1) * 2 ** (n - 1) + 2 * n * (n + 2)
    glynn = k * u / (1 - k * u) * float(np.prod(size.sum(axis=0)))
    g = 3 * u * size.max(axis=1) + 7 * u
    entries = math.expm1(float(np.log1p(g / (1 - g)).sum()))
    return glynn + entries * (scale + glynn)


def kernel_gn_stable(
    s: Sequence[complex],
    t: Sequence[complex],
) -> KernelEval:
    """Kernel on the symmetrized domain, at symmetric coordinates.

    Both preimage tuples are recovered by one companion solve
    (symcore._preimages, which roots_from_sym also uses): both arguments
    are read, then solved together, with one eigenvalue call for both
    when they have the same degree.  The first argument is classified,
    then the second, and the same roots go to kernel_gn's evaluation
    (_base, then _evaluate): roots that classify as inside are finite, so
    they are not checked again.  The eigenvalues are backward stable, so at repeated
    preimage coordinates the value matches kernel_gn at the exact tuples
    to about 1e-12 relative.
    """
    preimages = _preimages((s, t))
    for name, roots in zip(("first", "second"), preimages):
        if classify_roots(roots) != "inside":
            raise NotInDomain(f"{name} argument is not in the symmetrized polydisc")
    return _evaluate(_base(*preimages))[0]


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
    return QuadraticData(a=a, b=b, c=c)


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


def bracket_coeffs_ABC(nu) -> tuple:
    """(A, B, C) of the bracket as a cubic in z, from its coefficient
    displays (bracket_raw_displays, which exactfield proves equal to the
    expansion): A is the z^3 coefficient, the z^0 coefficient is -2C and
    the z^1 coefficient is B + 2C.  Each equals (nu_2 - nu_1) times the
    matching closed-form quadratic coefficient.  nu runs along the last
    axis: a (..., 3) array gives three arrays of shape (...), one triple
    gives three complex numbers.
    """
    n1, n2, n3 = np.moveaxis(np.asarray(nu, dtype=complex), -1, 0)
    big_a, minus_two_c, b_plus_two_c = bracket_raw_displays(n1, n2, n3)
    big_b = b_plus_two_c + minus_two_c
    big_c = -minus_two_c / 2
    return tuple(_complex_if_scalar(v) for v in (big_a, big_b, big_c))


# --- batch evaluation (complex128, for sampling and cross-checks) -----------


def batch_cauchy_power(lams: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """Stacked Cauchy-power matrices for (B, n) coordinate arrays."""
    return (1.0 - lams[:, :, None] * np.conj(mus[:, None, :])) ** -2


class _SlabBuffers:
    """np.empty for a stream of slabs of one n: the i-th request of each
    slab gets the same flat buffer, its leading segment reshaped (a new
    one when the buffer is too small or of another dtype), so the
    stream allocates its working set once and every array it hands out is
    C-contiguous (a shorter last slab gets no strided view, which
    permanent() would copy).  Arrays allocated anew per slab go back to
    the system whenever malloc trims its heap, and fault their pages in
    again on the next slab: on a 2-vCPU x86 host a 1e5-pair diagonal n = 6
    sample took 23 000 page faults and 0.20-0.24 s that way, against 1 100
    and 0.15-0.18 s."""

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
        size = math.prod(shape)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self.buffers[i] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


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

    Each round draws count rows, the radial block and then the angular
    block, so the seeded stream does not depend on how many rows are
    kept.  Rows with two points closer than min_gap are dropped, the rest
    fill the output in order until it is full.  Rows become points in
    order and only as far as needed: first the rows still missing, then
    as many more as the gap test dropped.  So np.exp runs on
    width * (count + dropped rows) points in all; the point of a row
    does not depend on the rows beside it, so the output is the one the
    whole rounds would give.
    """
    out = np.empty((count, width), dtype=complex)
    j, k = np.triu_indices(width, 1)
    filled = 0
    while filled < count:
        radial = radius * np.sqrt(rng.random((count, width)))
        angular = rng.random((count, width))
        start = 0
        while filled < count and start < count:
            stop = start + count - filled  # past count, the slices end at count
            draw = radial[start:stop] * np.exp(2j * np.pi * angular[start:stop])
            gaps = np.abs(draw[:, j] - draw[:, k]).min(axis=1, initial=np.inf)
            kept = draw[gaps >= min_gap]
            out[filled : filled + len(kept)] = kept
            filled += len(kept)
            start = stop
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
    relative gap."""
    lams, mus = _dim3_samples(samples, seed)
    direct = batch_kernel(lams, _with_mu3_zero(mus))
    closed = kernel_g3_mu3zero(lams, mus)
    rel = np.abs(direct - closed) / np.maximum(np.abs(direct), np.abs(closed))
    return {"samples": samples, "max_rel_diff": float(rel.max(initial=0.0))}


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
