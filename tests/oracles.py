"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: elementary symmetric
values come from explicit subset enumeration, the kernel at distinct
coordinates comes from the determinant by exact Bareiss elimination
over the Vandermonde product rather than from the permanent formula,
and the kernel at coincident coordinates from Richardson extrapolation
of that route.
The exact determinant itself is checked against pivoted elimination
over Fractions and against Bareiss elimination over dyadic Gaussian
integers (the route it replaced), and the stacked dimension-3
cross-checks against their per-sample loops.
The packed exact ring of exactfield is checked against a tuple-keyed
ring with int-or-Fraction coefficients that reduces every term pair
(the representation it replaced), and its integer sign decision against
the same interval refinement over Fractions.
The single-pair float kernel and its symmetric-coordinate entry point
are checked bit for bit against the route they replaced: C and |C|
joined by np.stack, reductions through the ndarray methods, and one
np.roots call per argument.  The exact layer of permanent_exact is
checked integer for integer against the route it replaced: rows built
entry by entry through _floor_scaled, and a Gray walk with a parity test
and a sliced column product per step.
"""

import itertools
import math
from fractions import Fraction
from operator import add

import numpy as np

from symdisc.errors import NotInDomain, SingularEntry, SolverFailure
from symdisc.kernel import (
    PI,
    KernelEval,
    _dyadic,
    _gmul,
    _gray_schedule,
    bracket_coeffs_ABC,
    bracket_expr,
    kernel_g3_mu3zero,
    kernel_gn,
    numerator_error,
    permanent_exact,
)
from symdisc.exactfield import VARS
from symdisc.symcore import classify_roots, vandermonde_pair


def brute_elem_sym(points):
    """All elementary symmetric values by subset enumeration."""
    n = len(points)
    out = []
    for k in range(1, n + 1):
        total = 0j
        for combo in itertools.combinations(points, k):
            term = 1.0 + 0j
            for c in combo:
                term *= c
            total += term
        out.append(total)
    return tuple(out)


def _rc_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _rc_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _rc_inv(a):
    nrm = a[0] * a[0] + a[1] * a[1]
    if not nrm:
        raise ZeroDivisionError
    return (a[0] / nrm, -a[1] / nrm)


def fraction_delta(lam, mu):
    """Determinant of the Cauchy-power matrix by pivoted elimination over
    complex rationals, (Fraction, Fraction) pairs, correctly rounded to
    a complex.  Pivots are chosen by float magnitude, which does not
    affect exactness."""
    a = []
    for lv in (complex(v) for v in lam):
        lr, li = Fraction(lv.real), Fraction(lv.imag)
        row = []
        for mv in (complex(v) for v in mu):
            mr, mi = Fraction(mv.real), Fraction(mv.imag)
            w = (1 - (lr * mr + li * mi), -(li * mr - lr * mi))  # 1 - lam conj(mu)
            row.append(_rc_inv(_rc_mul(w, w)))
        a.append(row)
    n = len(a)
    sign = 1
    for k in range(n - 1):
        piv, best = k, float(a[k][k][0]) ** 2 + float(a[k][k][1]) ** 2
        for r in range(k + 1, n):
            mag = float(a[r][k][0]) ** 2 + float(a[r][k][1]) ** 2
            if mag > best:
                piv, best = r, mag
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        akk = a[k][k]
        if not (akk[0] or akk[1]):
            return 0j  # exact zero column: determinant is 0
        inv = _rc_inv(akk)
        for r in range(k + 1, n):
            if a[r][k][0] or a[r][k][1]:
                factor = _rc_mul(a[r][k], inv)
                for c in range(k + 1, n):
                    a[r][c] = _rc_sub(a[r][c], _rc_mul(factor, a[k][c]))
    det = a[0][0]
    for k in range(1, n):
        det = _rc_mul(det, a[k][k])
    if sign < 0:
        det = (-det[0], -det[1])
    return complex(float(det[0]), float(det[1]))


def _dyadic_pair(c):
    """(g, e) with c = g / 2^e, g a Gaussian integer as an (re, im) pair."""
    pr, qr = c.real.as_integer_ratio()
    pi, qi = c.imag.as_integer_ratio()
    er, ei = qr.bit_length() - 1, qi.bit_length() - 1
    e = max(er, ei)
    return (pr << (e - er), pi << (e - ei)), e


def _bareiss_det(m):
    """Determinant of a square Gaussian-integer matrix (rows are
    overwritten) by Bareiss elimination with row swaps past zero pivots;
    every division is exact."""
    n = len(m)
    sign = 1
    prev, norm = (1, 0), 1  # the previous pivot and its squared modulus
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if m[r][k] != (0, 0)), None)
        if piv is None:
            return (0, 0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot, row_k = m[k][k], m[k]
        for r in range(k + 1, n):
            row = m[r]
            for c in range(k + 1, n):
                t = _rc_sub(_rc_mul(pivot, row[c]), _rc_mul(row[k], row_k[c]))
                # t / prev = t conj(prev) / |prev|^2, exactly
                tr, ti = _rc_mul(t, (prev[0], -prev[1]))
                row[c] = (tr // norm, ti // norm)
        prev, norm = pivot, pivot[0] ** 2 + pivot[1] ** 2
    dr, di = m[n - 1][n - 1]
    return (dr, di) if sign > 0 else (-dr, -di)


def bareiss_delta(lam, mu):
    """Determinant of the Cauchy-power matrix by Bareiss elimination over
    dyadic Gaussian integers, correctly rounded to a complex.

    With lambda_j = a_j / 2^e_j, mu_k = b_k / 2^f_k and
    W_jk = 2^(e_j + f_k) - a_j conj(b_k), row j times prod_l W_jl^2 is
    E_jk = prod_{l != k} W_jl^2, and
    det = 2^(2 sum e + 2 sum f) det E / prod_{j,l} W_jl^2.  Raises
    ZeroDivisionError when some W_jk vanishes.
    """
    a = [_dyadic_pair(complex(c)) for c in lam]
    b = [_dyadic_pair(complex(c)) for c in mu]
    rows = []
    den = (1, 0)
    for (gr, gi), e in a:
        squares = []
        for (hr, hi), f in b:
            w = ((1 << (e + f)) - gr * hr - gi * hi, gr * hi - gi * hr)
            if w == (0, 0):
                raise ZeroDivisionError("some 1 - lambda_j*conj(mu_k) vanishes")
            squares.append(_rc_mul(w, w))
        row = []
        for k in range(len(b)):
            entry = (1, 0)
            for l, sq in enumerate(squares):
                if l != k:
                    entry = _rc_mul(entry, sq)
            row.append(entry)
        rows.append(row)
        for sq in squares:
            den = _rc_mul(den, sq)
    nr, ni = _bareiss_det(rows)
    shift = 2 * (sum(e for _, e in a) + sum(f for _, f in b))
    re, im = _rc_mul((nr << shift, ni << shift), (den[0], -den[1]))
    norm = den[0] ** 2 + den[1] ** 2
    return complex(re / norm, im / norm)


def exact_kernel(lam, mu):
    """Kernel at distinct coordinates: the Cauchy-power determinant by
    exact elimination (bareiss_delta) over pi^n times the paired
    Vandermonde product."""
    return bareiss_delta(lam, mu) / (PI ** len(lam) * vandermonde_pair(lam, mu))


def log_kernel_mp(lam, mu):
    """(log |K|, arg K) at a pair of float tuples, with per C correctly
    rounded (permanent_exact) and every factor of pi^n prod B taken in
    60-digit mpmath; arg K wrapped to (-pi, pi]."""
    import mpmath as mp

    with mp.workdps(60):
        per = mp.mpc(permanent_exact(lam, mu))
        log_abs, arg = mp.log(abs(per)) - len(lam) * mp.log(mp.pi), mp.arg(per)
        for a in lam:
            for b in mu:
                factor = 1 - mp.mpc(a) * mp.conj(mp.mpc(b))
                log_abs -= mp.log(abs(factor))
                arg -= mp.arg(factor)
        return float(log_abs), float(arg - 2 * mp.pi * mp.ceil((arg - mp.pi) / (2 * mp.pi)))


def perturbed_cluster_tuple(nodes, mults, t, phases):
    """Split each m-fold node into m points u + t^(1/m) * phase * (m-th
    roots of unity); the elementary symmetric values of the result are
    polynomials in t, so the kernel is analytic in t."""
    out = []
    for u, m, ph in zip(nodes, mults, phases):
        if m == 1:
            out.append(u)
        else:
            rad = t ** (1.0 / m)
            for k in range(m):
                out.append(u + rad * ph * np.exp(2j * np.pi * k / m))
    return tuple(out)


def extrapolated_confluent_kernel(lnodes, lmults, mnodes, mmults, t0=2e-3, levels=5):
    """Kernel value at a confluent configuration by Richardson
    extrapolation (in the cluster-splitting parameter) of exact
    distinct-coordinate evaluations."""
    rng = np.random.default_rng(987654321)
    lph = np.exp(2j * np.pi * rng.random(len(lnodes)))
    mph = np.exp(2j * np.pi * rng.random(len(mnodes)))
    ts = [t0 / 2**j for j in range(levels)]
    vals = [
        exact_kernel(
            perturbed_cluster_tuple(lnodes, lmults, t, lph),
            perturbed_cluster_tuple(mnodes, mmults, t, mph),
        )
        for t in ts
    ]
    # Neville tableau extrapolating the polynomial-in-t values to t = 0
    v = list(vals)
    for j in range(1, levels):
        for i in range(levels - j):
            v[i] = (ts[i] * v[i + 1] - ts[i + j] * v[i]) / (ts[i] - ts[i + j])
    return complex(v[0])


def loop_disc_draw(rng, count, radius=0.9, min_gap=0.02, width=1):
    """Seeded disc tuples with pairwise separation, accepted row by row
    from whole rounds of count rows; also returns how many rows were read
    up to the last one kept, the rows a sampler needs to turn into points."""
    out = np.empty((count, width), dtype=complex)
    filled = read = 0
    while filled < count:
        draw = radius * np.sqrt(rng.random((count, width))) * np.exp(
            2j * np.pi * rng.random((count, width))
        )
        for row in draw:
            read += 1
            if width > 1:
                gaps = [
                    abs(row[i] - row[j])
                    for i in range(width)
                    for j in range(i + 1, width)
                ]
                if min(gaps) < min_gap:
                    continue
            out[filled] = row
            filled += 1
            if filled == count:
                break
    return out, read


def loop_disc_samples(rng, count, radius=0.9, min_gap=0.02, width=1):
    """The loop that the vectorised sampler must reproduce bit for bit."""
    return loop_disc_draw(rng, count, radius, min_gap, width)[0]


def loop_dim3_samples(samples, seed):
    rng = np.random.default_rng(seed)
    lams = loop_disc_samples(rng, samples, width=3)
    mus = loop_disc_samples(rng, samples, width=2)
    small = np.abs(mus[:, 0]) < 0.05
    mus[small, 0] += 0.3
    return lams, mus


def loop_closed_form_comparison(samples=1000, seed=0):
    """The closed form against one-pair kernel_gn, one sample at a time;
    also returns both value arrays."""
    lams, mus = loop_dim3_samples(samples, seed)
    direct = np.array([kernel_gn(lam, (m12[0], m12[1], 0.0)).value for lam, m12 in zip(lams, mus)])
    closed = np.array([kernel_g3_mu3zero(lam, m12) for lam, m12 in zip(lams, mus)])
    worst = 0.0
    for d, c in zip(direct, closed):
        worst = max(worst, abs(d - c) / max(abs(d), abs(c)))
    return {"samples": samples, "max_rel_diff": worst, "direct": direct, "closed": closed}


def loop_reduction_chain_check(samples=200, seed=1):
    """Every stage of the two-column reduction, one sample and one small
    matrix at a time; also returns the (6, samples) stage values."""
    lams, mus = loop_dim3_samples(samples, seed)
    worst = 0.0
    stages = []
    for lam, m12 in zip(lams, mus):
        m1c = m12[0].conjugate()
        z = m12[1].conjugate() / m1c
        nu = [lv * m1c for lv in lam]
        stage_det3 = np.linalg.det(
            [[(1 - v) ** -2.0, (1 - z * v) ** -2.0, 1.0] for v in nu]
        )
        stage_det2 = np.linalg.det(
            [
                [
                    (1 - nu[r]) ** -2.0 - (1 - nu[2]) ** -2.0,
                    (1 - z * nu[r]) ** -2.0 - (1 - z * nu[2]) ** -2.0,
                ]
                for r in (0, 1)
            ]
        )
        pref = (nu[0] - nu[2]) * (nu[1] - nu[2]) * z
        stage_mid = (
            pref
            / ((1 - nu[2]) ** 2 * (1 - z * nu[2]) ** 2)
            * np.linalg.det(
                [
                    [
                        (nu[r] + nu[2] - 2) / (1 - nu[r]) ** 2,
                        (z * nu[r] + z * nu[2] - 2) / (1 - z * nu[r]) ** 2,
                    ]
                    for r in (0, 1)
                ]
            )
        )
        prod_all = complex(1.0)
        for lv in lam:
            for mv in m12:
                prod_all *= (1 - lv * mv.conjugate()) ** 2
        stage_bracket = pref * bracket_expr(nu[0], nu[1], nu[2], z) / prod_all
        big_a, big_b, big_c = bracket_coeffs_ABC(nu)
        stage_factored = pref * (z - 1) * (big_a * z * z - big_b * z + 2 * big_c) / prod_all
        mu3 = (m12[0], m12[1], 0.0)
        lhs = PI**3 * vandermonde_pair(lam, mu3) * kernel_gn(lam, mu3).value
        vals = [lhs, stage_det3, stage_det2, stage_mid, stage_bracket, stage_factored]
        ref = max(abs(v) for v in vals)
        for v in vals[1:]:
            worst = max(worst, abs(v - vals[0]) / ref)
        stages.append(vals)
    return {"samples": samples, "max_rel_diff": worst, "stages": np.array(stages).T}


# --- the tuple-keyed exact ring ------------------------------------------------

_NU = 4  # VARS[:_NU] are the unknowns, VARS[_NU:] the generators sqrt2, sqrt3, i
_SQUARES = (2, 3, -1)
_CONST = (0,) * len(VARS)
_BASIS = tuple(
    (0,) * _NU + (b2, b3, bi) for bi in (0, 1) for b2, b3 in ((0, 0), (1, 0), (0, 1), (1, 1))
)


def _reduced(expo, coef):
    """The term coef * x^expo with each generator's square replaced by its value."""
    gens = expo[_NU:]
    if max(gens) < 2:
        return expo, coef
    for g, square in zip(gens, _SQUARES):
        coef *= square ** (g >> 1)
    return expo[:_NU] + tuple(g & 1 for g in gens), coef


def _frac(x):
    """A rational coefficient: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    return x.numerator if x.denominator == 1 else x


class TuplePoly:
    """Polynomial over Q(sqrt2, sqrt3, i) as a map from an exponent tuple
    over VARS to a nonzero int or Fraction, reduced term by term."""

    def __init__(self, terms=None):
        merged = {}
        for expo, coef in (terms or {}).items():
            if not isinstance(coef, (int, Fraction)):
                raise TypeError(f"cannot coerce {type(coef).__name__} into Q")
            expo, coef = _reduced(tuple(expo), coef)
            merged[expo] = merged.get(expo, 0) + coef
        self.terms = {e: _frac(c) for e, c in merged.items() if c}

    @classmethod
    def of(cls, x):
        return x if isinstance(x, TuplePoly) else cls({_CONST: x})

    def __eq__(self, other):
        return self.terms == TuplePoly.of(other).terms

    def __add__(self, other):
        out = dict(self.terms)
        for expo, coef in TuplePoly.of(other).terms.items():
            out[expo] = out.get(expo, 0) + coef
        return TuplePoly(out)

    __radd__ = __add__

    def __neg__(self):
        return TuplePoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-TuplePoly.of(other))

    def __rsub__(self, other):
        return TuplePoly.of(other) + (-self)

    def __mul__(self, other):
        out = {}
        other = TuplePoly.of(other)
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo, coef = _reduced(tuple(map(add, e1, e2)), c1 * c2)
                out[expo] = out.get(expo, 0) + coef
        return TuplePoly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = TuplePoly({_CONST: 1})
        for _ in range(k):
            out = out * self
        return out

    def conj(self):
        return TuplePoly({e: -c if e[-1] else c for e, c in self.terms.items()})

    def coords(self):
        if any(any(e[:_NU]) for e in self.terms):
            raise ValueError("not a constant")
        return tuple(self.terms.get(e, 0) for e in _BASIS)

    def coeff_in(self, name, power):
        idx = VARS.index(name)
        return TuplePoly(
            {e[:idx] + (0,) + e[idx + 1 :]: c for e, c in self.terms.items() if e[idx] == power}
        )

    def degree_in(self, name):
        idx = VARS.index(name)
        return max((e[idx] for e in self.terms), default=0)


def fraction_alg_sign(q0, q2, q3, q6, start_bits=64):
    """Sign of q0 + q2 sqrt2 + q3 sqrt3 + q6 sqrt6 for rational q, from
    dyadic Fraction enclosures of the radicals whose precision doubles
    until the enclosure excludes zero."""
    if not (q2 or q3 or q6):
        return (q0 > 0) - (q0 < 0)
    bits = max(4, start_bits)
    while True:
        lo = hi = Fraction(q0)
        for q, radicand in ((q2, 2), (q3, 3), (q6, 6)):
            if q:
                shifted = radicand << (2 * bits)
                rlo = math.isqrt(shifted)
                rhi = rlo if rlo * rlo == shifted else rlo + 1
                bounds = (q * Fraction(rlo, 1 << bits), q * Fraction(rhi, 1 << bits))
                lo += min(bounds)
                hi += max(bounds)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2


# --- the single-pair route before one companion solve per evaluation --------


def _route_coords(p):
    out = tuple(complex(c) for c in p)
    if not out:
        raise ValueError("a point needs at least one coordinate")
    return out


def _route_gray_steps(n):
    rows, negate, flipped = [0], [0], [False] * n
    for step in range(1, 2 ** (n - 1)):
        j = (step & -step).bit_length()
        rows.append(j)
        negate.append(int(not flipped[j]))
        flipped[j] = not flipped[j]
    return np.array(rows), np.array(negate)


def route_permanent(c, stacked_positions=128):
    """Glynn's Gray walk over the first two axes of c, stacked (one
    np.cumsum over the gathered updates) up to stacked_positions column
    positions and stepwise beyond, with the ndarray reduction methods."""
    c = np.ascontiguousarray(c)
    n = c.shape[0]
    twice = c * 2.0
    sums = c.sum(axis=0)
    prods = np.empty((2 ** (n - 1), *c.shape[2:]), c.dtype)
    rows, negate = _route_gray_steps(n)
    if c[0].size <= stacked_positions:
        signed = np.concatenate((twice, np.negative(twice)))
        for lo in range(0, len(prods), 4096):
            block = slice(lo, lo + 4096)
            steps = signed[(rows + n * negate)[block]]
            if lo:
                np.add(sums, steps[0], out=steps[0])
            else:
                steps[0] = sums
            np.cumsum(steps, axis=0, out=steps)
            steps.prod(axis=1, out=prods[block])
            sums = steps[-1]
    else:
        sums.prod(axis=0, out=prods[0, ...])
        for step in range(1, len(prods)):
            if negate[step]:
                sums -= twice[rows[step]]
            else:
                sums += twice[rows[step]]
            sums.prod(axis=0, out=prods[step, ...])
    return (prods[0::2].sum(axis=0) - prods[1::2].sum(axis=0)) / 2 ** (n - 1)


def _route_evaluate(lam, mu):
    a = np.asarray(_route_coords(lam), dtype=complex)
    b = np.asarray(_route_coords(mu), dtype=complex)
    if a.shape != b.shape:
        raise ValueError("tuples must have the same dimension")
    base = 1.0 - np.multiply.outer(a, np.conj(b))
    if np.any(base == 0):
        raise SingularEntry("some 1 - lambda_j*conj(mu_k) vanishes")
    c = 1.0 / base
    size = np.abs(c)
    num, scale = route_permanent(np.stack([c, size], axis=-1))
    den = PI ** len(base) * np.prod(base)
    ev = KernelEval(value=complex(num / den), numerator=complex(num), denominator=complex(den), scale=float(scale.real))
    return ev, size


def route_kernel_gn(lam, mu):
    """kernel.kernel_gn by the replaced route."""
    return _route_evaluate(lam, mu)[0]


def route_kernel_gn_with_error(lam, mu):
    """kernel.kernel_gn_with_error by the replaced route."""
    ev, size = _route_evaluate(lam, mu)
    return ev, numerator_error(size, ev.scale)


def route_roots_from_sym(s):
    """symcore.roots_from_sym by one np.roots call."""
    sk = _route_coords(s)
    if not np.all(np.isfinite(sk)):
        raise ValueError(f"symmetric coordinates must be finite: {sk}")
    n = len(sk)
    if n == 1:
        return (sk[0],)
    try:
        roots = np.roots([complex(1.0), *((-1.0) ** k * v for k, v in enumerate(sk, 1))])
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"companion eigenvalues failed (degree {n}): {exc}") from exc
    return tuple(sorted((complex(r) for r in roots), key=lambda c: (c.real, c.imag)))


def route_kernel_gn_stable(s, t):
    """kernel.kernel_gn_stable by one route_roots_from_sym call per
    argument, each classified before the next is solved."""
    preimages = []
    for name, point in (("first", s), ("second", t)):
        roots = route_roots_from_sym(point)
        if classify_roots(roots) != "inside":
            raise NotInDomain(f"{name} argument is not in the symmetrized polydisc")
        preimages.append(roots)
    return route_kernel_gn(*preimages)


# --- the exact layer before its rows were built in one pass -------------------


def route_glynn_sum(rows):
    """2^(n-1) per E for rows of (re, im) pairs: the stepwise Gray walk with
    a parity test per step and a sliced column product."""
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


def route_cleared_rows(lam, mu):
    """(a, b, rows) with rows of (re, im) pairs of W_jk, entry by entry."""
    a = [_dyadic(c) for c in _route_coords(lam)]
    b = [_dyadic(c) for c in _route_coords(mu)]
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


def route_cleared_permanent(lam, mu):
    """(a, b, per E, prod W) from prefix and suffix products of each row."""
    a, b, w_rows = route_cleared_rows(lam, mu)
    n = len(a)
    rows = []
    prod_w = (1, 0)
    for ws in w_rows:
        prefix = [(1, 0)]
        for w in ws[:-1]:
            prefix.append(_gmul(prefix[-1], w))
        row = [None] * n
        suffix = (1, 0)
        for k in range(n - 1, -1, -1):
            row[k] = _gmul(prefix[k], suffix)
            suffix = _gmul(suffix, ws[k])
        rows.append(row)
        prod_w = _gmul(prod_w, suffix)
    per_r, per_i = route_glynn_sum(rows)
    return a, b, (per_r >> (n - 1), per_i >> (n - 1)), prod_w


def _route_floor_scaled(x, s, d):
    return (x << s) // d if s >= 0 else x // (d << -s)


def route_fixed_enclosure(lam, mu, bits=144):
    """The fixed-point enclosure with one _floor_scaled call per part of
    each entry and the all-real test as a separate pass."""
    a, b, w_rows = route_cleared_rows(lam, mu)
    n = len(a)
    rows, shift, sums, padded = [], 0, 1, 1
    for (_, e), ws in zip(a, w_rows):
        norms = [wr * wr + wi * wi for wr, wi in ws]
        p = bits - max(e + f - (w2.bit_length() - 1) // 2 for (_, f), w2 in zip(b, norms))
        row = [
            (_route_floor_scaled(wr, p + e + f, w2), _route_floor_scaled(-wi, p + e + f, w2))
            for (wr, wi), w2, (_, f) in zip(ws, norms, b)
        ]
        r = sum(abs(xr) + abs(xi) for xr, xi in row)
        sums *= r
        padded *= r + 2 * n
        rows.append(row)
        shift += p
    per_r, per_i = route_glynn_sum(rows)
    real = not any(wi for ws in w_rows for _, wi in ws)
    radius = padded - sums
    return (per_r >> (n - 1), per_i >> (n - 1)), (radius, 0 if real else radius), shift
