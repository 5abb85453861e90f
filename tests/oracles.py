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
"""

import itertools
from fractions import Fraction

import numpy as np

from symdisc.kernel import (
    PI,
    bracket_coeffs_ABC,
    bracket_expr,
    kernel_g3_mu3zero,
    kernel_gn,
)
from symdisc.symcore import vandermonde_pair


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


def loop_disc_samples(rng, count, radius=0.9, min_gap=0.02, width=1):
    """Seeded disc tuples with pairwise separation, accepted row by row:
    the loop that the vectorised sampler must reproduce bit for bit."""
    out = np.empty((count, width), dtype=complex)
    filled = 0
    while filled < count:
        draw = radius * np.sqrt(rng.random((count, width))) * np.exp(
            2j * np.pi * rng.random((count, width))
        )
        for row in draw:
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
    return out


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
