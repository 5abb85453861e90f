"""Independent reference values for the point-evaluation checks.

Both oracles evaluate the determinant formula of the kernel in 50-digit
mpmath arithmetic and share no code with the package: one at distinct
coordinates, one at coincident coordinates by Richardson extrapolation
of values at split coordinates.
"""

from __future__ import annotations

import mpmath

DPS = 50


def kernel_mp(lam, mu) -> complex:
    """det[(1 - lambda_j conj(mu_k))^-2] / (pi^n prod_{j<k} (lambda_j - lambda_k) conj(mu_j - mu_k))."""
    with mpmath.workdps(DPS):
        return complex(_kernel(_mp(lam), _mp(mu)))


def _split(nodes, mults, t, phases):
    """Each m-fold node u becomes u + t^(1/m) * phase * (m-th roots of unity);
    the symmetric functions of the result are polynomials in t, so the
    kernel is analytic in t."""
    out = []
    for u, m, ph in zip(nodes, mults, phases):
        if m == 1:
            out.append(mpmath.mpc(complex(u)))
        else:
            rad = mpmath.mpf(t) ** (mpmath.mpf(1) / m)
            for k in range(m):
                out.append(mpmath.mpc(complex(u)) + rad * ph * mpmath.expjpi(mpmath.mpf(2 * k) / m))
    return out


def confluent_kernel_mp(lnodes, lmults, mnodes, mmults, t0=1e-4, levels=5) -> complex:
    """Kernel at coincident coordinates: Neville extrapolation to t = 0 of
    kernel values at coordinates split by t = t0, t0/2, ..."""
    with mpmath.workdps(DPS):
        lph = [mpmath.expjpi(mpmath.mpf(2 * i + 1) / 7) for i in range(len(lnodes))]
        mph = [mpmath.expjpi(mpmath.mpf(2 * i + 1) / 11) for i in range(len(mnodes))]
        ts = [mpmath.mpf(t0) / 2**j for j in range(levels)]
        v = [_kernel(_split(lnodes, lmults, t, lph), _split(mnodes, mmults, t, mph)) for t in ts]
        for j in range(1, levels):
            for i in range(levels - j):
                v[i] = (ts[i] * v[i + 1] - ts[i + j] * v[i]) / (ts[i] - ts[i + j])
        return complex(v[0])


def _mp(coords):
    return [mpmath.mpc(complex(c)) for c in coords]


def _kernel(a, mu):
    b = [mpmath.conj(c) for c in mu]
    n = len(a)
    m = mpmath.matrix(n, n)
    for j in range(n):
        for k in range(n):
            m[j, k] = 1 / (1 - a[j] * b[k]) ** 2
    vp = mpmath.mpf(1)
    for j in range(n):
        for k in range(j + 1, n):
            vp *= (a[j] - a[k]) * (b[j] - b[k])
    return mpmath.det(m) / (mpmath.pi**n * vp)
