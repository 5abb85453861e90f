"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: elementary symmetric
values come from explicit subset enumeration, the kernel at distinct
coordinates comes from the exact determinant over the Vandermonde
product rather than from the permanent formula, and the kernel at
coincident coordinates from Richardson extrapolation of that route.
"""

import itertools

import numpy as np

from symdisc.kernel import PI, delta_n
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


def exact_kernel(lam, mu):
    """Kernel at distinct coordinates: the exact Cauchy-power determinant
    over pi^n times the paired Vandermonde product."""
    return delta_n(lam, mu) / (PI ** len(lam) * vandermonde_pair(lam, mu))


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
