"""Elementary symmetric coordinates on the polydisc.

The symmetrization map sends an n-tuple of unit-disc coordinates to the
n-tuple of its elementary symmetric polynomial values; its image is the
symmetrized polydisc.  This module provides the map, its inversion by
the eigenvalues of the companion matrix (companion_roots, the root finder
the lift in zerofind also uses), open-domain membership tests, and the
paired Vandermonde product.  Points are plain sequences of finite complex
numbers; symmetric values and roots come back as tuples.

All operations are pure functions and are safe to call concurrently.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from .errors import SolverFailure

# Membership guard: open-set membership is undecidable at machine precision,
# so roots within this distance of the unit circle are flagged indeterminate.
BOUNDARY_GUARD = 1e-12


def _coords(p: Sequence[complex]) -> tuple[complex, ...]:
    """The coordinates of a point as complex numbers; a point without
    coordinates, or with a non-finite one, is a usage error (ValueError)."""
    out = tuple(complex(c) for c in p)
    if not out:
        raise ValueError("a point needs at least one coordinate")
    if not all(map(cmath.isfinite, out)):
        raise ValueError(f"coordinates must be finite: {out}")
    return out


def elem_sym(p: Sequence[complex]) -> tuple[complex, ...]:
    """Symmetrize a tuple: return all elementary symmetric values.

    Computed by expanding prod_j (x - lambda_j) incrementally, so the
    k-th output is exact up to rounding and permutation-invariant.
    """
    lam = _coords(p)
    # poly[k] is the coefficient of x^(n-k) in prod (x - lambda_j)
    poly = [complex(1.0)]
    for c in lam:
        poly.append(complex(0.0))
        for k in range(len(poly) - 1, 0, -1):
            poly[k] -= c * poly[k - 1]
    sign = -1.0
    out = []
    for k in range(1, len(lam) + 1):
        out.append(sign * poly[k])
        sign = -sign
    return tuple(out)


def companion_roots(polys) -> list[np.ndarray]:
    """The roots of each polynomial of polys (complex coefficients,
    highest degree first), bit for bit as np.roots gives them, with one
    eigenvalue call per degree.

    Step for step as np.roots: zeros are stripped at both ends, the
    companion matrix has the first row -p[1:] / p[0] and ones below the
    diagonal, its eigenvalues are the roots, and one zero follows per
    stripped trailing zero.  Companion matrices of one size are stacked
    into one np.linalg.eigvals call, which solves each matrix of a stack
    as it solves it alone.  An eigenvalue failure is a SolverFailure.
    """
    out = [np.array([])] * len(polys)
    groups = {}
    for i, p in enumerate(polys):
        p = np.asarray(p, dtype=complex)
        if p.ndim != 1:
            raise ValueError("a polynomial is a rank-1 sequence of coefficients")
        nonzero = p.nonzero()[0]
        if len(nonzero):
            trailing = len(p) - 1 - nonzero[-1]
            p = p[nonzero[0] : nonzero[-1] + 1]
            groups.setdefault(len(p), []).append((i, p, trailing))
    for size, members in groups.items():
        if size == 1:
            values = [np.array([])] * len(members)
        else:
            stack = np.zeros((len(members), size - 1, size - 1), complex)
            # the subdiagonal, every size-th entry of a flattened matrix
            stack.reshape(len(members), -1)[:, size - 1 :: size] = 1
            coeffs = np.array([p for _, p, _ in members])
            stack[:, 0, :] = np.negative(coeffs[:, 1:]) / coeffs[:, :1]
            try:
                values = np.linalg.eigvals(stack)
            except np.linalg.LinAlgError as exc:
                raise SolverFailure(f"companion eigenvalues failed (degree {size - 1}): {exc}") from exc
        for (i, _, trailing), roots in zip(members, values):
            out[i] = np.concatenate((roots, np.zeros(trailing, roots.dtype))) if trailing else roots
    return out


def _preimages(points) -> list[tuple[complex, ...]]:
    """roots_from_sym of each point, from one companion_roots call: every
    point is read before any is solved."""
    coords = [_coords(s) for s in points]
    # at n = 1 the root is s_1 itself: a 1 x 1 eigenvalue solve would turn
    # -0.0 into +0.0
    polys = [[complex(1.0), *((-1.0) ** k * v for k, v in enumerate(sk, 1))] for sk in coords if len(sk) > 1]
    solved = iter(companion_roots(polys))
    return [
        sk if len(sk) == 1 else tuple(sorted(map(complex, next(solved).tolist()), key=lambda c: (c.real, c.imag)))
        for sk in coords
    ]


def roots_from_sym(s: Sequence[complex]) -> tuple[complex, ...]:
    """Invert the symmetrization: the multiset of roots of
    x^n - s_1 x^(n-1) + s_2 x^(n-2) - ...

    The roots are the eigenvalues of the companion matrix
    (companion_roots), which are backward stable for the polynomial, so
    their symmetric functions reproduce s to rounding even at repeated
    roots.  Roots are returned sorted by (real, imag) so equal inputs
    give identical outputs; at n = 1 the root is s_1 itself.  Non-finite
    coordinates are a usage error (ValueError).
    """
    return _preimages([s])[0]


def classify_roots(roots: Sequence[complex]) -> str:
    """Membership in the symmetrized polydisc of the point whose preimage
    roots are given.

    Returns "inside" when every root has modulus below
    1 - BOUNDARY_GUARD, "outside" when some root has modulus above
    1 + BOUNDARY_GUARD, and "boundary-indeterminate" in between.
    Non-finite roots are a usage error (ValueError).
    """
    moduli = [abs(r) for r in roots]
    if not all(map(math.isfinite, moduli)):
        raise ValueError(f"roots must be finite: {tuple(roots)}")
    if all(m < 1.0 - BOUNDARY_GUARD for m in moduli):
        return "inside"
    if any(m > 1.0 + BOUNDARY_GUARD for m in moduli):
        return "outside"
    return "boundary-indeterminate"


def classify_gn(s: Sequence[complex]) -> str:
    """Membership of s in the symmetrized polydisc: classify_roots of
    its preimage roots."""
    return classify_roots(roots_from_sym(s))


def in_gn(s: Sequence[complex]) -> bool:
    """True iff every preimage root lies strictly inside the unit disc
    (with the boundary guard); indeterminate boundary points count as out."""
    return classify_gn(s) == "inside"


def vandermonde_pair(lam: Sequence[complex], mu: Sequence[complex]) -> complex:
    """prod_{j<k} (lambda_j - lambda_k) * conj(mu_j - mu_k).

    Vanishes exactly when either tuple has a repeated coordinate; the
    value is unchanged when the same permutation is applied to both
    tuples (the two sign flips cancel).
    """
    a = _coords(lam)
    b = _coords(mu)
    if len(a) != len(b):
        raise ValueError("tuples must have the same dimension")
    v = complex(1.0)
    for j in range(len(a)):
        for k in range(j + 1, len(a)):
            v *= (a[j] - a[k]) * (b[j] - b[k]).conjugate()
    return v
