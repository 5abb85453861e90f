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
import functools
import math
import operator
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import SolverFailure

# Membership guard: open-set membership is undecidable at machine precision,
# so roots within this distance of the unit circle are flagged indeterminate.
BOUNDARY_GUARD = 1e-12


def _coords(p: Sequence[complex]) -> tuple[complex, ...]:
    """The coordinates of a point as complex numbers; a point without
    coordinates, or with a non-finite one, is a usage error (ValueError)."""
    out = tuple(map(complex, p))
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
    stripped trailing zero.  Companion matrices of one degree are stacked
    on a copy of that degree's ones below the diagonal (_subdiagonal) and
    solved in one call of the LAPACK eigenvalue routine that
    np.linalg.eigvals calls, which solves each matrix of a stack as it
    solves it alone (_eigenvalues).  An eigenvalue failure is a
    SolverFailure.
    """
    rows = []
    for p in polys:
        p = np.asarray(p, dtype=complex)
        if p.ndim != 1:
            raise ValueError("a polynomial is a rank-1 sequence of coefficients")
        rows.append(p.tolist())
    return _companion_roots(rows)


def _companion_roots(rows) -> list[np.ndarray]:
    """companion_roots of polynomials given as lists of Python complex
    coefficients: their zeros are found, and -p[1:] negated (exactly, as
    np.negative does), in Python, so that a degree's stack takes one
    array of its rows and one division."""
    out = [None] * len(rows)
    groups = {}
    for i, p in enumerate(rows):
        nonzero = [k for k, v in enumerate(p) if v]
        if nonzero:
            lead, last = nonzero[0], nonzero[-1]
            # p[0] and -p[1:], of which the companion's first row is the quotient
            row = [p[lead], *(-v for v in p[lead + 1 : last + 1])]
            groups.setdefault(last - lead, []).append((i, row, len(p) - 1 - last))
        else:
            out[i] = np.array([])
    for degree, members in groups.items():
        if degree:
            coeffs = np.array([p for _, p, _ in members], dtype=complex)
            stack = _subdiagonal(degree).repeat(len(members), axis=0)
            np.divide(coeffs[:, 1:], coeffs[:, :1], out=stack[:, 0])
            values = _eigenvalues(stack)
        else:
            values = [np.array([])] * len(members)
        for (i, _, trailing), roots in zip(members, values):
            out[i] = np.concatenate((roots, np.zeros(trailing, roots.dtype))) if trailing else roots
    return out


@functools.cache
def _subdiagonal(degree: int) -> np.ndarray:
    """A read-only (1, degree, degree) complex matrix with ones below the
    diagonal and zeros elsewhere: a companion matrix without its first row."""
    ones = np.eye(degree, k=-1, dtype=complex)[None]
    ones.flags.writeable = False
    return ones


# the gufunc that np.linalg.eigvals calls
_eigvals = _umath_linalg.eigvals


def _no_convergence(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def _eigenvalues(stack: np.ndarray) -> np.ndarray:
    """np.linalg.eigvals of a C-contiguous complex stack of companion
    matrices, bit for bit, from numpy's LAPACK gufunc itself (_eigvals),
    without the wrapper's conversions, which a complex companion stack
    does not need.  Its two checks stay: non-finite entries, which can
    only be in the first rows, and a solve that does not converge, which
    the gufunc signals by the invalid flag, under the error state
    np.linalg.eigvals sets.  Either is a SolverFailure naming the degree,
    with numpy's message."""
    try:
        if not np.logical_and.reduce(np.isfinite(stack[:, 0]), axis=None):
            raise LinAlgError("Array must not contain infs or NaNs")
        with np.errstate(call=_no_convergence, invalid="call", over="ignore", divide="ignore", under="ignore"):
            return _eigvals(stack, signature="D->D")
    except LinAlgError as exc:
        raise SolverFailure(f"companion eigenvalues failed (degree {stack.shape[-1]}): {exc}") from exc


def _preimages(points) -> list[tuple[complex, ...]]:
    """roots_from_sym of each point, from one _companion_roots call: every
    point is read before any is solved."""
    coords = [_coords(s) for s in points]
    # at n = 1 the root is s_1 itself: a 1 x 1 eigenvalue solve would turn
    # -0.0 into +0.0
    polys = [[complex(1.0), *((-1.0) ** k * v for k, v in enumerate(sk, 1))] for sk in coords if len(sk) > 1]
    solved = iter(_companion_roots(polys))
    return [sk if len(sk) == 1 else tuple(sorted(next(solved).tolist(), key=_REAL_IMAG)) for sk in coords]


# the sort key of roots, (real, imag)
_REAL_IMAG = operator.attrgetter("real", "imag")


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
    moduli = list(map(abs, roots))
    if not all(map(math.isfinite, moduli)):
        raise ValueError(f"roots must be finite: {tuple(roots)}")
    top = max(moduli, default=0.0)
    if top < 1.0 - BOUNDARY_GUARD:
        return "inside"
    if top > 1.0 + BOUNDARY_GUARD:
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
