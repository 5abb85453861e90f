"""Elementary symmetric coordinates on the polydisc.

The symmetrization map sends an n-tuple of unit-disc coordinates to the
n-tuple of its elementary symmetric polynomial values; its image is the
symmetrized polydisc.  This module provides the map, its inversion by
the eigenvalues of the companion matrix (np.roots, the root finder the
lift in zerofind also uses), open-domain membership tests, and the
paired Vandermonde product that appears in the kernel denominator.

All operations are pure functions over immutable values and are safe to
call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NotInDomain, SolverFailure

# Membership guard: open-set membership is undecidable at machine precision,
# so roots within this distance of the unit circle are flagged indeterminate.
BOUNDARY_GUARD = 1e-12


@dataclass(frozen=True)
class PolyPoint:
    """An n-tuple of complex coordinates, prior to symmetrization.

    Use :meth:`in_domain` for points that must lie in the open unit
    polydisc; the plain constructor accepts arbitrary complex tuples
    (identities are tested on unimodular and exterior points too).
    """

    coords: tuple[complex, ...]

    def __init__(self, coords: Iterable[complex]):
        object.__setattr__(self, "coords", tuple(complex(c) for c in coords))
        if not self.coords:
            raise ValueError("PolyPoint needs at least one coordinate")

    @classmethod
    def in_domain(cls, coords: Iterable[complex]) -> "PolyPoint":
        p = cls(coords)
        bad = [c for c in p.coords if abs(c) >= 1.0]
        if bad:
            raise NotInDomain(f"coordinates not in the open unit disc: {bad}")
        return p

    @property
    def n(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=complex)


@dataclass(frozen=True)
class SymPoint:
    """Symmetrized coordinates: the k-th entry is the k-th elementary
    symmetric value of some preimage tuple."""

    coords: tuple[complex, ...]

    def __init__(self, coords: Iterable[complex]):
        object.__setattr__(self, "coords", tuple(complex(c) for c in coords))
        if not self.coords:
            raise ValueError("SymPoint needs at least one coordinate")

    @property
    def n(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)


def _coords(p) -> tuple[complex, ...]:
    if isinstance(p, (PolyPoint, SymPoint)):
        return p.coords
    return tuple(complex(c) for c in p)


def elem_sym(p: PolyPoint | Sequence[complex]) -> SymPoint:
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
    return SymPoint(out)


def monic_coefficients(s: SymPoint | Sequence[complex]) -> list[complex]:
    """Coefficients [1, c_1, ..., c_n] of x^n + c_1 x^(n-1) + ... with
    roots inverting the symmetrization: c_k = (-1)^k s_k."""
    sk = _coords(s)
    coeffs = [complex(1.0)]
    sign = -1.0
    for v in sk:
        coeffs.append(sign * v)
        sign = -sign
    return coeffs


def roots_from_sym(s: SymPoint | Sequence[complex]) -> tuple[complex, ...]:
    """Invert the symmetrization: the multiset of roots of
    x^n - s_1 x^(n-1) + s_2 x^(n-2) - ...

    The roots are the eigenvalues of the companion matrix (np.roots),
    which are backward stable for the polynomial, so their symmetric
    functions reproduce s to rounding even at repeated roots.  Roots are
    returned sorted by (real, imag) so equal inputs give identical
    outputs.  Non-finite coordinates are a usage error (ValueError).
    """
    sk = _coords(s)
    if not np.all(np.isfinite(sk)):
        raise ValueError(f"symmetric coordinates must be finite: {sk}")
    n = len(sk)
    if n == 1:
        return (sk[0],)
    try:
        roots = np.roots(monic_coefficients(sk))
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"companion eigenvalues failed (degree {n}): {exc}") from exc
    ordered = sorted((complex(r) for r in roots), key=lambda c: (c.real, c.imag))
    return tuple(ordered)


def classify_roots(roots: Sequence[complex]) -> str:
    """Membership in the symmetrized polydisc of the point whose preimage
    roots are given.

    Returns "inside" when every root has modulus below
    1 - BOUNDARY_GUARD, "outside" when some root has modulus above
    1 + BOUNDARY_GUARD, and "boundary-indeterminate" in between.
    Non-finite roots are a usage error (ValueError).
    """
    moduli = [abs(r) for r in roots]
    if not np.all(np.isfinite(moduli)):
        raise ValueError(f"roots must be finite: {tuple(roots)}")
    if all(m < 1.0 - BOUNDARY_GUARD for m in moduli):
        return "inside"
    if any(m > 1.0 + BOUNDARY_GUARD for m in moduli):
        return "outside"
    return "boundary-indeterminate"


def classify_gn(s: SymPoint | Sequence[complex]) -> str:
    """Membership of s in the symmetrized polydisc: classify_roots of
    its preimage roots."""
    return classify_roots(roots_from_sym(s))


def in_gn(s: SymPoint | Sequence[complex]) -> bool:
    """True iff every preimage root lies strictly inside the unit disc
    (with the boundary guard); indeterminate boundary points count as out."""
    return classify_gn(s) == "inside"


def vandermonde_pair(lam: PolyPoint | Sequence[complex], mu: PolyPoint | Sequence[complex]) -> complex:
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
