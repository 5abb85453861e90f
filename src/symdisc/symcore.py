"""Elementary symmetric coordinates on the polydisc.

The symmetrization map sends an n-tuple of unit-disc coordinates to the
n-tuple of its elementary symmetric polynomial values; its image is the
symmetrized polydisc.  This module provides the map, its inversion by
simultaneous polynomial root finding, open-domain membership tests, and
the paired Vandermonde product that appears in the kernel denominator.

All operations are pure functions over immutable values and are safe to
call concurrently; the root finder takes its seed explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NotInDomain, SolverFailure

# Membership guard: open-set membership is undecidable at machine precision,
# so roots within this distance of the unit circle are flagged indeterminate.
BOUNDARY_GUARD = 1e-12

_ROOT_TOL = 1e-13
_MAX_ITER = 400


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


def _aberth(coeffs: np.ndarray, seed: int) -> np.ndarray:
    """All roots of a monic polynomial by Aberth-Ehrlich simultaneous
    iteration, started on a slightly perturbed circle."""
    n = len(coeffs) - 1
    deriv = coeffs[:-1] * np.arange(n, 0, -1)

    radius = 1.0 + float(np.max(np.abs(coeffs[1:])))
    rng = np.random.default_rng(seed)
    angles = 2 * np.pi * (np.arange(n) + 0.25) / n + 1e-3 * rng.standard_normal(n)
    z = radius * np.exp(1j * angles) * (1 + 1e-3 * rng.standard_normal(n))

    # |p|(|z|) with all-positive coefficients, for the backward-error stop
    abs_coeffs = np.abs(coeffs)
    float_floor = 8.0 * n * np.finfo(float).eps

    for _ in range(_MAX_ITER):
        pv = np.polyval(coeffs, z)
        scale = np.polyval(abs_coeffs, np.abs(z))
        if np.all(np.abs(pv) <= float_floor * scale):
            return z
        dv = np.polyval(deriv, z)
        w = np.where(dv != 0, pv / np.where(dv == 0, 1, dv), 0.1 + 0.1j)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        repulse = np.sum(1.0 / diff, axis=1) - 1.0  # remove the diagonal term
        denom = 1.0 - w * repulse
        denom = np.where(denom == 0, 1e-30, denom)
        step = w / denom
        z = z - step
        if np.all(np.abs(step) <= _ROOT_TOL * (1.0 + np.abs(z))):
            pv = np.polyval(coeffs, z)
            scale = np.polyval(abs_coeffs, np.abs(z))
            if np.all(np.abs(pv) <= 1e4 * float_floor * scale):
                return z
    raise SolverFailure(
        f"root iteration did not converge after {_MAX_ITER} steps (degree {n})"
    )


def roots_from_sym(s: SymPoint | Sequence[complex], seed: int = 0) -> tuple[complex, ...]:
    """Invert the symmetrization: the multiset of roots of
    x^n - s_1 x^(n-1) + s_2 x^(n-2) - ...

    Deterministic for a fixed seed; roots are returned sorted by
    (real, imag) so equal inputs give identical outputs.
    """
    sk = _coords(s)
    n = len(sk)
    if n == 1:
        return (sk[0],)
    coeffs = np.asarray(monic_coefficients(sk), dtype=complex)
    roots = _aberth(coeffs, seed)
    ordered = sorted((complex(r) for r in roots), key=lambda c: (c.real, c.imag))
    return tuple(ordered)


def classify_roots(roots: Sequence[complex]) -> str:
    """Membership in the symmetrized polydisc of the point whose preimage
    roots are given.

    Returns "inside" when every root has modulus below
    1 - BOUNDARY_GUARD, "outside" when some root has modulus above
    1 + BOUNDARY_GUARD, and "boundary-indeterminate" in between.
    """
    moduli = [abs(r) for r in roots]
    if all(m < 1.0 - BOUNDARY_GUARD for m in moduli):
        return "inside"
    if any(m > 1.0 + BOUNDARY_GUARD for m in moduli):
        return "outside"
    return "boundary-indeterminate"


def classify_gn(s: SymPoint | Sequence[complex], seed: int = 0) -> str:
    """Membership of s in the symmetrized polydisc: classify_roots of
    its preimage roots."""
    return classify_roots(roots_from_sym(s, seed=seed))


def in_gn(s: SymPoint | Sequence[complex], seed: int = 0) -> bool:
    """True iff every preimage root lies strictly inside the unit disc
    (with the boundary guard); indeterminate boundary points count as out."""
    return classify_gn(s, seed=seed) == "inside"


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
