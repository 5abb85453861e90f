"""Certified zeros of the symmetrized-polydisc kernel.

The dimension-3 construction scales a fixed unimodular triple slightly
into the polydisc, solves the closed-form quadratic for the ratio of the
two nonzero mu coordinates, and certifies that the Cauchy-power
determinant vanishes at the resulting pair.  Higher dimensions are
reached inductively: append a common coordinate close to 1 to both
tuples (its size controlled by a numerically estimated ratio of the
one-variable slice's boundary minimum to the remainder's maximum) and
relocate the first lambda coordinate to a nearby zero, found by winding
count plus Newton refinement.  Both evaluate the lifted slice in
batches: a winding pass is one extended-precision call over every
contour point and its two difference neighbours, a Newton step one call
over three points.

Certification is post hoc throughout: whatever the estimates did, an
emitted certificate evaluates the exact determinant at its points and
checks the residual against the stated tolerance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    CertificationFailure,
    ContourTooClose,
    DegenerateLift,
    InvalidScaling,
    NonIntegerWinding,
    NoRootInUnitDisc,
    NoSolution,
    RoucheBoundViolated,
    SingularEntry,
    WitnessNotFound,
)
from .kernel import (
    _BATCH_CHUNK,
    PI,
    QuadraticData,
    abc_coeffs,
    batch_cauchy_power,
    cauchy_power_matrix,
    delta_n,
    delta_with_scale,
    det_pivoted,
    matrix_scale,
)
from .symcore import vandermonde_pair

# unimodular base triple of the construction and the reference root of the
# induced real quadratic p(x) = (3 sqrt3 - 5) x^2 + (3 sqrt6 - 6 sqrt2) x + (4 sqrt3 - 6)
TORUS_BASE = (
    cmath.exp(1j * math.pi / 6),
    cmath.exp(1j * math.pi / 3),
    cmath.exp(-1j * math.pi / 6),
)


def base_root_x() -> float:
    """Smaller root of p in (0, 1), from its closed radical form."""
    s3 = math.sqrt(3.0)
    return (6 - 3 * s3 - math.sqrt(40 * s3 - 69)) / (math.sqrt(2.0) * (3 * s3 - 5))


def reference_root() -> complex:
    """e^{-i pi/4} times the smaller real root: the quadratic root the
    dimension-3 construction tracks."""
    return cmath.exp(-1j * math.pi / 4) * base_root_x()


DEFAULT_TOL_DIM3 = 1e-10
DEFAULT_TOL_LIFT = 1e-8
WITNESS_FACTOR = 1e3

# safety factor applied to the estimated boundary-minimum ratio before
# sizing the appended coordinate
M_SAFETY = 0.5

_NEWTON_STEP_REL = 1e-7
_NEWTON_CONVERGED = 1e-13


@dataclass(frozen=True)
class FnWitness:
    """A point where the one-variable determinant slice is decisively
    nonzero, certifying the slice is not identically zero.

    The sample count is provenance only (not serialized, not compared).
    """

    point: complex
    value_abs: float
    samples: int = field(default=0, compare=False)


@dataclass(frozen=True)
class LiftConfig:
    """Tuning knobs for one induction step.

    disc_radius None sizes the search disc automatically as a fraction
    of the distance from the moving coordinate to the unit circle; an
    explicit value is still clamped so the disc stays inside.  The
    appended modulus ladder starts at append_modulus_step and deepens
    geometrically, consuming max_retries.
    """

    disc_radius: float | None = None
    boundary_samples: int = 256
    grid_samples: int = 64
    append_modulus_step: float = 0.5
    max_retries: int = 24
    real_positive_append: bool = True

    def __post_init__(self):
        if self.disc_radius is not None and not (0 < self.disc_radius < 1):
            raise ValueError("disc_radius must lie in (0, 1)")
        if self.boundary_samples < 64:
            raise ValueError("boundary_samples must be at least 64")
        if self.grid_samples < 8:
            raise ValueError("grid_samples must be at least 8")
        if not (0 < self.append_modulus_step < 1):
            raise ValueError("append_modulus_step must lie in (0, 1)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be nonnegative")


@dataclass(frozen=True)
class ZeroCertificate:
    """Machine-checkable record of a kernel zero.

    lambda/mu are in-domain tuples with pairwise distinct coordinates;
    residual_rel is |det| divided by the max row norm of the
    Cauchy-power matrix at the pair, re-checkable via recertify().
    """

    n: int
    lam: tuple[complex, ...]
    mu: tuple[complex, ...]
    residual_rel: float
    kernel_abs: float
    construction: str
    fn_witness: FnWitness
    tolerances: dict = field(default_factory=dict)
    parent: Optional["ZeroCertificate"] = None
    seed: int = 0

    def validate(self) -> None:
        if len(self.lam) != self.n or len(self.mu) != self.n:
            raise CertificationFailure("certificate dimension mismatch")
        for c in (*self.lam, *self.mu):
            if abs(c) >= 1.0:
                raise CertificationFailure(f"coordinate {c} not in the unit disc")
        if len(set(self.lam)) != self.n or len(set(self.mu)) != self.n:
            raise CertificationFailure("coordinates are not pairwise distinct")
        tol = self.tolerances.get("residual_rel", DEFAULT_TOL_LIFT)
        if not self.residual_rel <= tol:
            raise CertificationFailure(
                f"residual {self.residual_rel:.3e} exceeds tolerance {tol:.1e}"
            )
        if self.construction == "lift" and self.lam[-1] != self.mu[-1]:
            raise CertificationFailure("lifted certificate must share its appended coordinate")

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "n": self.n,
            "lambda": [[c.real, c.imag] for c in self.lam],
            "mu": [[c.real, c.imag] for c in self.mu],
            "residual_rel": self.residual_rel,
            "kernel_abs": self.kernel_abs,
            "construction": self.construction,
            "parent": self.parent.to_dict() if self.parent else None,
            "fn_witness": {
                "point": [self.fn_witness.point.real, self.fn_witness.point.imag],
                "value_abs": self.fn_witness.value_abs,
            },
            "seed": self.seed,
            "tolerances": dict(self.tolerances),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ZeroCertificate":
        if data.get("version") != 1:
            raise ValueError(f"unsupported certificate version: {data.get('version')}")
        wit = data["fn_witness"]
        return cls(
            n=data["n"],
            lam=tuple(complex(re, im) for re, im in data["lambda"]),
            mu=tuple(complex(re, im) for re, im in data["mu"]),
            residual_rel=data["residual_rel"],
            kernel_abs=data["kernel_abs"],
            construction=data["construction"],
            fn_witness=FnWitness(
                point=complex(wit["point"][0], wit["point"][1]),
                value_abs=wit["value_abs"],
            ),
            tolerances=dict(data.get("tolerances", {})),
            parent=cls.from_dict(data["parent"]) if data.get("parent") else None,
            seed=data.get("seed", 0),
        )


def _kernel_abs(det: complex, lam, mu) -> float:
    """|K| from the exact determinant: |det| / (pi^n |vandermonde_pair|).

    At a certified zero the float permanent is rounding noise, so the
    modulus is taken from the determinant the residual already used.
    """
    return abs(det) / (PI ** len(lam) * abs(vandermonde_pair(lam, mu)))


def recertify(cert: ZeroCertificate) -> dict:
    """Recompute the certificate's residual and kernel modulus from scratch."""
    det, scale = delta_with_scale(cert.lam, cert.mu)
    return {"residual_rel": abs(det) / scale, "kernel_abs": _kernel_abs(det, cert.lam, cert.mu)}


# --- quadratic ----------------------------------------------------------------


def solve_abc_quadratic(q: QuadraticData) -> list[complex]:
    """All roots of a z^2 - b z + 2c, sorted by modulus.

    Degenerate a = 0 gives the single root 2c/b; a = b = 0 has no root
    unless c = 0 too (then the equation is trivial, also rejected).
    """
    a, b, c = q.a, q.b, q.c
    if a == 0 and b == 0:
        raise NoSolution("a = b = 0 leaves no quadratic to solve")
    if a == 0:
        return [2 * c / b]
    sq = cmath.sqrt(b * b - 8 * a * c)
    if (b.conjugate() * sq).real < 0:
        sq = -sq
    big = (b + sq) / 2
    if big == 0:
        # b = 0 and c = 0: double root at the origin
        return [0j, 0j]
    roots = [big / a, 2 * c / big]
    return sorted(roots, key=abs)


# --- dimension 3 ---------------------------------------------------------------


def slice_determinant(lam: Sequence[complex], mu: Sequence[complex]) -> Callable[[complex], complex]:
    """x -> determinant of the pair ((x, lam_2, ..., lam_n), mu): the
    one-variable slice whose nontriviality the witnesses certify."""
    rest = tuple(lam[1:])
    mu_t = tuple(mu)

    def f(x: complex) -> complex:
        return delta_n((x, *rest), mu_t)

    return f


def _van_der_corput(k: int, base: int) -> float:
    v, denom = 0.0, 1.0
    while k:
        denom *= base
        k, digit = divmod(k, base)
        v += digit / denom
    return v


def disc_sequence(count: int, radius: float = 0.95):
    """Deterministic low-discrepancy points in the disc of given radius."""
    for k in range(count):
        r = radius * math.sqrt(_van_der_corput(k, 2))
        theta = 2 * math.pi * _van_der_corput(k, 3)
        yield r * cmath.exp(1j * theta)


def moment_identity_check(lam, mu, radius: float = 0.3, samples: int = 64) -> dict:
    """Cross-check the Taylor data of the dimension-3 first-slot slice.

    The j-th normalized derivative of the slice at 0 equals (j+1) times
    the determinant whose first row is (conj(mu_k)^j) and whose other
    rows are (1 - lambda_i conj(mu_k))^{-2} for i = 2, 3; the second row
    runs over all three conjugated mu coordinates (a repeated-column
    variant of the display is inconsistent and is what this check would
    catch).  Returns the worst relative gap over j = 0, 1, 2.
    """
    if len(lam) != 3 or len(mu) != 3:
        raise ValueError("moment identity is specific to dimension 3")
    f = slice_determinant(lam, mu)
    thetas = 2 * np.pi * np.arange(samples) / samples
    ring = [f(radius * cmath.exp(1j * th)) for th in thetas]
    worst = 0.0
    mubar = [m.conjugate() for m in mu]
    for j in range(3):
        coeff = sum(
            v * cmath.exp(-1j * j * th) for v, th in zip(ring, thetas)
        ) / (samples * radius**j)
        moment = det_pivoted(
            np.array(
                [
                    [mubar[0] ** j, mubar[1] ** j, mubar[2] ** j],
                    [(1 - lam[1] * mb) ** -2.0 for mb in mubar],
                    [(1 - lam[2] * mb) ** -2.0 for mb in mubar],
                ],
                dtype=complex,
            )
        )
        target = (j + 1) * moment
        ref = max(abs(coeff), abs(target))
        worst = max(worst, abs(coeff - target) / ref if ref else 0.0)
    return {"max_rel_diff": worst}


def fn_nontrivial(cert: ZeroCertificate, cap: int = 4096) -> FnWitness:
    """Find a decisive nonvanishing witness for the first-slot slice.

    Samples a deterministic low-discrepancy sequence in the disc until
    |f(x)| exceeds WITNESS_FACTOR times the certification tolerance times
    the local matrix scale.
    """
    if len(set(cert.mu)) != cert.n:
        raise WitnessNotFound("mu coordinates must be pairwise distinct")
    tol = cert.tolerances.get("residual_rel", DEFAULT_TOL_LIFT)
    rest = cert.lam[1:]
    for idx, x in enumerate(disc_sequence(cap), start=1):
        det, scale = delta_with_scale((x, *rest), cert.mu)
        if abs(det) > WITNESS_FACTOR * tol * scale:
            return FnWitness(point=x, value_abs=abs(det), samples=idx)
    raise WitnessNotFound(
        f"no witness after {cap} samples; the slice may be degenerate"
    )


def construct_zero_dim3(
    rho: float = 0.999,
    mu1_modulus: float = 0.9995,
    tol: float = DEFAULT_TOL_DIM3,
    seed: int = 0,
) -> ZeroCertificate:
    """Certified dimension-3 kernel zero near the unimodular base triple.

    nu = rho * base triple; the quadratic root nearest the reference
    root and inside the unit disc fixes mu_2/mu_1; mu_1 is placed on the
    positive real axis with the given modulus, mu_3 = 0, and
    lambda_j = nu_j / conj(mu_1).  The determinant residual is certified
    against `tol` relative to the matrix scale.
    """
    if not (0.0 < rho < mu1_modulus < 1.0):
        raise InvalidScaling(
            f"need 0 < rho < mu1_modulus < 1, got rho={rho}, mu1_modulus={mu1_modulus}"
        )
    nu = tuple(rho * w for w in TORUS_BASE)
    q = abc_coeffs(nu)
    roots = solve_abc_quadratic(q)
    inside = [z for z in roots if abs(z) < 1.0]
    if not inside:
        raise NoRootInUnitDisc(
            f"all quadratic roots have modulus >= 1 (moduli {[abs(z) for z in roots]})"
        )
    ref = reference_root()
    z = min(inside, key=lambda w: abs(w - ref))

    mu1 = complex(mu1_modulus)  # phase fixed real positive
    lam = tuple(v / mu1.conjugate() for v in nu)
    mu = (mu1, z.conjugate() * mu1, 0j)

    det, scale = delta_with_scale(lam, mu)
    residual = abs(det) / scale
    if not residual <= tol:
        raise CertificationFailure(
            f"dimension-3 residual {residual:.3e} exceeds tolerance {tol:.1e}"
        )
    kernel_abs = _kernel_abs(det, lam, mu)
    cert = ZeroCertificate(
        n=3,
        lam=lam,
        mu=mu,
        residual_rel=residual,
        kernel_abs=kernel_abs,
        construction="dim3",
        fn_witness=FnWitness(0j, 0.0),
        tolerances={"residual_rel": tol},
        seed=seed,
    )
    cert = replace(cert, fn_witness=fn_nontrivial(cert))
    cert.validate()
    return cert


# --- winding counts ------------------------------------------------------------


def count_zeros_disc(
    g: Callable[[np.ndarray], np.ndarray],
    center: complex,
    radius: float,
    start_samples: int = 64,
    max_samples: int = 1 << 14,
) -> tuple[int, float]:
    """Zero count of an analytic function inside a circle, by winding.

    g maps a complex array to the array of its values.  Integrates g'/g
    over the contour (trapezoid in the angle, derivative by central
    differences) with sample doubling until stable; each pass evaluates
    g once, at every contour point x and at x + h and x - h.  Returns
    the rounded count and the distance of the raw winding value to it.
    """
    h = 1e-6 * radius

    def winding(n_samples: int) -> complex:
        thetas = 2 * np.pi * np.arange(n_samples) / n_samples
        es = [cmath.exp(1j * th) for th in thetas]
        xs = [center + radius * e for e in es]
        gvs = np.asarray(g(np.array([*xs, *(x + h for x in xs), *(x - h for x in xs)]))).tolist()
        plus, minus = gvs[n_samples : 2 * n_samples], gvs[2 * n_samples :]
        total = 0j
        min_abs, argmin = math.inf, 0
        for i, (e, x, gv) in enumerate(zip(es, xs, gvs)):
            if gv == 0:
                raise ContourTooClose(f"g vanishes on the contour at {x}")
            if abs(gv) < min_abs:
                min_abs, argmin = abs(gv), i
            gp = (plus[i] - minus[i]) / (2 * h)
            total += gp / gv * e
        gv = gvs[argmin]
        gp = (plus[argmin] - minus[argmin]) / (2 * h)
        if gp != 0 and abs(gv / gp) < 1e-8:
            raise ContourTooClose(
                f"estimated zero distance {abs(gv / gp):.2e} from the contour"
            )
        return total * radius / n_samples

    n_samples = start_samples
    prev = winding(n_samples)
    while n_samples < max_samples:
        n_samples *= 2
        cur = winding(n_samples)
        if abs(cur - prev) < 0.01:
            prev = cur
            break
        prev = cur
    count = round(prev.real)
    gap = abs(prev - count)
    if gap > 0.1:
        raise NonIntegerWinding(f"winding value {prev} is not close to an integer")
    return int(count), float(gap)


# --- the induction step ---------------------------------------------------------


def _boundary_min_f(lam, mu, center, radius, samples) -> float:
    thetas = 2 * np.pi * np.arange(samples) / samples
    xs = center + radius * np.exp(1j * thetas)
    lams = np.tile(np.asarray(lam, dtype=complex), (samples, 1))
    lams[:, 0] = xs
    mus = np.tile(np.asarray(mu, dtype=complex), (samples, 1))
    dets = np.linalg.det(batch_cauchy_power(lams, mus))
    return float(np.abs(dets).min())


def _zero_corner_max(lam, mu, xs, ts) -> float:
    """Max of |h| over all (x, t) pairs, where h is the lifted
    determinant with its corner entry zeroed (the part of the lifted
    slice that stays bounded as the appended coordinate nears 1)."""
    n = len(lam)
    X, T = np.meshgrid(np.asarray(xs), np.asarray(ts), indexing="ij")
    X, T = X.ravel(), T.ravel()
    count = X.size
    lams = np.tile(np.concatenate([np.asarray(lam, complex), [0j]]), (count, 1))
    lams[:, 0] = X
    lams[:, n] = T
    mus = np.tile(np.concatenate([np.asarray(mu, complex), [0j]]), (count, 1))
    mus[:, n] = T
    mats = batch_cauchy_power(lams, mus)
    mats[:, n, n] = 0.0
    return float(np.abs(np.linalg.det(mats)).max())


def _grid_max_h(lam, mu, center, radius, grid) -> float:
    """Grid estimate of sup |h| over contour x closed unit disc.

    A golden-angle spiral deliberately undersamples the sharp ridges of
    |h| near unit-modulus points aligned with existing coordinates; the
    resulting optimistic ratio only seeds the appended-modulus ladder,
    whose candidates are each re-checked by the pointwise dominance test
    before being accepted.
    """
    xs = center + radius * np.exp(2j * np.pi * np.arange(grid) / grid)
    radii = np.sqrt((np.arange(grid) + 1.0) / grid)  # outermost ring hits 1
    angles = 2 * np.pi * ((np.arange(grid) * 0.618033988749895) % 1.0)
    ts = radii * np.exp(1j * angles)
    return _zero_corner_max(lam, mu, xs, ts)


def _g_handle(lam, mu, t: complex) -> Callable[[np.ndarray], np.ndarray]:
    """Lifted slice x -> det of the Cauchy-power matrix at
    ((x, lam_2, ..., lam_n, t), (mu, t)) in extended precision, for an
    array of x at once (the winding counts and Newton steps; final
    residuals are certified with the exact determinant)."""
    mu_c = np.conj(np.asarray((*mu, t), dtype=complex))
    lower = 1.0 - np.multiply.outer(np.asarray((*lam[1:], t), dtype=complex), mu_c)
    if np.any(lower == 0):
        raise SingularEntry("some 1 - lambda_j*conj(mu_k) vanishes")
    lower = lower**-2
    size = len(mu_c)

    def g(xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=complex)
        flat = xs.ravel()
        out = np.empty(flat.size, dtype=complex)
        for lo in range(0, flat.size, _BATCH_CHUNK):
            first = 1.0 - np.multiply.outer(flat[lo : lo + _BATCH_CHUNK], mu_c)
            if np.any(first == 0):
                raise SingularEntry("some 1 - lambda_j*conj(mu_k) vanishes")
            mats = np.empty((len(first), size, size), dtype=complex)
            mats[:, 0] = first**-2
            mats[:, 1:] = lower
            out[lo : lo + _BATCH_CHUNK] = det_pivoted(mats)
        return out.reshape(xs.shape)

    return g


def _polish_flat_direction(lam, mu, target_abs: float):
    """Drive the determinant to (essentially) zero by adjusting the
    smallest-modulus mu coordinate; returns the polished mu and the
    exact determinant there.

    Near the origin float spacing is astronomically fine, so that
    coordinate can absorb the residual left after the located zero is
    rounded to floats; Newton runs on the conjugated coordinate, in
    which the determinant is analytic, with exact evaluations.  It stops
    at a fixed point, where further steps would repeat the last one.
    """
    mu = tuple(mu)
    k = min(range(len(mu)), key=lambda i: abs(mu[i]))

    def moved(w: complex) -> tuple:
        return (*mu[:k], w.conjugate(), *mu[k + 1 :])

    w = mu[k].conjugate()
    d0 = start = delta_n(lam, mu)
    for _ in range(8):
        if abs(d0) <= target_abs:
            break
        h = max(abs(w) * 1e-3, 1e-18)
        deriv = (delta_n(lam, moved(w + h)) - d0) / h
        if deriv == 0:
            break
        w_next = w - d0 / deriv
        if w_next == w:
            break
        w = w_next
        if abs(w) > 0.5:  # direction turned out not to be flat; give up
            return mu, start
        d0 = delta_n(lam, moved(w))
    return moved(w), d0


def _newton_zero(g, start, radius, center) -> complex | None:
    h = _NEWTON_STEP_REL * radius
    x = start
    for _ in range(60):
        gv, g_plus, g_minus = g(np.array([x, x + h, x - h])).tolist()
        gp = (g_plus - g_minus) / (2 * h)
        if gp == 0:
            return None
        dx = gv / gp
        x = x - dx
        if abs(x - center) > 3 * radius:
            return None
        if abs(dx) < _NEWTON_CONVERGED:
            return x
    g_end, g_start = g(np.array([x, start])).tolist()
    return x if abs(g_end) < abs(g_start) else None


def lift_zero(
    cert: ZeroCertificate,
    config: LiftConfig | None = None,
    tol: float = DEFAULT_TOL_LIFT,
) -> ZeroCertificate:
    """One induction step: an (n+1)-dimensional certificate from an
    n-dimensional one, appending a common coordinate near 1 and moving
    the first lambda coordinate to a nearby zero of the lifted slice.
    """
    config = config or LiftConfig()
    if cert.fn_witness.value_abs <= 0:
        raise CertificationFailure("lift requires a certificate with a slice witness")
    lam, mu = cert.lam, cert.mu
    lam1 = lam[0]

    # keep the search disc inside the unit disc and clear of the other points
    gap = min(abs(lam1 - c) for c in lam[1:])
    radius = min(0.4 * (1 - abs(lam1)), 0.45 * gap)
    if config.disc_radius is not None:
        radius = min(config.disc_radius, radius)

    fmin = _boundary_min_f(lam, mu, lam1, radius, config.boundary_samples)
    hmax = _grid_max_h(lam, mu, lam1, radius, config.grid_samples)
    if not (fmin > 0 and hmax > 0 and math.isfinite(hmax)):
        raise DegenerateLift("degenerate boundary/grid estimates for the lift")
    m_est = fmin / hmax

    coords = (*lam, *mu)
    s = config.append_modulus_step
    retries = 0
    last_error: Exception = RoucheBoundViolated(
        f"no admissible appended coordinate: bound {m_est:.3e}, step {config.append_modulus_step}"
    )
    while retries <= config.max_retries:
        if s * s < m_est * M_SAFETY:
            # dodge collisions with existing coordinates by mild deepening;
            # the bound stays satisfied because s only shrinks
            s_try = s
            t = None
            for _ in range(12):
                modulus = math.sqrt(1.0 - s_try)
                cand = complex(modulus)
                if not config.real_positive_append:
                    cand = modulus * cmath.exp(0.9j)
                if modulus < 1.0 and min(abs(cand - c) for c in coords) > 0.05 * s_try:
                    t = cand
                    break
                s_try *= 0.9
            if t is None:
                last_error = DegenerateLift(
                    "appended coordinate collides with existing coordinates"
                )
            else:
                try:
                    return _finish_lift(cert, t, radius, fmin, tol, config)
                except (CertificationFailure, NonIntegerWinding, ContourTooClose, DegenerateLift) as exc:
                    last_error = exc
        s *= config.append_modulus_step
        retries += 1
    if isinstance(last_error, DegenerateLift):
        raise last_error
    raise RoucheBoundViolated(
        f"no admissible appended coordinate after {config.max_retries} retries "
        f"(bound {m_est:.3e}); last failure: {last_error}"
    ) from last_error


def _finish_lift(cert, t, radius, fmin, tol, config) -> ZeroCertificate:
    lam, mu, n = cert.lam, cert.mu, cert.n
    lam1 = lam[0]

    # verified dominance at the chosen coordinate: the perturbing part of
    # the lifted slice must stay below the parent slice on the contour,
    # otherwise the relocated zero may escape the disc
    xs = lam1 + radius * np.exp(2j * np.pi * np.arange(config.boundary_samples) / config.boundary_samples)
    h_at_t = _zero_corner_max(lam, mu, xs, np.array([t]))
    drop = (1.0 - abs(t) ** 2) ** 2
    if not drop * h_at_t < M_SAFETY * fmin:
        raise CertificationFailure(
            f"dominance check failed at appended coordinate: "
            f"{drop * h_at_t:.3e} vs boundary minimum {fmin:.3e}"
        )

    g = _g_handle(lam, mu, t)
    count, _gap = count_zeros_disc(g, lam1, radius, start_samples=config.boundary_samples)
    if count < 1:
        raise CertificationFailure("no zero of the lifted slice inside the disc")

    starts = [lam1]
    if count > 1:
        starts += [lam1 + 0.5 * radius * cmath.exp(2j * math.pi * k / 6) for k in range(6)]
    zeros = []
    for s0 in starts:
        z = _newton_zero(g, s0, radius, lam1)
        if z is not None and abs(z - lam1) <= radius and all(abs(z - w) > 1e-9 for w in zeros):
            zeros.append(z)
    if not zeros:
        raise CertificationFailure("Newton refinement found no zero inside the disc")
    new_lam1 = min(zeros, key=lambda z: abs(z - lam1))

    new_lam = (new_lam1, *lam[1:], t)
    new_mu = (*mu, t)
    if len(set(new_lam)) != n + 1 or len(set(new_mu)) != n + 1:
        raise DegenerateLift("lifted coordinates collide")
    if abs(new_lam1) >= 1.0:
        raise CertificationFailure("relocated coordinate left the unit disc")

    scale = matrix_scale(cauchy_power_matrix(new_lam, new_mu))
    new_mu, det = _polish_flat_direction(new_lam, new_mu, 1e-3 * tol * scale)
    if len(set(new_mu)) != n + 1:
        raise DegenerateLift("flat-direction polish collided coordinates")
    scale = matrix_scale(cauchy_power_matrix(new_lam, new_mu))
    residual = abs(det) / scale
    if not residual <= tol:
        raise CertificationFailure(
            f"lift residual {residual:.3e} exceeds tolerance {tol:.1e}"
        )
    kernel_abs = _kernel_abs(det, new_lam, new_mu)
    lifted = ZeroCertificate(
        n=n + 1,
        lam=new_lam,
        mu=new_mu,
        residual_rel=residual,
        kernel_abs=kernel_abs,
        construction="lift",
        fn_witness=FnWitness(0j, 0.0),
        tolerances={"residual_rel": tol},
        parent=cert,
        seed=cert.seed,
    )
    lifted = replace(lifted, fn_witness=fn_nontrivial(lifted))
    lifted.validate()
    return lifted


def build_certificate_chain(
    n: int,
    rho: float = 0.9945,
    mu1_modulus: float = 0.9985,
    config: LiftConfig | None = None,
    tol_dim3: float = DEFAULT_TOL_DIM3,
    tol_lift: float = DEFAULT_TOL_LIFT,
    seed: int = 0,
) -> ZeroCertificate:
    """Certificate for dimension n >= 3: the dimension-3 construction
    followed by n - 3 lifts.  The default shrink factors sit farther
    from the torus than the dimension-3 defaults because chained lifts
    need the extra conditioning margin."""
    if n < 3:
        raise ValueError("kernel zeros are constructed for n >= 3 only")
    cert = construct_zero_dim3(rho=rho, mu1_modulus=mu1_modulus, tol=tol_dim3, seed=seed)
    for _ in range(n - 3):
        cert = lift_zero(cert, config=config, tol=tol_lift)
    return cert


# --- sampling experiments --------------------------------------------------------


@dataclass(frozen=True)
class SamplingReport:
    """Minimum observed scaled determinant modulus over a sampled family.

    Reports evidence only; a strictly positive minimum certifies nothing
    beyond the sampled points.
    """

    mode: str
    samples: int
    seed: int
    min_scaled_abs: float
    argmin_lambda: tuple[complex, ...]
    argmin_mu: tuple[complex, ...]
    zero_found: bool
    diag_min_real: float | None = None
    diag_max_imag_ratio: float | None = None

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "samples": self.samples,
            "seed": self.seed,
            "min_scaled_abs": self.min_scaled_abs,
            "argmin_lambda": [[c.real, c.imag] for c in self.argmin_lambda],
            "argmin_mu": [[c.real, c.imag] for c in self.argmin_mu],
            "zero_found": self.zero_found,
            "diag_min_real": self.diag_min_real,
            "diag_max_imag_ratio": self.diag_max_imag_ratio,
        }


SAMPLING_MODES = ("g2_full", "g3_equal_third", "diagonal")
_EDGE_SHRINK = 1e-3  # samples are drawn from (1 - this) * unit polydisc


def _draw_disc(rng, shape) -> np.ndarray:
    return (1 - _EDGE_SHRINK) * np.sqrt(rng.random(shape)) * np.exp(
        2j * np.pi * rng.random(shape)
    )


def sample_nonvanishing(
    mode: str,
    samples: int,
    seed: int = 0,
    n: int = 3,
) -> SamplingReport:
    """Scan a family of pairs for small scaled determinant values.

    g2_full draws independent dimension-2 pairs; g3_equal_third draws
    dimension-3 pairs sharing the third coordinate; diagonal draws one
    tuple per sample and pairs it with itself (values should be real and
    positive).  Sampling is reproducible for a fixed seed.
    """
    if mode not in SAMPLING_MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {SAMPLING_MODES}")
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    if mode == "g2_full":
        lams = _draw_disc(rng, (samples, 2))
        mus = _draw_disc(rng, (samples, 2))
    elif mode == "g3_equal_third":
        lams = _draw_disc(rng, (samples, 3))
        mus = _draw_disc(rng, (samples, 3))
        mus[:, 2] = lams[:, 2]
    else:
        lams = _draw_disc(rng, (samples, n))
        mus = lams.copy()

    # slabs of about 2^18 matrix entries bound the work arrays
    slab = max(1, (1 << 18) // lams.shape[1] ** 2)
    dets = np.empty(samples, dtype=complex)
    scales = np.empty(samples)
    for lo in range(0, samples, slab):
        mats = batch_cauchy_power(lams[lo : lo + slab], mus[lo : lo + slab])
        dets[lo : lo + slab] = np.linalg.det(mats)
        scales[lo : lo + slab] = np.abs(mats).sum(axis=2).max(axis=1)
    scaled = np.abs(dets) / scales
    idx = int(np.argmin(scaled))
    diag_min_real = diag_ratio = None
    if mode == "diagonal":
        reals = dets.real
        diag_min_real = float(reals.min())
        diag_ratio = float(np.max(np.abs(dets.imag) / np.maximum(np.abs(reals), 1e-300)))
    return SamplingReport(
        mode=mode,
        samples=samples,
        seed=seed,
        min_scaled_abs=float(scaled[idx]),
        argmin_lambda=tuple(complex(c) for c in lams[idx]),
        argmin_mu=tuple(complex(c) for c in mus[idx]),
        zero_found=bool(scaled[idx] == 0.0),
        diag_min_real=diag_min_real,
        diag_max_imag_ratio=diag_ratio,
    )
