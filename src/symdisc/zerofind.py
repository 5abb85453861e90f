"""Certified zeros of the symmetrized-polydisc kernel.

The dimension-3 construction scales a fixed unimodular triple slightly
into the polydisc, solves the closed-form quadratic for the ratio of the
two nonzero mu coordinates, and certifies that the kernel vanishes at
the resulting pair.  Higher dimensions are reached inductively: append
a common coordinate t = sqrt(1 - s) to both tuples, on the fixed ladder
s = 2^-1, 2^-2, ..., and move the first lambda coordinate to the nearest
root of the fiber polynomial (kernel.fiber_polynomial), whose roots are
exactly the first coordinates at which the lifted kernel vanishes.  The
float root certifies as it stands.

Certification is post hoc throughout: K = per C / (pi^n prod B), and
an emitted certificate stores the cancellation ratio |per C| / per |C|
at its points, with per C exact at the stored float coordinates
(kernel.permanent_exact) and per |C| in floats.  The ratio is at most 1
and does not change when the matrix C is scaled, so one tolerance
serves every n.  count_zeros_disc, a winding-number zero count, is a
standalone tool; the lift does not use it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import exactfield
from .errors import (
    CertificationFailure,
    ContourTooClose,
    InvalidScaling,
    NonIntegerWinding,
    NoRootInUnitDisc,
    NoSolution,
    WitnessNotFound,
)
from .kernel import (
    QuadraticData,
    abc_coeffs,
    batch_cauchy_power,
    det_pivoted,
    fiber_polynomial,
    kernel_gn,
    kernel_ratio_slabs,
    permanent_exact,
)

# unimodular base triple of the construction, correctly rounded from its
# exact phases, and the reference root of the induced real quadratic
# p(x) = (3 sqrt3 - 5) x^2 + (3 sqrt6 - 6 sqrt2) x + (4 sqrt3 - 6)
TORUS_BASE = tuple(complex(w) for w in exactfield.TORUS_BASE)


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
_WITNESS_CAP = 4096  # disc samples fn_nontrivial tries before it gives up
_MOMENT_RADIUS, _MOMENT_SAMPLES = 0.3, 64  # the contour of moment_identity_check

# rungs s = 2^-1 .. 2^-24 of the appended coordinate t = sqrt(1 - s)
_LIFT_CANDIDATES = 24


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
class ZeroCertificate:
    """Machine-checkable record of a kernel zero.

    lambda/mu are in-domain tuples with pairwise distinct coordinates.
    With B_jk = 1 - lambda_j conj(mu_k) and C = 1/B, residual_rel is the
    cancellation ratio |per C| / per |C| at the pair (per C exact at the
    stored coordinates, rounded once; per |C| in floats) and kernel_abs
    is |per C| / |pi^n prod B| = |K|; both are re-checkable via
    recertify().  The witness value_abs is the same ratio at the
    witness point.
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
        )


def _cancellation(lam, mu) -> tuple[float, float]:
    """(|per C| / per |C|, |per C| / |pi^n prod B|) at a pair.

    At a zero the float per C is rounding noise, so per C is taken
    exactly; per |C| and pi^n prod B come from the float evaluation.
    Fails closed: a zero or non-finite per |C| or pi^n prod B raises
    instead of giving a ratio of 0.
    """
    ev = kernel_gn(lam, mu)
    den = abs(ev.denominator)
    if not (0 < ev.scale < math.inf and 0 < den < math.inf):
        raise CertificationFailure(
            f"per |C| = {ev.scale:.3e} and |pi^n prod B| = {den:.3e} must be finite and nonzero"
        )
    per = abs(permanent_exact(lam, mu))
    return per / ev.scale, per / den


def recertify(cert: ZeroCertificate) -> dict:
    """Recompute the certificate's residual and kernel modulus from scratch."""
    residual, kernel_abs = _cancellation(cert.lam, cert.mu)
    return {"residual_rel": residual, "kernel_abs": kernel_abs}


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


def moment_identity_check(lam, mu) -> dict:
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
    radius, samples = _MOMENT_RADIUS, _MOMENT_SAMPLES
    thetas = 2 * np.pi * np.arange(samples) / samples
    lams = np.tile(np.asarray(lam, dtype=complex), (samples, 1))
    lams[:, 0] = radius * np.exp(1j * thetas)
    mus = np.tile(np.asarray(mu, dtype=complex), (samples, 1))
    ring = det_pivoted(batch_cauchy_power(lams, mus))
    js = np.arange(3)
    coeffs = (ring * np.exp(-1j * np.multiply.outer(js, thetas))).sum(axis=1) / (samples * radius**js)
    mubar = np.conj(np.asarray(mu, dtype=complex))
    lower = (1 - np.multiply.outer(np.asarray(lam[1:], dtype=complex), mubar)) ** -2.0
    moments = det_pivoted(np.stack([np.concatenate([[mubar**j], lower]) for j in js]))
    targets = (js + 1) * moments
    ref = np.maximum(np.abs(coeffs), np.abs(targets))
    gaps = np.abs(coeffs - targets) / np.where(ref > 0, ref, 1.0)
    return {"max_rel_diff": float(gaps.max())}


def fn_nontrivial(cert: ZeroCertificate) -> FnWitness:
    """Find a decisive nonvanishing witness for the first-slot slice.

    Samples a deterministic low-discrepancy sequence in the disc until
    the cancellation ratio |per C| / per |C| at (x, lambda_2..lambda_n)
    exceeds WITNESS_FACTOR times the certification tolerance.
    """
    if len(set(cert.mu)) != cert.n:
        raise WitnessNotFound("mu coordinates must be pairwise distinct")
    tol = cert.tolerances.get("residual_rel", DEFAULT_TOL_LIFT)
    rest = cert.lam[1:]
    for idx, x in enumerate(disc_sequence(_WITNESS_CAP), start=1):
        ratio, _ = _cancellation((x, *rest), cert.mu)
        if ratio > WITNESS_FACTOR * tol:
            return FnWitness(point=x, value_abs=ratio, samples=idx)
    raise WitnessNotFound(
        f"no witness after {_WITNESS_CAP} samples; the slice may be degenerate"
    )


def construct_zero_dim3(
    rho: float = 0.999,
    mu1_modulus: float = 0.9995,
) -> ZeroCertificate:
    """Certified dimension-3 kernel zero near the unimodular base triple.

    nu = rho * base triple; the quadratic root nearest the reference
    root and inside the unit disc fixes mu_2/mu_1; mu_1 is placed on the
    positive real axis with the given modulus, mu_3 = 0, and
    lambda_j = nu_j / conj(mu_1).  The cancellation ratio
    |per C| / per |C| there is certified against DEFAULT_TOL_DIM3.
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

    residual, kernel_abs = _cancellation(lam, mu)
    if not residual <= DEFAULT_TOL_DIM3:
        raise CertificationFailure(
            f"dimension-3 residual {residual:.3e} exceeds tolerance {DEFAULT_TOL_DIM3:.1e}"
        )
    cert = ZeroCertificate(
        n=3,
        lam=lam,
        mu=mu,
        residual_rel=residual,
        kernel_abs=kernel_abs,
        construction="dim3",
        fn_witness=FnWitness(0j, 0.0),
        tolerances={"residual_rel": DEFAULT_TOL_DIM3},
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


def lift_zero(cert: ZeroCertificate) -> ZeroCertificate:
    """One induction step: an (n+1)-dimensional certificate from an
    n-dimensional one, appending a common coordinate t near 1 and moving
    the first lambda coordinate to a nearby zero of the lifted slice.

    The rungs s = 2^-1, 2^-2, ... give t = sqrt(1 - s).  At each, the
    zero is the root of the fiber polynomial q((lam_2..lam_n, t); (mu, t))
    nearest lam_1; the first rung whose root lies in the search disc,
    keeps every coordinate distinct and certifies against
    DEFAULT_TOL_LIFT is accepted.
    """
    if cert.fn_witness.value_abs <= 0:
        raise CertificationFailure("lift requires a certificate with a slice witness")
    lam, mu, n = cert.lam, cert.mu, cert.n
    lam1 = lam[0]
    tol = DEFAULT_TOL_LIFT

    # keep the search disc inside the unit disc and clear of the other points
    gap = min(abs(lam1 - c) for c in lam[1:])
    radius = min(0.4 * (1 - abs(lam1)), 0.45 * gap)

    rejected = dict.fromkeys(
        ("outside the search disc", "repeated coordinates", "residual above tolerance"), 0
    )
    best = math.inf
    s = 1.0
    for _ in range(_LIFT_CANDIDATES):
        s /= 2
        t = complex(math.sqrt(1.0 - s))
        new_mu = (*mu, t)
        roots = np.roots(fiber_polynomial((*lam[1:], t), new_mu))
        x = complex(min(roots, key=lambda r: abs(r - lam1), default=math.inf))
        if not abs(x - lam1) <= radius:
            rejected["outside the search disc"] += 1
            continue
        new_lam = (x, *lam[1:], t)
        # a rung can repeat an earlier appended coordinate, and a
        # certificate's coordinates must be pairwise distinct
        if len(set(new_lam)) != n + 1 or len(set(new_mu)) != n + 1:
            rejected["repeated coordinates"] += 1
            continue
        residual, kernel_abs = _cancellation(new_lam, new_mu)
        if not residual <= tol:
            rejected["residual above tolerance"] += 1
            best = min(best, residual)
            continue
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
        )
        lifted = replace(lifted, fn_witness=fn_nontrivial(lifted))
        lifted.validate()
        return lifted
    reasons = ", ".join(f"{count} {why}" for why, count in rejected.items() if count)
    raise CertificationFailure(
        f"no lift to n = {n + 1} certified in {_LIFT_CANDIDATES} rungs ({reasons}; "
        f"smallest residual {best:.3e} against tolerance {tol:.1e})"
    )


def build_certificate_chain(
    n: int,
    rho: float = 0.9945,
    mu1_modulus: float = 0.9985,
) -> ZeroCertificate:
    """Certificate for dimension n >= 3: the dimension-3 construction
    followed by n - 3 lifts.  The default shrink factors sit farther
    from the torus than the dimension-3 defaults because chained lifts
    need the extra conditioning margin."""
    if n < 3:
        raise ValueError("kernel zeros are constructed for n >= 3 only")
    cert = construct_zero_dim3(rho=rho, mu1_modulus=mu1_modulus)
    for _ in range(n - 3):
        cert = lift_zero(cert)
    return cert


# --- sampling experiments --------------------------------------------------------


@dataclass(frozen=True)
class SamplingReport:
    """Least cancellation ratio |per C| / per |C|, the residual of a
    certificate, over a sampled family (min_scaled_abs, at the pair
    argmin_*); in diagonal mode also the least real part and the largest
    |imag| / |real| of the values K(lambda, lambda).

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


# pairs drawn and scored per slab of sample_nonvanishing, as many as in a
# slab of the batch evaluators: a job's memory does not grow with its count
_SAMPLE_CHUNK = 1024


def _disc_points(radial: np.ndarray, angular: np.ndarray) -> np.ndarray:
    """Points of the shrunken disc from uniforms in [0, 1), elementwise."""
    return (1 - _EDGE_SHRINK) * np.sqrt(radial) * np.exp(2j * np.pi * angular)


def _draw_disc(rng, shape) -> np.ndarray:
    return _disc_points(rng.random(shape), rng.random(shape))


def _disc_slabs(seed: int, tuples: int, samples: int, width: int):
    """Slabs of _SAMPLE_CHUNK rows of the `tuples` arrays that consecutive
    _draw_disc(rng, (samples, width)) calls on rng = default_rng(seed)
    return, none of them held whole.

    Each call takes samples * width radial uniforms and then as many
    angular ones; every such run gets its own generator, advanced to the
    run's start in rng's stream, which draws it slab by slab.
    """
    size = samples * width
    runs = []
    for k in range(2 * tuples):
        bits = np.random.PCG64(seed)
        bits.advance(k * size)
        runs.append(np.random.Generator(bits))
    for lo in range(0, samples, _SAMPLE_CHUNK):
        shape = (min(_SAMPLE_CHUNK, samples - lo), width)
        yield [
            _disc_points(radial.random(shape), angular.random(shape))
            for radial, angular in zip(runs[0::2], runs[1::2])
        ]


def sample_nonvanishing(
    mode: str,
    samples: int,
    seed: int = 0,
    n: int | None = None,
) -> SamplingReport:
    """Scan a family of pairs for small cancellation ratios.

    g2_full draws independent dimension-2 pairs; g3_equal_third draws
    dimension-3 pairs sharing the third coordinate; diagonal draws one
    n-tuple per sample (n = 3 by default; only this mode takes n) and
    pairs it with itself (values should be real and positive).  Every
    pair is scored by kernel_ratio_slabs, kernel_gn's formula.  Sampling
    is reproducible for a fixed seed.
    """
    if mode not in SAMPLING_MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {SAMPLING_MODES}")
    if samples < 1:
        raise ValueError("samples must be positive")
    if n is None:
        n = 3
    elif mode != "diagonal":
        raise ValueError(f"n sets the dimension of diagonal mode only; {mode} fixes its own")
    if n < 1:
        raise ValueError("n must be positive")
    width = {"g2_full": 2, "g3_equal_third": 3}.get(mode, n)
    least, argmin = math.inf, None
    diag_min_real, diag_ratio = math.inf, 0.0

    def pairs():
        for slab in _disc_slabs(seed, 1 if mode == "diagonal" else 2, samples, width):
            lams, mus = slab[0], slab[-1]
            if mode == "g3_equal_third":
                mus[:, 2] = lams[:, 2]
            yield lams, mus

    for lams, mus, values, ratios in kernel_ratio_slabs(pairs()):
        idx = int(np.argmin(ratios))
        if argmin is None or ratios[idx] < least:
            least = float(ratios[idx])
            argmin = tuple(tuple(complex(c) for c in pts[idx]) for pts in (lams, mus))
        if mode == "diagonal":
            reals = values.real
            diag_min_real = min(diag_min_real, float(reals.min()))
            imag_ratio = np.abs(values.imag) / np.maximum(np.abs(reals), 1e-300)
            diag_ratio = max(diag_ratio, float(imag_ratio.max()))
    if mode != "diagonal":
        diag_min_real = diag_ratio = None
    return SamplingReport(
        mode=mode,
        samples=samples,
        seed=seed,
        min_scaled_abs=least,
        argmin_lambda=argmin[0],
        argmin_mu=argmin[1],
        zero_found=least == 0.0,
        diag_min_real=diag_min_real,
        diag_max_imag_ratio=diag_ratio,
    )
