"""Certified zeros of the symmetrized-polydisc kernel.

The dimension-3 construction scales a fixed unimodular triple slightly
into the polydisc, solves the closed-form quadratic for the ratio of the
two nonzero mu coordinates, and certifies that the kernel vanishes at
the resulting pair.  Higher dimensions are reached inductively
(lift_zero): append a common coordinate t near 1 to both tuples and move
the first lambda coordinate to the nearest root of the fiber polynomial,
whose roots are exactly the first coordinates at which the lifted kernel
vanishes.

Certification is post hoc throughout: K = per C / (pi^n prod B), and a
certificate stores the cancellation ratio |per C| / per |C| at its
points, with per C exact at the stored float coordinates
(kernel.permanent_exact) and per |C| in floats.  The ratio is at most 1
and does not change when C is scaled, so a construction has one
tolerance for every n.  The slice witness shows per C != 0 at x = 0 of
the first slot's slice by the float ratio there, less a forward-error
bound (kernel.numerator_error).  _certified is the one step that makes a
node; recheck rebuilds a chain read back through it, from the stored
coordinates alone.  count_zeros_disc, a winding-number zero count, is a
standalone tool; the lift does not use it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass
from types import MappingProxyType
from typing import Callable, Optional

import numpy as np

from . import exactfield, kernel
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
    fiber_coefficients,
    fiber_minors,
    fiber_zero_free,
    kernel_gn,
    kernel_gn_with_error,
    kernel_ratio_slabs,
    permanent_exact,
)
from .symcore import companion_roots

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


# (rho, |mu_1|) at the root of every chain, as far from the torus as the lifts need
DEFAULT_RHO, DEFAULT_MU1 = 0.9945, 0.9985
DEFAULT_TOL_DIM3 = 1e-10
DEFAULT_TOL_LIFT = 1e-8
WITNESS_FACTOR = 1e3
_MOMENT_RADIUS, _MOMENT_SAMPLES = 0.3, 64  # the contour of moment_identity_check

# rungs s = 2^-1 .. 2^-24 of the appended coordinate t = sqrt(1 - s)
_LIFT_CANDIDATES = 24
# the lift skips a rung whose fiber polynomial kernel.fiber_zero_free proves
# root-free within this many search radii of lambda_1.  The companion solve
# would have to move a root by more than a search radius to put it in the
# search disc of such a rung, so the screen skips only rungs the loop would
# reject
_SCREEN_MARGIN = 2.0


def _tolerance(parent) -> float:
    """The residual tolerance of a node under parent (None at a root), looked up at call time."""
    return DEFAULT_TOL_DIM3 if parent is None else DEFAULT_TOL_LIFT


@dataclass(frozen=True)
class ZeroCertificate:
    """Machine-checkable record of a kernel zero, one node of a chain.

    A node stores only facts: lambda/mu are in-domain tuples with pairwise
    distinct coordinates; with B_jk = 1 - lambda_j conj(mu_k) and C = 1/B,
    residual_rel is the cancellation ratio |per C| / per |C| at the pair
    (per C exact at the stored coordinates, rounded once; per |C| in
    floats) and kernel_abs is |per C| / |pi^n prod B| = |K| (inf where it
    overflows or pi^n prod B underflows, null in JSON), both re-checkable
    via recertify(); witness_abs is the same ratio with per C in floats
    at x = 0 of the first slot's slice (fn_nontrivial).  The rest follows
    from the chain: n is the coordinate count, the construction is dim3
    at a root and lift under a parent, and the tolerance is the
    construction's.
    """

    lam: tuple[complex, ...]
    mu: tuple[complex, ...]
    residual_rel: float
    kernel_abs: float
    witness_abs: float
    parent: Optional["ZeroCertificate"] = None

    @property
    def n(self) -> int:
        return len(self.lam)

    @property
    def construction(self) -> str:
        return "dim3" if self.parent is None else "lift"

    @property
    def tolerance(self) -> float:
        """The residual tolerance of the node's construction."""
        return _tolerance(self.parent)

    @property
    def tolerances(self) -> MappingProxyType:
        """The tolerance as the file states it: {"residual_rel": tolerance}."""
        return MappingProxyType({"residual_rel": self.tolerance})

    def nodes(self):
        """The certificate and its ancestors, from it to the root."""
        node = self
        while node is not None:
            yield node
            node = node.parent

    def validate(self) -> None:
        """What a record must state, checked without recomputing anything
        (recheck recomputes the residual, modulus and witness).  A root has 3
        coordinates; a node with a parent has one more, keeps the parent's
        lambda_2..lambda_n and shares its appended coordinate.  The mu before
        it are not compared: schema-1 files polished them between nodes."""
        n, parent = self.n, self.parent
        if len(self.mu) != n:
            raise CertificationFailure("certificate dimension mismatch")
        want = 3 if parent is None else parent.n + 1
        if n != want:
            raise CertificationFailure(f"a {self.construction} node has {want} coordinates, not {n}")
        if parent is not None and self.lam[1:] != (*parent.lam[1:], self.mu[-1]):
            raise CertificationFailure("a lift keeps lambda_2..lambda_n and shares its new coordinate")
        for c in (*self.lam, *self.mu):
            if not abs(c) < 1.0:  # fails closed on nan
                raise CertificationFailure(f"coordinate {c} not in the unit disc")
        if len(set(self.lam)) != n or len(set(self.mu)) != n:
            raise CertificationFailure("coordinates are not pairwise distinct")
        if not self.residual_rel <= self.tolerance:
            raise CertificationFailure(
                f"residual {self.residual_rel:.3e} exceeds tolerance {self.tolerance:.1e}"
            )
        if not 0 < self.witness_abs < math.inf:
            raise CertificationFailure(f"slice witness {self.witness_abs!r} must be finite and positive")

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "n": self.n,
            "lambda": [[c.real, c.imag] for c in self.lam],
            "mu": [[c.real, c.imag] for c in self.mu],
            "residual_rel": self.residual_rel,
            # |K| is inf from n = 12 on the default chain; JSON has no inf
            "kernel_abs": self.kernel_abs if math.isfinite(self.kernel_abs) else None,
            "construction": self.construction,
            "parent": self.parent.to_dict() if self.parent else None,
            "fn_witness": {"point": [0.0, 0.0], "value_abs": self.witness_abs},
            "tolerances": dict(self.tolerances),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ZeroCertificate":
        """The certificate a to_dict() record holds; a record of another
        shape raises ValueError naming the field at fault, and one whose n or
        construction contradicts the chain, or whose witness point (otherwise
        not kept) is not finite, raises CertificationFailure naming the node."""
        if not isinstance(data, dict):
            raise ValueError(f"a certificate is a JSON object, not {type(data).__name__}")
        if data.get("version") != 1:
            raise ValueError(f"unsupported certificate version: {data.get('version')}")
        wit = _field(data, "fn_witness", dict)
        kernel_abs = _field(data, "kernel_abs", (*_NUMBER, type(None)))
        stated_n, construction = _field(data, "n", int), _field(data, "construction", str)
        point = _point(_field(wit, "point", list), "fn_witness.point")
        cert = cls(
            lam=tuple(_point(p, "lambda") for p in _field(data, "lambda", list)),
            mu=tuple(_point(p, "mu") for p in _field(data, "mu", list)),
            residual_rel=_field(data, "residual_rel", _NUMBER),
            kernel_abs=math.inf if kernel_abs is None else kernel_abs,
            witness_abs=_field(wit, "value_abs", _NUMBER),
            parent=cls.from_dict(data["parent"]) if data.get("parent") else None,
        )
        for bad, fault in (
            (stated_n != cert.n, f"certificate dimension mismatch: n={stated_n} stated"),
            (construction not in ("dim3", "lift"), f"unknown construction {construction!r}"),
            (construction != cert.construction, f"construction {construction!r} contradicts the parent link"),
            (not cmath.isfinite(point), f"slice witness at {point!r} must be at a finite point"),
        ):
            if bad:
                raise CertificationFailure(f"node n={cert.n}: {fault}")
        stated = data.get("tolerances", cert.tolerances)
        if stated != cert.tolerances:  # the construction sets the bar, not the file
            raise ValueError(f"certificate field 'tolerances' is {stated}, not {dict(cert.tolerances)}")
        return cert


_NUMBER = (int, float)


def _field(data: dict, key: str, kind):
    """data[key], required to be of type kind."""
    if key not in data:
        raise ValueError(f"certificate has no {key!r} field")
    value = data[key]
    if not isinstance(value, kind):
        raise ValueError(f"certificate field {key!r} has type {type(value).__name__}")
    return value


def _point(pair, key: str) -> complex:
    """The complex number a [re, im] pair of numbers stands for."""
    if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, _NUMBER) for x in pair)):
        raise ValueError(f"certificate field {key!r} holds {pair!r}, not a [re, im] pair of numbers")
    return complex(*pair)


def _cancellation(lam, mu) -> tuple[float, float]:
    """(|per C| / per |C|, |per C| / |pi^n prod B|) at a pair.

    At a zero the float per C is rounding noise, so per C is taken
    exactly; per |C| and pi^n prod B come from the float evaluation.
    Fails closed: a zero or non-finite per |C|, or a non-finite
    pi^n prod B, raises instead of giving a ratio of 0.  A pi^n prod B
    that underflows to 0 gives a kernel_abs of inf, as where |K|
    overflows: at the n = 13 node of the default chain |pi^n prod B| is
    about 5e-378 and |per C| about 3e34, so |K| is about 6e411, and inf
    is its correctly rounded value.  The residual does not read
    pi^n prod B.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # K is not read
        ev = kernel_gn(lam, mu)
    den = abs(ev.denominator)
    if not (0 < ev.scale < math.inf and den < math.inf):
        raise CertificationFailure(
            f"per |C| = {ev.scale:.3e} must be finite and nonzero and "
            f"|pi^n prod B| = {den:.3e} finite"
        )
    per = abs(permanent_exact(lam, mu))
    return per / ev.scale, per / den if den else math.inf


def recertify(cert: ZeroCertificate) -> dict:
    """Recompute the certificate's residual and kernel modulus from scratch."""
    residual, kernel_abs = _cancellation(cert.lam, cert.mu)
    return {"residual_rel": residual, "kernel_abs": kernel_abs}


def recheck(cert: ZeroCertificate) -> ZeroCertificate:
    """The certificate's chain rebuilt from its stored coordinates alone:
    root first, each node has to pass validate() as stored, and _certified
    makes it anew from recertify's residual and modulus on the rebuilt
    parent, so no stored number reaches the result.  Raises
    CertificationFailure naming the first node, from the root, that fails."""
    rebuilt = None
    for node in reversed(list(cert.nodes())):
        try:
            node.validate()
            again = recertify(node)
            rebuilt = _certified(node.lam, node.mu, again["residual_rel"], again["kernel_abs"], rebuilt)
        except (CertificationFailure, WitnessNotFound) as exc:
            raise CertificationFailure(f"node n={node.n}: {exc}") from exc
    return rebuilt


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


def fn_nontrivial(lam, mu, tol: float) -> float:
    """A certificate's witness_abs: the float cancellation ratio at x = 0
    of the first-slot slice of the pair (lam, mu), returned only where it
    shows decisively that the slice is not identically zero.

    The ratio |per C| / per |C| of kernel_gn at
    (0, lam_2..lam_n; mu), less a bound B on its distance to the same
    ratio with per C exact (kernel.numerator_error over per |C|), has to
    exceed WITNESS_FACTOR times the tolerance tol; the float ratio then
    proves per C != 0 there, with no exact permanent.  It is about 0.68
    at the witnesses of the default chains, against a B of 2e-9 at n = 7
    and 6e-4 at n = 12.  Where it is not decisive (a nan included),
    WitnessNotFound is raised.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # as in _cancellation
        ev, error = kernel_gn_with_error((0j, *lam[1:]), mu)
    if not 0 < ev.scale < math.inf:
        raise CertificationFailure(f"per |C| = {ev.scale:.3e} must be finite and nonzero")
    ratio, bound = abs(ev.numerator) / ev.scale, error / ev.scale
    threshold = WITNESS_FACTOR * tol
    if not ratio - bound > threshold:
        raise WitnessNotFound(
            f"slice ratio {ratio:.3e} at x = 0, less its bound {bound:.1e}, "
            f"is not above {threshold:.1e}"
        )
    return ratio


def _certified(lam, mu, residual, kernel_abs, parent=None) -> ZeroCertificate:
    """The one step that makes a node, new or rebuilt by recheck, a lift of
    parent or a dim3 root: the slice witness at the construction's
    tolerance, and validate(), which checks the residual and the link."""
    witness_abs = fn_nontrivial(lam, mu, _tolerance(parent))
    cert = ZeroCertificate(lam, mu, residual, kernel_abs, witness_abs, parent)
    cert.validate()
    return cert


def zero_point_dim3(
    rho: float = DEFAULT_RHO,
    mu1_modulus: float = DEFAULT_MU1,
) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """The float pair (lam, mu) of the dimension-3 zero near the
    unimodular base triple, uncertified; construct_zero_dim3 certifies it.

    nu = rho * base triple; the quadratic root nearest the reference
    root and inside the unit disc fixes mu_2/mu_1; mu_1 is placed on the
    positive real axis with the given modulus, mu_3 = 0, and
    lambda_j = nu_j / conj(mu_1).  Raises InvalidScaling unless
    0 < rho < mu1_modulus < 1, and NoRootInUnitDisc if no root of the
    quadratic lies inside the unit disc.
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
    return lam, mu


def construct_zero_dim3(
    rho: float = DEFAULT_RHO,
    mu1_modulus: float = DEFAULT_MU1,
) -> ZeroCertificate:
    """Certified dimension-3 kernel zero near the unimodular base triple,
    by default the root of every chain build_certificate_chain makes.

    The pair is zero_point_dim3(rho, mu1_modulus), whose errors this
    raises; the cancellation ratio |per C| / per |C| there is certified
    against DEFAULT_TOL_DIM3, with the slice witness, by _certified.
    """
    lam, mu = zero_point_dim3(rho, mu1_modulus)
    return _certified(lam, mu, *_cancellation(lam, mu))


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
        last, prev = prev, winding(n_samples)
        if abs(prev - last) < 0.01:
            break
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
    DEFAULT_TOL_LIFT is accepted.  The minor permanents of all the rungs'
    fibers come from one stacked kernel.fiber_minors call.  From them
    kernel.fiber_zero_free proves, for all the rungs at once, which
    polynomials have no root within _SCREEN_MARGIN search radii of lam_1:
    such a rung counts as outside the search disc without a solve.  The
    distance from lam_1 to the nearest root about halves from one rung to
    the next, so the screen clears all but the last few rungs below the
    accepted one.  Any other rung's polynomial is assembled and solved
    only when the loop reaches it.  A failure says how many rungs failed
    for which reason and how many of them the bound cleared.  The input
    has to pass validate(), so a failing node never becomes a parent, and
    the new node is its lift: it keeps lam_2..lam_n and shares t.
    """
    cert.validate()
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
    rungs = [complex(math.sqrt(1.0 - 2.0**-k)) for k in range(1, _LIFT_CANDIDATES + 1)]
    mus = [(*mu, t) for t in rungs]
    pers, _ = fiber_minors([(*lam[1:], t) for t in rungs], mus)
    cleared = fiber_zero_free(pers, mus, lam1, _SCREEN_MARGIN * radius)
    for t, new_mu, minors, skip in zip(rungs, mus, pers, cleared):
        if skip:
            rejected["outside the search disc"] += 1
            continue
        (roots,) = companion_roots([fiber_coefficients(minors, new_mu)])
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
        return _certified(new_lam, new_mu, residual, kernel_abs, parent=cert)
    reasons = ", ".join(f"{count} {why}" for why, count in rejected.items() if count)
    raise CertificationFailure(
        f"no lift to n = {n + 1} certified in {_LIFT_CANDIDATES} rungs ({reasons}; "
        f"{int(cleared.sum())} cleared by the zero-exclusion bound without a solve; "
        f"smallest residual {best:.3e} against tolerance {tol:.1e})"
    )


def build_certificate_chain(
    n: int,
    rho: float = DEFAULT_RHO,
    mu1_modulus: float = DEFAULT_MU1,
) -> ZeroCertificate:
    """Certificate for dimension n >= 3: the dimension-3 construction at
    (rho, mu1_modulus) followed by n - 3 lifts, so every n at the same
    point shares its nodes below n."""
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
            **asdict(self),
            "argmin_lambda": [[c.real, c.imag] for c in self.argmin_lambda],
            "argmin_mu": [[c.real, c.imag] for c in self.argmin_mu],
        }


SAMPLING_MODES = ("g2_full", "g3_equal_third", "diagonal")
_EDGE_SHRINK = 1e-3  # samples are drawn from (1 - this) * unit polydisc


def _disc_points(radial: np.ndarray, angular: np.ndarray) -> np.ndarray:
    """Points of the shrunken disc from uniforms in [0, 1), elementwise."""
    return (1 - _EDGE_SHRINK) * np.sqrt(radial) * np.exp(2j * np.pi * angular)


def _draw_disc(rng, shape) -> np.ndarray:
    return _disc_points(rng.random(shape), rng.random(shape))


def _disc_slabs(seed: int, tuples: int, samples: int, width: int):
    """Slabs of kernel._BATCH_CHUNK rows of the `tuples` arrays that
    consecutive _draw_disc(rng, (samples, width)) calls on
    rng = default_rng(seed) return, none of them held whole, so a job's
    memory does not grow with its count.

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
    chunk = kernel._BATCH_CHUNK
    for lo in range(0, samples, chunk):
        shape = (min(chunk, samples - lo), width)
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
