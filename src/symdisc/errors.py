"""Exception hierarchy shared across the package.

Everything derives from SymdiscError so callers (and the CLI) can trap
numerical failures in one place.  Usage errors are plain ValueError.
"""


class SymdiscError(Exception):
    """Base class for all package-specific failures."""


class SolverFailure(SymdiscError):
    """The eigenvalue solve that inverts the symmetrization failed."""


class SingularEntry(SymdiscError):
    """Some 1 - lambda_j * conj(mu_k) vanished; matrix entry undefined."""


class NotInDomain(SymdiscError):
    """Point failed the open-domain membership check."""


class MuOneZero(SymdiscError):
    """The closed dimension-3 form needs mu_1 != 0."""


class NoSolution(SymdiscError):
    """Degenerate quadratic with no roots (a = b = 0, c != 0)."""


class NoRootInUnitDisc(SymdiscError):
    """Every root of the quadratic lies outside the open unit disc."""


class InvalidScaling(SymdiscError):
    """Shrink factors for the zero construction violate 0 < rho < |mu_1| < 1."""


class WitnessNotFound(SymdiscError):
    """The slice ratio at the origin is not decisively nonzero (suspicious input)."""


class ContourTooClose(SymdiscError):
    """A zero sits too close to the integration contour for safe counting."""


class NonIntegerWinding(SymdiscError):
    """Winding integral did not settle near an integer."""


class CertificationFailure(SymdiscError):
    """Residual of a constructed zero exceeded the certification tolerance."""
