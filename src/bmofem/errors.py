"""Exception types shared across the package."""


class BmofemError(Exception):
    """Base class for every error raised by this package."""


class MeshBoundsError(BmofemError, ValueError):
    """Requested refinement level outside the supported range."""


class SingularityError(BmofemError):
    """A field evaluated to a non-finite value at a quadrature or sample point."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class QuadratureError(BmofemError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class InvariantError(BmofemError):
    """A declared data invariant (symmetry, alignment, trace) is violated."""


class AssemblyError(BmofemError):
    """Assembly refused, e.g. because the coefficient is not coercive."""


class NotSPDError(BmofemError):
    """The linear system exposed nonpositive curvature during CG."""


class IterationLimitError(BmofemError):
    """CG hit its iteration cap before reaching the residual tolerance."""

    def __init__(self, message: str, relative_residual: float):
        super().__init__(message)
        self.relative_residual = relative_residual


class DegenerateFieldError(BmofemError):
    """An operation that needs a nonzero field received an identically zero one."""


class MeshTooCoarseError(BmofemError):
    """The mesh has no interior vertices, so the discrete problem is empty."""


class LineageError(BmofemError):
    """Prolongation target is not a refinement descendant of the source mesh."""


class ConfigError(BmofemError, ValueError):
    """Invalid experiment configuration."""
