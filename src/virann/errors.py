"""Exception types shared across the package."""


class ArgumentError(ValueError):
    """Raised when a caller passes inconsistent or malformed arguments."""


class NonUnitaryError(ValueError):
    """Raised when an inner product fails positive semidefiniteness.

    Carries the offending level and eigenvalue when known.
    """

    def __init__(self, message: str, level: int | None = None,
                 eigenvalue: float | None = None):
        super().__init__(message)
        self.level = level
        self.eigenvalue = eigenvalue


class NotInwardError(ValueError):
    """Raised when a vector field leaves the inward cone Re(sum a_n e^{in t}) <= tol.

    ``margin`` is the worst (largest) value of the real part on the grid.
    """

    def __init__(self, message: str, margin: float | None = None):
        super().__init__(message)
        self.margin = margin


class TruncationError(ValueError):
    """Raised when a requested operation leaves the level or mode budget."""


class ModuleRangeError(TruncationError):
    """Raised when an operation needs more levels or modes than the built
    module holds (as opposed to a transport or extraction running away)."""


class GridError(ValueError):
    """Raised when sampled geometry is degenerate (vanishing tangent, bad winding,
    negative Jacobian, mismatched grids)."""


class EvolutionError(RuntimeError):
    """Raised when a time-ordered exponential solve fails or overflows."""
