"""Exception types shared across the package."""


class HypcurvError(ValueError):
    """Base class for all validation and geometry errors."""


class UnsupportedDimensionError(HypcurvError):
    """Raised when the sphere dimension m is not 1 or 2."""


class OriginNotInteriorError(HypcurvError):
    """The basepoint is not strictly interior to the body."""


class DegenerateHullError(HypcurvError):
    """The vertex set does not span a full-dimensional hull."""


class NonExtremeVertexError(HypcurvError):
    """A listed vertex is not extreme in the hull; carries the offending index."""

    def __init__(self, index: int, message: str | None = None):
        self.index = int(index)
        super().__init__(message or f"vertex {index} is not extreme in the hull")


class UncoveredDirectionError(HypcurvError):
    """A direction has no support point within spherical distance pi/2."""

    def __init__(self, direction, message: str | None = None):
        self.direction = direction
        super().__init__(
            message or f"no finite-cost support point for direction {direction}"
        )


class PreconditionError(HypcurvError):
    """A solve was attempted on a measure failing the admissibility conditions."""

    def __init__(self, report, message: str | None = None):
        self.report = report
        super().__init__(message or "input measure fails the admissibility conditions")
