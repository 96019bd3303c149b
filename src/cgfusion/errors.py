"""Exception types shared across the library."""


class GFusionError(Exception):
    """Base class for every library-specific error."""


class ShapeError(GFusionError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class NotSymmetricError(GFusionError, ValueError):
    """A symmetric operator was required."""


class NotPositiveError(GFusionError, ValueError):
    """A positive semidefinite operator was required."""


class SingularError(GFusionError, ValueError):
    """Inversion requested for a numerically singular operator."""


class RangeInclusionError(GFusionError, ValueError):
    """A range inclusion failed, so the requested factorization does not exist.

    The measured recomposition residual is kept in ``residual``.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class SingularFrameOperatorError(GFusionError, ValueError):
    """The system is not a frame: its frame operator is not invertible."""


class HypothesisNotMetError(GFusionError, ValueError):
    """A precondition of a certified construction failed.

    ``condition`` names the violated hypothesis.
    """

    def __init__(self, condition: str, message: str | None = None):
        super().__init__(message or f"hypothesis not met: {condition}")
        self.condition = condition

    def __reduce__(self):
        return type(self), (self.condition, str(self)), self.__dict__


class DegenerateKError(GFusionError, ValueError):
    """The comparison operator is zero, making the lower-bound condition vacuous."""


class ParameterError(GFusionError, ValueError):
    """A scalar parameter lies outside its admissible range.

    ``parameter`` names the rejected parameter of the raising function, or
    is None when the error names what it rejects only in ``message``.
    """

    def __init__(self, message: str, parameter: str | None = None):
        super().__init__(message)
        self.parameter = parameter


class OperatorRangeError(GFusionError, ValueError):
    """An operator puts a quantity computed from it outside the range of doubles."""


class SystemFileError(GFusionError, ValueError):
    """A system or operator file failed to parse or validate."""
