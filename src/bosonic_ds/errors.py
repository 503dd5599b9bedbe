"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input fails a structural or numerical precondition."""


class DimensionError(ValidationError):
    """Array shapes are incompatible or not of the required form."""


class TrivialSplitterError(ValidationError):
    """theta is a multiple of pi/2, so the splitter does not mix the arms."""


class CalibrationError(RuntimeError):
    """A construction-time self-test failed (sign or phase convention broke)."""


class UncertaintyViolationError(RuntimeError):
    """Measured second moments violate Gamma + i*sigma >= 0 beyond tolerance.

    Usually a symptom of too small a Fock cutoff for the state at hand.
    """


class DecompositionError(RuntimeError):
    """Block decomposition reached an inconsistent state (numerical degradation)."""


class BoundViolationError(RuntimeError):
    """A guaranteed stability bound came out negative on clean (unflagged) data.

    Carries the offending report in ``.report`` for post-mortem inspection.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
