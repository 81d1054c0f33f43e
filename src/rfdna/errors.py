"""Exception hierarchy shared across the package, and the two argument
checks every module uses: what counts as a count and as a real number."""

import math
import numbers


class RfdnaError(Exception):
    """Base class for all package-specific errors."""


class InvalidLength(RfdnaError):
    pass


class InvalidCutoff(RfdnaError):
    pass


class DegenerateSignal(RfdnaError):
    pass


class DegenerateTF(RfdnaError):
    pass


class InvalidShape(RfdnaError):
    pass


class InvalidValue(RfdnaError):
    pass


class InvalidRelevance(RfdnaError):
    pass


class SingularScatter(RfdnaError):
    pass


class NumericalFailure(RfdnaError):
    pass


class InvalidNeighborCount(RfdnaError):
    pass


class InvalidCount(RfdnaError):
    pass


class TrainingFailed(RfdnaError):
    """SVM solver hit the iteration cap.

    Carries the last-iterate model in ``model`` plus solver diagnostics so a
    caller can decide whether the partial solution is usable.
    """

    def __init__(self, message, model=None, diagnostics=None):
        super().__init__(message)
        self.model = model
        self.diagnostics = diagnostics or {}


class InvalidInput(RfdnaError):
    pass


class MissingData(RfdnaError):
    pass


class InvalidModel(RfdnaError):
    pass


def is_real(value) -> bool:
    """``value`` is a real number, not a bool, with a finite float value."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:       # an integer too large for a float
        return False


def check_count(name, value, low, error=InvalidValue):
    """Refuse ``value`` with ``error`` unless it is an integer >= ``low``
    (a bool is not a count)."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or value < low):
        raise error(f"{name} must be an integer >= {low}, got {value!r}")
