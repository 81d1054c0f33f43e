"""Exception hierarchy shared across the package, and the two argument
checks every module uses: what counts as a count and as a real number."""

import math
import numbers


class RfdnaError(Exception):
    """Base class for all package-specific errors."""


class InvalidValue(RfdnaError):
    """A refused argument or input: a bad count, shape, range or file, and
    an input with no signal in it (a zero-power burst, an all-zero grid)."""


class NumericalFailure(RfdnaError):
    """A computation that broke down on valid input."""


class TrainingFailed(RfdnaError):
    """SVM solver hit the iteration cap.

    Carries the last-iterate model in ``model``, whose ``diagnostics`` let a
    caller decide whether the partial solution is usable.
    """

    def __init__(self, message, model=None):
        super().__init__(message)
        self.model = model


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


def check_count(name, value, low):
    """Refuse ``value`` with :class:`InvalidValue` unless it is an integer
    >= ``low`` (a bool is not a count)."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or value < low):
        raise InvalidValue(f"{name} must be an integer >= {low}, "
                           f"got {value!r}")
