"""Exception hierarchy shared across the package."""


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
