"""Exception types shared across the engine.

Validation errors (bad inputs) are distinguished from computation errors
(legal inputs that hit a genuine obstruction, e.g. inverting a non-unit)
so the CLI can map them to distinct exit codes.
"""


class EngineError(Exception):
    """Base class for all engine errors."""


class ValidationError(EngineError):
    """Input fails a precondition; nothing was computed."""


class ComputationError(EngineError):
    """Computation hit an obstruction on otherwise valid input."""


class NotEisenstein(ValidationError):
    pass


class PrimeTooSmall(ValidationError):
    pass


class DivisionByZero(ComputationError):
    pass


class ShapeMismatch(ValidationError):
    pass


class NonUnit(ComputationError):
    pass


class BadConstantTerm(ComputationError):
    pass


class IndexOutOfRange(ValidationError):
    pass


class SeedShapeMismatch(ValidationError):
    pass


class NonCommutingSeeds(ValidationError):
    pass


class ProductNotSettled(ComputationError):
    pass


class NumberTooLarge(ComputationError):
    pass
