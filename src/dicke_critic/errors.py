"""Exception types shared across the package."""


class DickeCriticError(Exception):
    """Base class for all errors raised by dicke_critic."""


class UnknownOperatorError(DickeCriticError, ValueError):
    """Requested spin operator label is not in the catalog."""


class DimensionMismatchError(DickeCriticError, ValueError):
    """Operands have incompatible matrix dimensions."""


class InvalidModelError(DickeCriticError, ValueError):
    """Model parameters violate a documented constraint."""


class PreconditionError(DickeCriticError, ValueError):
    """An operation was called with arguments outside its contract."""


class DegenerateSteadyStateError(DickeCriticError):
    """The generator's null space has dimension > 1 and no state was designated."""


class NoClosedFormError(DickeCriticError):
    """No closed-form expression exists for this bath (custom channel lists)."""


class NonIntegrableTailError(DickeCriticError):
    """An undamped oscillatory tail was evaluated at its resonance frequency."""


class NoThresholdError(DickeCriticError):
    """The mean-field oracle found no static instability inside the bracket.

    Either the deflated Jacobian determinant keeps its sign, or a mode (an
    oscillating one, as in lasing) already grows below its root.
    """


class NoTransitionError(DickeCriticError):
    """A parameter point that must have a transition, such as an oracle suite point, has none."""


class ConvergenceError(DickeCriticError):
    """An iterative solver failed to converge."""


class ConfigParseError(DickeCriticError, ValueError):
    """Configuration text could not be parsed; carries line/column info."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
