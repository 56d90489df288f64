"""Exception types shared across the simulator."""


class FluxTemError(Exception):
    """Base class for all simulator-specific errors."""


class InvalidStateError(FluxTemError, ValueError):
    """A quantum state failed a normalization or structure check."""


class EmptyFieldError(FluxTemError, ValueError):
    """A wave field carries no power, so propagation is meaningless."""


class GeometryError(FluxTemError, ValueError):
    """Mask or ring geometry does not fit the simulation grid."""


class AmbiguityError(FluxTemError, ValueError):
    """Accumulated phase leaves the invertible branch of the estimator."""


class BudgetError(FluxTemError, ValueError):
    """Electron budget is too small for the requested experiment."""


class ConfigError(FluxTemError, ValueError):
    """Bad configuration file, key, or value."""

    def __init__(self, message: str, *, key: str | None = None, line: int | None = None):
        self.key = key
        self.line = line
        prefix = ""
        if line is not None:
            prefix = f"line {line}: "
        super().__init__(prefix + message)
