"""Exception types shared across the package."""

import copyreg


class KKDampError(Exception):
    """Base class for all package-specific errors."""

    def __reduce__(self):
        # args holds the formatted message, not the arguments of __init__:
        # unpickle without calling it, so an error raised in a `run`
        # worker reaches the parent with its type, message and attributes
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ConfigError(KKDampError, ValueError):
    """Invalid configuration value (bad family parameter, cfl out of range, ...)."""


class ValidationError(KKDampError, ValueError):
    """Semantically invalid input; carries the offending field name."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class OutOfRange(KKDampError):
    """State radius exceeds the working range r_max of the velocity model."""


class DegenerateState(KKDampError):
    """Eigenstructure requested at r = 0 where the two fields coincide."""


class AxisState(KKDampError):
    """Riemann invariant Z = u/v requested where v vanishes."""


class QuadratureFailure(KKDampError):
    """Cumulative integral failed its spot checks at the maximum refinement."""


class NonLipschitz(KKDampError):
    """Entropy candidate with unbounded r*eta'(r) near r = 0."""


class StabilityViolation(KKDampError):
    """Requested step breaks speed dt/dx + 2 eps dt/dx^2 <= 1, the CFL limit
    dt <= dx / speed when eps = 0 (the message names the diffusion number
    eps dt/dx^2, and `speed` is the top wave speed the step guard
    measured), or a march has stopped advancing t or reached its step cap
    (`speed` is None)."""

    def __init__(self, message: str, speed: float | None = None):
        self.speed = speed
        super().__init__(message)


class NonFinite(KKDampError):
    """NaN or Inf encountered in a state field."""


class ShockFormed(KKDampError):
    """Characteristics crossed; the smooth-solution oracle is no longer valid."""


class RootBracketFailure(KKDampError):
    """Characteristic foot point could not be bracketed for a target location."""


class InsufficientData(KKDampError):
    """Too few usable samples for a fit (decay rate needs at least five times)."""


class TestFunctionSupport(KKDampError):
    """Space-time test function support touches the domain boundary."""

    __test__ = False  # starts with "Test" but is not a pytest class


class ParseError(KKDampError, ValueError):
    """Scenario text could not be parsed; carries line and column (1-based)
    and the path of the file the text was read from, if any."""

    def __init__(self, line: int, col: int, message: str, path: str | None = None):
        self.line = line
        self.col = col
        self.path = path
        super().__init__(f"{path + ': ' if path else ''}line {line}, col {col}: {message}")
