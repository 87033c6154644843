"""Numerical laboratory for the symmetric Keyfitz-Kranzer system with
linear damping: eigenstructure, radial entropy pairs, invariant regions,
a split finite-volume solver with optional viscosity, and decay/entropy
diagnostics.

scipy is imported inside the functions that call it (tabulated phi,
`PhiModel.level_radius` and the characteristics oracle; the cumulative
quadrature and its spline are kkdamp's own), and each CLI command imports
the modules it runs, so importing the package and its CLI needs numpy
alone."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    AxisState,
    ConfigError,
    DegenerateState,
    InsufficientData,
    KKDampError,
    NonFinite,
    NonLipschitz,
    OutOfRange,
    ParseError,
    QuadratureFailure,
    RootBracketFailure,
    ShockFormed,
    StabilityViolation,
    TestFunctionSupport,
    ValidationError,
)
from .model import Damping, PhiModel, State  # noqa: F401


def _fmt(x: float) -> str:
    """A float in full round-trip precision, as every artifact writes it."""
    return format(float(x), ".17e")
