"""Numerical laboratory for the symmetric Keyfitz-Kranzer system with
linear damping: eigenstructure, radial entropy pairs, invariant regions,
a split finite-volume solver with optional viscosity, and decay and
Riemann-invariant diagnostics.

scipy is imported inside the two functions that call it (the tabulated phi
family and `PhiModel.level_radius`; the cumulative quadrature and its
spline are kkdamp's own), and each CLI command imports the modules it
runs, so importing the package and its CLI needs numpy alone."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    AxisState,
    ConfigError,
    DegenerateState,
    InsufficientData,
    KKDampError,
    NonFinite,
    OutOfRange,
    ParseError,
    QuadratureFailure,
    StabilityViolation,
    ValidationError,
)
from .model import Damping, PhiModel, State  # noqa: F401


def _fmt(x: float) -> str:
    """A float in full round-trip precision, as every artifact writes it."""
    return format(float(x), ".17e")
