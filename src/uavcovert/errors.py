"""Exception types, and the count, seed and real-number argument checks.

The CLI maps these onto process exit codes: configuration problems exit
with 2 and numerical failures with 4.  Exit 3 (infeasible) comes from an
infeasible ``OptimizationResult``, not from an exception.
"""
import math
import numbers

import numpy as np


class ConfigError(ValueError):
    """Invalid scenario, sweep, or grid configuration."""


class NumericalError(RuntimeError):
    """A numerical assumption was violated (non-monotone bracketing,
    failed closed-form-vs-simulation validation, ...)."""


def _check_count(name: str, value) -> None:
    """Raise ConfigError unless ``value`` is an int (not a bool) >= 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")


def _check_seed(seed) -> None:
    """Raise ConfigError unless ``seed`` is an int (not a bool) >= 0."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")


def _real(name: str, value) -> float:
    """``value`` as a Python float if it is a non-bool real number that fits
    in one, numpy's and ``Fraction`` included; else ConfigError."""
    if isinstance(value, float):  # numpy's float64 too
        return float(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # the repr of so large an int may raise too
        raise ConfigError(f"{name} overflows a float ({type(value).__name__} too large)") from None


def _positive(name: str, value) -> float:
    """:func:`_real` of ``value``, which must also be finite and > 0."""
    value = _real(name, value)
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{name} must be finite and > 0, got {value!r}")
    return value
