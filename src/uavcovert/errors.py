"""Exception types, and the integer and real-number argument rules.

The CLI maps these onto process exit codes: configuration problems exit
with 2 and numerical failures with 4.  Exit 3 (infeasible) comes from an
infeasible ``OptimizationResult``, not from an exception.
"""
import math
import numbers
import sys

import numpy as np


class ConfigError(ValueError):
    """Invalid scenario, sweep, or grid configuration."""


class NumericalError(RuntimeError):
    """A numerical assumption was violated (non-monotone bracketing,
    failed closed-form-vs-simulation validation, ...)."""


_MAX_COUNT = sys.maxsize // 16  # 2**59 - 1 on 64 bits, below every size numpy rejects


def _integer(name: str, value, least: int) -> int:
    """``value`` as a Python int if it is a non-bool int, numpy's included,
    >= ``least``: 1 for a count, which must also be at most ``_MAX_COUNT``,
    and 0 for a seed; else ConfigError, which formats no int beyond int64."""
    kind = "positive integer" if least else "non-negative integer"
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be a {kind}, got {value!r}")
    value = int(value)
    if value < least:
        got = repr(value) if value >= -2**63 else "an int below -2**63"
        raise ConfigError(f"{name} must be a {kind}, got {got}")
    if least and value > _MAX_COUNT:
        raise ConfigError(f"{name} must be at most {_MAX_COUNT}, got a larger int")
    return value


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
