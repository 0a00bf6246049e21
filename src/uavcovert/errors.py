"""Exception types shared across the package, and the one sample-size check.

The CLI maps these onto process exit codes: configuration problems exit
with 2 and numerical failures with 4.  Exit 3 (infeasible) comes from an
infeasible ``OptimizationResult``, not from an exception.
"""
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
