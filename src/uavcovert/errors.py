"""Exception types shared across the package, and the count and seed checks.

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


def _check_seed(seed) -> None:
    """Raise ConfigError unless ``seed`` is an int (not a bool) >= 0."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
