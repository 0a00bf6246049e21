"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2 and numerical failures with 4.  Exit 3 (infeasible) comes from an
infeasible ``OptimizationResult``, not from an exception.
"""


class ConfigError(ValueError):
    """Invalid scenario, sweep, or grid configuration."""


class NumericalError(RuntimeError):
    """A numerical assumption was violated (non-monotone bracketing,
    failed closed-form-vs-simulation validation, ...)."""
