"""Covert-rate analysis for a two-hop wireless link relayed by an
untrusted amplify-and-forward UAV, with a power-detecting warden and a
full-duplex jamming receiver."""

from .errors import ConfigError, NumericalError
from .model import Scenario
from .optimizer import OptimizationResult, maximize_covert_rate
from .experiments import (
    SweepSpec,
    run_covertness_sweep,
    run_detection_sweep,
    run_rate_sweep,
    run_validation,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "NumericalError",
    "OptimizationResult",
    "Scenario",
    "SweepSpec",
    "maximize_covert_rate",
    "run_covertness_sweep",
    "run_detection_sweep",
    "run_rate_sweep",
    "run_validation",
    "write_csv",
]
