"""Covert-rate analysis for a two-hop wireless link relayed by an
untrusted amplify-and-forward UAV, with a power-detecting warden and a
full-duplex jamming receiver."""

from .errors import ConfigError, NumericalError
from .model import Scenario, db_to_linear
from .detection import error_curve, optimal_detection, simulate_detection
from .rates import capacity, simulate_destination_snr
from .optimizer import OptimizationResult, maximize_covert_rate
from .experiments import (
    SweepSpec,
    render_csv,
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
    "capacity",
    "db_to_linear",
    "error_curve",
    "maximize_covert_rate",
    "optimal_detection",
    "render_csv",
    "run_covertness_sweep",
    "run_detection_sweep",
    "run_rate_sweep",
    "run_validation",
    "simulate_destination_snr",
    "simulate_detection",
    "write_csv",
]
