"""Covert-rate analysis for a two-hop wireless link relayed by an
untrusted amplify-and-forward UAV, with a power-detecting warden and a
full-duplex jamming receiver."""

from .errors import ConfigError, InfeasibleError, NumericalError
from .model import (
    Scenario,
    db_to_linear,
    linear_to_db,
    los_gain_squared,
    relay_scaling,
    sample_rayleigh_power,
)
from .detection import (
    DetectionPoint,
    OptimalDetection,
    optimal_detection,
    p_false_alarm,
    p_missed_detection,
    simulate_detection,
    total_error,
    total_error_curve,
    total_error_derivative,
)
from .rates import (
    AuxCoefficients,
    DestinationSnrEstimate,
    RateReport,
    aux_coefficients,
    capacity,
    rate_report,
    simulate_destination_snr,
    snr_destination_expanded,
)
from .constraints import (
    FeasibleHeightInterval,
    covert_height_bound,
    feasible_interval,
    secrecy_rate_at_height,
    security_height_bound,
)
from .optimizer import (
    GridSpec,
    OptimizationResult,
    maximize_covert_rate,
)
from .experiments import (
    SweepSpec,
    ValidationCheck,
    mc_zeta_tolerance,
    render_csv,
    run_covertness_sweep,
    run_detection_sweep,
    run_rate_sweep,
    run_validation,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AuxCoefficients",
    "ConfigError",
    "DestinationSnrEstimate",
    "DetectionPoint",
    "FeasibleHeightInterval",
    "GridSpec",
    "InfeasibleError",
    "NumericalError",
    "OptimalDetection",
    "OptimizationResult",
    "RateReport",
    "Scenario",
    "SweepSpec",
    "ValidationCheck",
    "aux_coefficients",
    "capacity",
    "covert_height_bound",
    "db_to_linear",
    "feasible_interval",
    "linear_to_db",
    "los_gain_squared",
    "maximize_covert_rate",
    "mc_zeta_tolerance",
    "optimal_detection",
    "p_false_alarm",
    "p_missed_detection",
    "rate_report",
    "relay_scaling",
    "render_csv",
    "run_covertness_sweep",
    "run_detection_sweep",
    "run_rate_sweep",
    "run_validation",
    "sample_rayleigh_power",
    "secrecy_rate_at_height",
    "security_height_bound",
    "simulate_destination_snr",
    "simulate_detection",
    "snr_destination_expanded",
    "total_error",
    "total_error_curve",
    "total_error_derivative",
    "write_csv",
]
