import dataclasses
import importlib
import inspect

import uavcovert

PUBLIC_API = {
    "ConfigError", "DestinationSnrEstimate", "DetectionPoint", "GridSpec",
    "NumericalError", "OptimalDetection", "OptimizationResult", "RateReport",
    "Scenario", "SweepSpec", "ValidationCheck", "capacity",
    "covert_height_bound", "db_to_linear", "error_curve", "feasible_interval",
    "linear_to_db", "los_gain_squared", "maximize_covert_rate",
    "optimal_detection", "rate_report", "relay_scaling", "render_csv",
    "run_covertness_sweep", "run_detection_sweep", "run_rate_sweep",
    "run_validation", "sample_rayleigh_power", "secrecy_rate_at_height",
    "security_height_bound", "simulate_destination_snr", "simulate_detection",
    "write_csv",
}

# names the package no longer defines
REMOVED = {
    "InfeasibleError", "total_error", "total_error_curve",
    "total_error_derivative", "snr_destination_expanded", "aux_coefficients",
    "AuxCoefficients", "default_power_grid", "SWEEPABLE", "_scan_heights",
}

# names kept inside their modules but not exported
MODULE_ONLY = {
    "constraints": ("FeasibleHeightInterval",),
    "detection": ("p_false_alarm", "p_missed_detection"),
    "experiments": ("mc_zeta_tolerance",),
}


def test_public_api_is_pinned():
    assert len(uavcovert.__all__) == len(set(uavcovert.__all__))
    assert set(uavcovert.__all__) == PUBLIC_API
    assert len(PUBLIC_API) <= 33


def test_entry_points_take_only_the_inputs_callers_vary():
    def parameters(fn):
        return list(inspect.signature(fn).parameters)
    assert [f.name for f in dataclasses.fields(uavcovert.SweepSpec)] == [
        "start", "stop", "steps", "overlay_values"]
    assert parameters(uavcovert.run_covertness_sweep) == [
        "scenario", "sweep", "p_u_values", "seed"]
    assert parameters(uavcovert.GridSpec.linear) == [
        "p_u_stop", "p_j_stop", "p_u_steps", "p_j_steps"]
    assert parameters(uavcovert.security_height_bound) == ["scenario"]


def test_every_exported_name_resolves():
    for name in uavcovert.__all__:
        assert getattr(uavcovert, name) is not None, name


def test_removed_and_module_only_names_are_not_exported():
    for name in REMOVED:
        assert not hasattr(uavcovert, name), name
        for module in ("model", "detection", "rates", "constraints",
                       "optimizer", "experiments", "errors", "cli"):
            assert not hasattr(importlib.import_module(f"uavcovert.{module}"),
                               name), (module, name)
    for module, names in MODULE_ONLY.items():
        for name in names:
            assert name not in uavcovert.__all__ and not hasattr(uavcovert, name)
            assert callable(getattr(importlib.import_module(f"uavcovert.{module}"),
                                    name))
