import dataclasses
import importlib
import inspect
import numbers
import pathlib
import pkgutil
import re
import shlex
import tomllib
from fractions import Fraction

import numpy as np
import pytest

import uavcovert
import uavcovert.cli
from uavcovert.errors import _MAX_COUNT

from conftest import forbid_work

ROOT = pathlib.Path(__file__).resolve().parents[1]

PUBLIC_API = {
    "ConfigError", "NumericalError", "OptimizationResult", "Scenario",
    "SweepSpec", "maximize_covert_rate", "run_covertness_sweep",
    "run_detection_sweep", "run_rate_sweep", "run_validation", "write_csv",
}

# names the package no longer defines
REMOVED = {
    "InfeasibleError", "total_error", "total_error_curve",
    "total_error_derivative", "snr_destination_expanded", "aux_coefficients",
    "AuxCoefficients", "default_power_grid", "SWEEPABLE", "_scan_heights",
    "RateReport", "rate_report", "los_gain_squared", "relay_scaling",
    "sample_rayleigh_power", "p_false_alarm", "p_missed_detection",
    "_exp_of_exponent", "linear_to_db", "_identity", "feasible_interval",
    "FeasibleHeightInterval", "covert_height_bound", "_covert_floor",
    "secrecy_rate_at_height", "DetectionPoint", "DETECTION_COLUMNS",
    "RATE_COLUMNS", "COVERTNESS_COLUMNS", "OPTIMIZE_COLUMNS",
    "OptimalDetection", "DestinationSnrEstimate", "ValidationCheck",
    "scenario_columns", "GridSpec",
}

# names kept inside their modules but not exported
MODULE_ONLY = {
    "constraints": ("feasibility_grid", "security_height_bound"),
    "detection": ("error_curve", "optimal_detection", "simulate_detection"),
    "rates": ("capacity", "snrs_at", "simulate_destination_snr"),
    "model": ("db_to_linear",),
    "experiments": ("render_csv", "csv_block", "mc_zeta_tolerance"),
}


def test_public_api_is_pinned():
    assert len(uavcovert.__all__) == len(set(uavcovert.__all__))
    assert set(uavcovert.__all__) == PUBLIC_API
    assert len(PUBLIC_API) == 11


def test_results_are_plain_tuples():
    s = uavcovert.Scenario.from_file(ROOT / "scenarios" / "fig2.json")
    for pair in (uavcovert.detection.optimal_detection(s),
                 uavcovert.rates.simulate_destination_snr(s, 100, 0)):
        assert type(pair) is tuple and [type(v) for v in pair] == [float, float]
    checks = uavcovert.run_validation(s, n_trials=100, n_symbols=100, gamma_points=2)
    assert type(checks) is list and len(checks) == 3
    for check in checks:
        assert type(check) is tuple and [type(v) for v in check] == [str, bool, str]


def test_uavcovert_command_runs_the_cli_main():
    # every README example runs `uavcovert ...`: the installed script
    with (ROOT / "pyproject.toml").open("rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"uavcovert": "uavcovert.cli:main"}
    module, _, name = scripts["uavcovert"].partition(":")
    assert getattr(importlib.import_module(module), name) is uavcovert.cli.main


def test_ci_runs_no_python_below_the_declared_floor():
    # tier-1 imports tomllib, so the floor is 3.11; CI runs nothing older
    with (ROOT / "pyproject.toml").open("rb") as f:
        floor = tomllib.load(f)["project"]["requires-python"]
    assert floor == ">=3.11"
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    versions = re.findall(r"python-version:\s*(.+)", workflow)
    assert versions
    for value in versions:
        found = re.findall(r"(\d+)\.(\d+)", value)
        assert found and all((int(a), int(b)) >= (3, 11) for a, b in found), value


def _readme_commands() -> list[list[str]]:
    """The arguments of every `uavcovert ...` command in README's sh blocks,
    each line's backslash continuations joined, split as a shell would."""
    text = (ROOT / "README.md").read_text()
    lines = "".join(re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S))
    return [shlex.split(line, comments=True)[1:]
            for line in lines.replace("\\\n", " ").splitlines()
            if line.startswith("uavcovert ")]


def test_readme_commands_parse():
    # parsed only, not run: a removed or renamed option fails here
    commands = _readme_commands()
    assert sorted(argv[0] for argv in commands) == [
        "covertness-sweep", "detect-sweep", "optimize", "rate-sweep", "validate"]
    for argv in commands:
        try:
            uavcovert.cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: uavcovert {shlex.join(argv)}")


def test_scenario_schema_is_one_way():
    # a scenario is read from JSON, never written back
    assert not hasattr(uavcovert.Scenario, "to_dict")
    assert all(len(entry) == 2 for entry in
               importlib.import_module("uavcovert.model")._JSON_FIELDS.values())


def test_entry_points_take_only_the_inputs_callers_vary():
    def parameters(fn):
        return list(inspect.signature(fn).parameters)
    assert [f.name for f in dataclasses.fields(uavcovert.SweepSpec)] == [
        "start", "stop", "steps", "overlay_values"]
    # the optimizer searches the scenario's own power box: step counts, no axes
    assert parameters(uavcovert.maximize_covert_rate) == [
        "scenario", "p_u_steps", "p_j_steps"]
    assert parameters(uavcovert.run_covertness_sweep) == [
        "scenario", "sweep", "p_u_steps", "seed"]
    # the powers in snrs_at's order, as the optimizer's grid holds them
    assert parameters(uavcovert.constraints.security_height_bound) == [
        "scenario", "p_u", "p_j"]
    assert parameters(uavcovert.rates.capacity) == ["snrs"]
    assert parameters(uavcovert.experiments.render_csv) == ["blocks"]
    assert parameters(uavcovert.write_csv) == ["path", "blocks"]
    # perfbench/tracer.py reads these argument names for its counters
    assert parameters(uavcovert.detection.simulate_detection) == [
        "scenario", "gamma", "n_trials", "seed"]
    assert parameters(uavcovert.rates.simulate_destination_snr) == [
        "scenario", "n_symbols", "seed"]


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


# every real argument obeys errors._real: a float, or a non-bool real number
# that fits in one, stored as a Python float
_FIG2 = uavcovert.Scenario.from_file(ROOT / "scenarios" / "fig2.json")
_FIG5 = uavcovert.Scenario.from_file(ROOT / "scenarios" / "fig5.json")
_REAL_ENTRY_POINTS = {
    "Scenario.replace": lambda v: (_FIG2.replace(h=v).h,),
    "SweepSpec start": lambda v: (uavcovert.SweepSpec(v, 10.0, 3, (1.0,)).start,),
    "SweepSpec overlay": lambda v: uavcovert.SweepSpec(0.0, 1.0, 2, (v,)).overlay_values,
    "error_curve": lambda v: sum(uavcovert.detection.error_curve(_FIG2, [v]), []),
    "simulate_detection": lambda v: uavcovert.detection.simulate_detection(_FIG2, v, 100, 0),
}


@pytest.mark.parametrize("entry", list(_REAL_ENTRY_POINTS))
def test_every_real_argument_follows_one_rule(entry):
    call = _REAL_ENTRY_POINTS[entry]
    for value in (True, np.True_, "1.0", 1j, None, 10**400, 10**5000):
        with pytest.raises(uavcovert.ConfigError) as excinfo:
            call(value)
        # a value that overflows a float is named by its type, never formatted
        assert "0" * 20 not in str(excinfo.value)
    for value in (np.float64(1.0), np.int64(1), 1, Fraction(1, 3)):
        got = call(value)
        assert [type(v) for v in got] == [float] * len(got)
        assert got == call(float(value))


# every count and seed obeys errors._integer: a non-bool int, numpy's
# included, >= 1 and at most _MAX_COUNT for a count, >= 0 for a seed,
# returned as the Python int it is used as
def _detect(n_trials=3, seed=0):
    (block,) = uavcovert.run_detection_sweep(
        _FIG2, uavcovert.SweepSpec(0.0, 1.0, 2, (2.0,)), n_trials, seed)
    return block["n_trials"], block["seed"]


def _optimize(p_u_steps=3, p_j_steps=3):
    result = uavcovert.maximize_covert_rate(_FIG5, p_u_steps, p_j_steps)
    return result.p_u_star, result.p_j_star


def _validate(**counts):
    checks = uavcovert.run_validation(
        _FIG2, **{"n_trials": 3, "n_symbols": 3, "gamma_points": 3, **counts})
    return tuple(detail for _, _, detail in checks)


_COUNT_ENTRY_POINTS = {
    "SweepSpec steps": lambda v: (uavcovert.SweepSpec(0.0, 1.0, v, (1.0,)).steps,),
    "maximize_covert_rate p_u_steps": lambda v: _optimize(p_u_steps=v),
    "maximize_covert_rate p_j_steps": lambda v: _optimize(p_j_steps=v),
    "run_covertness_sweep p_u_steps": lambda v: uavcovert.run_covertness_sweep(
        _FIG5, uavcovert.SweepSpec(0.01, 0.02, 2, (5.0,)), v)[0]["p_u_star"],
    "simulate_detection": lambda v: uavcovert.detection.simulate_detection(_FIG2, 1.0, v, 0),
    "simulate_destination_snr": lambda v: uavcovert.rates.simulate_destination_snr(_FIG2, v, 0),
    "run_detection_sweep n_trials": lambda v: _detect(n_trials=v),
    "run_validation gamma_points": lambda v: _validate(gamma_points=v),
    "run_validation n_trials": lambda v: _validate(n_trials=v),
    "run_validation n_symbols": lambda v: _validate(n_symbols=v),
}
_SEED_ENTRY_POINTS = {
    "run_detection_sweep seed": lambda v: _detect(seed=v),
    "run_rate_sweep seed": lambda v: (uavcovert.run_rate_sweep(
        _FIG2, uavcovert.SweepSpec(0.0, 1.0, 2, (1.0,)), v)[0]["seed"],),
    "run_covertness_sweep seed": lambda v: (uavcovert.run_covertness_sweep(
        _FIG2, uavcovert.SweepSpec(0.01, 0.02, 2, (1.0,)), 1, v)[0]["seed"],),
    "run_validation seed": lambda v: _validate(seed=v),
}
_NOT_INTEGERS = (True, np.True_, 2.5, "3", None, -10**5000)


@pytest.mark.parametrize("entry", list(_COUNT_ENTRY_POINTS) + list(_SEED_ENTRY_POINTS))
def test_every_count_and_seed_follows_one_rule(entry, monkeypatch):
    call = _COUNT_ENTRY_POINTS.get(entry) or _SEED_ENTRY_POINTS[entry]
    bad = (_NOT_INTEGERS + (0, _MAX_COUNT + 1, 10**5000) if entry in _COUNT_ENTRY_POINTS
           else _NOT_INTEGERS + (-1,))
    with monkeypatch.context() as patched:
        forbid_work(patched)  # so no bad count reaches an allocation
        for value in bad:
            with pytest.raises(uavcovert.ConfigError) as excinfo:
                call(value)
            # an int beyond int64 is never formatted
            assert not re.search(r"\d{20}", str(excinfo.value)), value
    for value in (np.int64(3), np.uint8(3)):
        got, want = call(value), call(3)
        assert got == want and list(map(type, got)) == list(map(type, want))


def test_only_errors_imports_numbers():
    # the real-number rule is stated once, in errors._real
    names = ["uavcovert"] + [f"uavcovert.{m.name}"
                             for m in pkgutil.iter_modules(uavcovert.__path__)]
    assert "uavcovert.errors" in names
    for name in names:
        holds = any(v is numbers for v in vars(importlib.import_module(name)).values())
        assert holds == (name == "uavcovert.errors"), name


def test_threads_start_in_one_place():
    # rates._ahead, the one run-ahead helper, starts every thread under src/
    # and makes every semaphore
    from uavcovert.rates import _ahead
    helper = inspect.getsource(_ahead.__wrapped__)
    src = "".join(path.read_text() for path in sorted((ROOT / "src").rglob("*.py")))
    assert "from threading" not in src
    for call in ("threading.Thread(", "threading.Semaphore("):
        assert src.count(call) == helper.count(call) >= 1, call
