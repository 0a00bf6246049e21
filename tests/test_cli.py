import argparse
import contextlib
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import uavcovert.cli
import uavcovert.experiments
from uavcovert.cli import main
from uavcovert.errors import _MAX_COUNT

from conftest import PRESETS, expand_rows, reference_render_csv

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"


def _optimize_argv(out, *extra):
    return ["optimize", "--scenario", str(SCENARIOS / "fig5.json"), "--out", str(out),
            "--pu-steps", "4", "--pj-steps", "4", *extra]


_STRICT = "<fig5 with r_s = 1024>"  # an argv's stand-in for _strict_fig5's path


def _strict_fig5(directory, r_s=1024) -> str:
    """fig5 with its secrecy threshold at ``r_s``, written to ``directory``:
    2^r_s overflows a float from r_s = 1024, so no grid point is secure."""
    raw = json.loads((SCENARIOS / "fig5.json").read_text())
    raw["r_s_bpcu"] = r_s
    strict = directory / "strict.json"
    strict.write_text(json.dumps(raw))
    return str(strict)


def test_help_exits_zero(capsys):
    # twice, so the second call runs on the parser the first one built
    texts = []
    for _ in range(2):
        assert main(["--help"]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and "detect-sweep" in texts[0]


@pytest.mark.parametrize("argv", [
    ["detect-sweep", "--scenario", str(SCENARIOS / "fig2.json"), "--out", "d.csv",
     "--trials", "1000", "--steps", "9"],
    ["rate-sweep", "--scenario", str(SCENARIOS / "fig3.json"), "--out", "r.csv"],
    ["covertness-sweep", "--scenario", str(SCENARIOS / "fig5.json"), "--out", "c.csv",
     "--steps", "3", "--pu-steps", "4"],
    _optimize_argv("o.csv"),
    ["validate", "--scenario", str(SCENARIOS / "fig4.json"), "--trials", "1000",
     "--symbols", "40000"],
], ids=lambda argv: argv[0])
def test_subcommands_leave_no_thread_behind(tmp_path, monkeypatch, capsys, argv):
    # the Monte Carlo's second thread is joined inside the call that starts it
    monkeypatch.chdir(tmp_path)
    before = threading.active_count()
    assert main(argv) == 0
    assert threading.active_count() == before


def test_usage_error_exits_two(tmp_path, capsys):
    assert main(_optimize_argv(tmp_path / "opt.csv")) == 0
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    assert main(_optimize_argv(tmp_path / "a.csv")) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    assert main(_optimize_argv(tmp_path / "b.csv")) == 0
    assert main(["rate-sweep", "--scenario", str(SCENARIOS / "fig3.json"),
                 "--out", str(tmp_path / "c.csv"), "--steps", "3"]) == 0
    assert built == []


def test_cached_parser_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys):
    with monkeypatch.context() as m:
        # the uncached builder: a fresh parser for this call alone
        m.setattr(uavcovert.cli, "build_parser", uavcovert.cli.build_parser.__wrapped__)
        assert main(_optimize_argv(tmp_path / "fresh.csv")) == 0
    fresh_out = capsys.readouterr()
    assert main(_optimize_argv(tmp_path / "coarse.csv", "--pj-steps", "3")) == 0
    capsys.readouterr()
    assert main(_optimize_argv(tmp_path / "plain.csv")) == 0
    assert capsys.readouterr() == fresh_out
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    assert (tmp_path / "coarse.csv").read_bytes() != (tmp_path / "fresh.csv").read_bytes()


def test_import_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def spy(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = spy\n"
        "import uavcovert.cli\n"
        "print(len(built))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SCENARIOS.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "0\n"


# every subcommand's options as (option strings, default, type), without -h
_OPTIONS = {
    "detect-sweep": [
        (("--scenario",), None, None), (("--out",), "detect_sweep.csv", None),
        (("--seed",), 0, int), (("--trials",), 100_000, int),
        (("--start",), 0.0, float), (("--stop",), 1.0, float), (("--steps",), 50, int),
        (("--overlay-values",), "2,3,4", None),
    ],
    "rate-sweep": [
        (("--scenario",), None, None), (("--out",), "rate_sweep.csv", None),
        (("--seed",), 0, int),
        (("--start",), 0.0, float), (("--stop",), 100.0, float), (("--steps",), 26, int),
        (("--overlay-values",), "7,8,9", None),
    ],
    "covertness-sweep": [
        (("--scenario",), None, None), (("--out",), "covertness_sweep.csv", None),
        (("--seed",), 0, int),
        (("--start",), 0.01, float), (("--stop",), 0.02, float), (("--steps",), 20, int),
        (("--overlay-values",), "5,10,15", None), (("--pu-steps",), 60, int),
    ],
    "optimize": [
        (("--scenario",), None, None), (("--out",), "optimize.csv", None),
        (("--seed",), 0, int), (("--pu-steps",), 50, int), (("--pj-steps",), 50, int),
    ],
    "validate": [
        (("--scenario",), None, None), (("--seed",), 0, int),
        (("--trials",), 100_000, int), (("--symbols",), 1_000_000, int),
        (("--gamma-points",), 20, int),
    ],
}


def _subcommands():
    (subs,) = [action for action in uavcovert.cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction)]
    return subs.choices


def test_option_table_is_pinned():
    assert {name: [(tuple(a.option_strings), a.default, a.type) for a in sub._actions
                   if not isinstance(a, argparse._HelpAction)]
            for name, sub in _subcommands().items()} == _OPTIONS


@pytest.mark.parametrize("command", sorted(_OPTIONS))
def test_every_option_has_help(command):
    # format_help expands each help string with %-formatting, so a bare %
    # in one raises here rather than at the user's --help
    sub = _subcommands()[command]
    assert [a.option_strings for a in sub._actions if not a.help] == []
    text = sub.format_help()
    assert all(a.option_strings[-1] in text for a in sub._actions)


# each subcommand with one bad size of its own
_BAD_SIZES = [
    ["detect-sweep", "--steps", "0"], ["rate-sweep", "--steps", "0"],
    ["covertness-sweep", "--pu-steps", "0"], ["optimize", "--pu-steps", "0"],
    ["validate", "--gamma-points", "0"],
]


@pytest.mark.parametrize("command", _BAD_SIZES, ids=lambda argv: argv[0])
def test_checks_scenario_then_seed_then_sizes(tmp_path, capsys, command):
    # of two bad inputs, the one checked first is reported
    out = tmp_path / "out.csv"
    missing = tmp_path / "nope.json"
    for scenario, err in [
        (missing, f"config error: cannot read scenario file {missing}: "
                  f"[Errno 2] No such file or directory: {str(missing)!r}\n"),
        (SCENARIOS / "fig5.json",
         "config error: seed must be a non-negative integer, got -1\n"),
    ]:
        argv = [command[0], "--scenario", str(scenario), "--seed", "-1", *command[1:]]
        if command[0] != "validate":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["detect-sweep", "rate-sweep", "covertness-sweep"])
def test_unparsable_overlay_values_exit_two(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    assert main([command, "--scenario", str(SCENARIOS / "fig5.json"), "--out", str(out),
                 "--overlay-values", "7,a"]) == 2
    assert capsys.readouterr() == ("", "config error: cannot parse value list '7,a'\n")
    assert not out.exists()


def test_out_in_a_missing_directory_exits_two(tmp_path, capsys):
    assert main(_optimize_argv(tmp_path / "missing" / "opt.csv")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("io error: ") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_failing_validation_check_exits_four(monkeypatch, capsys):
    checks = [("closed", True, "ok"), ("mc", False, "2x off")]
    monkeypatch.setattr(uavcovert.cli, "run_validation", lambda *args, **kwargs: checks)
    assert main(["validate", "--scenario", str(SCENARIOS / "fig2.json")]) == 4
    assert capsys.readouterr() == ("PASS closed: ok\nFAIL mc: 2x off\n", "")


def test_missing_scenario_file_exits_two(tmp_path, capsys):
    code = main(["detect-sweep", "--scenario", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out.csv")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_scenario_field_exits_two(tmp_path, capsys):
    raw = json.loads((SCENARIOS / "fig2.json").read_text())
    raw["surprise"] = 1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code = main(["validate", "--scenario", str(bad)])
    assert code == 2
    assert "unknown" in capsys.readouterr().err


def test_repeated_scenario_field_exits_two(tmp_path, capsys):
    # json.load alone would keep the last value and run with p_u = 2.0
    text = (SCENARIOS / "fig5.json").read_text()
    assert text.count('"p_u_w": 2.0,') == 1
    bad = tmp_path / "repeated.json"
    bad.write_text(text.replace('"p_u_w": 2.0,', '"p_u_w": 1.0, "p_u_w": 2.0,'))
    out = tmp_path / "out.csv"
    assert main(["optimize", "--scenario", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"config error: scenario file {bad} repeats field p_u_w\n")
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["detect-sweep", "--trials", "10", "--steps", "2"], ["rate-sweep"],
    ["covertness-sweep"], ["optimize"], ["validate"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("key, value, why", [
    ("beta_db", 4000, ""), ("d_a2_m2", 10 ** 400, " (int too large)"),
], ids=["beta_db", "d_a2_m2"])
def test_scenario_overflow_exits_two(tmp_path, capsys, command, key, value, why):
    raw = json.loads((SCENARIOS / "fig5.json").read_text())
    raw[key] = value  # json writes 10 ** 400 as a 401-digit integer literal
    bad = tmp_path / "overflow.json"
    bad.write_text(json.dumps(raw))
    out = tmp_path / "out.csv"
    argv = command[:1] + ["--scenario", str(bad)] + command[1:]
    if command[0] != "validate":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: scenario field {key} overflows a float{why}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("count", [_MAX_COUNT + 1, 10**30], ids=["2**59", "10**30"])
@pytest.mark.parametrize("command, option", [
    ("detect-sweep", "--trials"), ("detect-sweep", "--steps"), ("rate-sweep", "--steps"),
    ("covertness-sweep", "--steps"), ("covertness-sweep", "--pu-steps"),
    ("optimize", "--pu-steps"), ("optimize", "--pj-steps"), ("validate", "--trials"),
    ("validate", "--symbols"), ("validate", "--gamma-points"),
])
def test_a_count_numpy_cannot_size_exits_two(tmp_path, monkeypatch, capsys,
                                             command, option, count):
    # the count rule runs before any work, so no size reaches numpy or malloc
    monkeypatch.chdir(tmp_path)  # a default --out would land here
    argv = [command, "--scenario", str(SCENARIOS / "fig5.json"), option, str(count)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_detect_sweep_writes_csv(tmp_path):
    out = tmp_path / "fig2.csv"
    code = main(["detect-sweep", "--scenario", str(SCENARIOS / "fig2.json"),
                 "--out", str(out), "--trials", "500", "--steps", "6",
                 "--seed", "9"])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 3 * 6
    assert lines[0].startswith("d_a2,d_b2,d_w2,h,")


def test_detect_sweep_byte_identical_runs(tmp_path):
    args = ["detect-sweep", "--scenario", str(SCENARIOS / "fig2.json"),
            "--trials", "2000", "--steps", "5", "--seed", "21"]
    paths = [tmp_path / f"run{i}.csv" for i in range(2)]
    assert main(args + ["--out", str(paths[0])]) == 0
    assert main(args + ["--out", str(paths[1])]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_workers_option_is_rejected(tmp_path):
    out = tmp_path / "det.csv"
    assert main(["detect-sweep", "--scenario", str(SCENARIOS / "fig2.json"),
                 "--out", str(out), "--trials", "10", "--steps", "2",
                 "--workers", "2"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--pu-max", "--pj-max"])
def test_optimize_takes_no_power_stop(tmp_path, capsys, flag):
    # optimize searches the scenario's own box, p_max/steps to p_max on both axes
    out = tmp_path / "opt.csv"
    assert main(_optimize_argv(out, flag, "10")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: uavcovert ")
    assert captured.err.endswith(f"uavcovert: error: unrecognized arguments: {flag} 10\n")
    assert not out.exists()


def test_rate_sweep_cli(tmp_path):
    out = tmp_path / "fig3.csv"
    code = main(["rate-sweep", "--scenario", str(SCENARIOS / "fig3.json"),
                 "--out", str(out), "--steps", "7"])
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 1 + 3 * 7


@pytest.mark.parametrize("bound", [["--stop", "inf"], ["--start", "nan"],
                                   ["--stop", "nan"]])
def test_rate_sweep_non_finite_bound_exits_two(tmp_path, capsys, bound):
    out = tmp_path / "rates.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["rate-sweep", "--scenario", str(SCENARIOS / "fig3.json"),
                     "--out", str(out)] + bound)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: sweep bounds must be finite")
    assert err.count("\n") == 1
    assert not out.exists()


def test_covertness_sweep_cli(tmp_path):
    out = tmp_path / "fig5.csv"
    code = main(["covertness-sweep", "--scenario", str(SCENARIOS / "fig5.json"),
                 "--out", str(out), "--steps", "3", "--pu-steps", "10"])
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 1 + 3 * 3


def test_optimize_cli_feasible(tmp_path, capsys):
    out = tmp_path / "opt.csv"
    code = main(["optimize", "--scenario", str(SCENARIOS / "fig5.json"),
                 "--out", str(out), "--pu-steps", "6", "--pj-steps", "3"])
    assert code == 0
    assert "r_b_star" in capsys.readouterr().out
    assert out.exists()


def test_optimize_cli_infeasible_exits_three(tmp_path, capsys):
    # covert-rate preset powers are security-infeasible; a cap at the
    # preset's own p_j = 5 W keeps every grid point that way
    raw = json.loads((SCENARIOS / "fig4.json").read_text())
    raw["p_max_w"] = 5.0
    capped = tmp_path / "capped.json"
    capped.write_text(json.dumps(raw))
    out = tmp_path / "opt.csv"
    code = main(["optimize", "--scenario", str(capped), "--out", str(out),
                 "--pu-steps", "1", "--pj-steps", "1"])
    assert code == 3
    assert capsys.readouterr() == ("", "no feasible grid point\n")
    with out.open(newline="") as f:
        (row,) = csv.DictReader(f)
    assert (row["feasible"], row["p_max"], row["active_constraints"]) == ("false", "5.0", "")


def test_validate_cli(capsys):
    code = main(["validate", "--scenario", str(SCENARIOS / "fig2.json"),
                 "--trials", "20000", "--symbols", "40000",
                 "--gamma-points", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3 and "FAIL" not in out


@pytest.mark.parametrize("preset", PRESETS)
def test_validate_symbol_bands_scale_with_sample_size(capsys, preset):
    # at 2e4 symbols the SNR estimate's standard error is 1%, so a correct
    # closed form lands 1.2% off on this seed; a fixed 1% band failed it
    code = main(["validate", "--scenario", str(SCENARIOS / f"{preset}.json"),
                 "--trials", "20000", "--symbols", "20000", "--seed", "4"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.count("PASS") == 3 and "FAIL" not in out


def test_validate_underflowing_destination_snr_exits_four(tmp_path, capsys):
    # at p_a = 5e-324 the closed-form gamma_b underflows to 0, the base of
    # the relative SNR gap
    raw = json.loads((SCENARIOS / "fig5.json").read_text())
    raw["p_a_w"] = 5e-324
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps(raw))
    code = main(["validate", "--scenario", str(tiny), "--trials", "1000",
                 "--symbols", "1000"])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical failure: closed-form destination SNR 0.0 "
                            "is not positive\n")


def test_validate_overflowing_threshold_grid_exits_four(tmp_path, capsys):
    # at sigma_w2 = 3075 dBW gamma_star is about 3.2e307, so the grid stop
    # 10 * gamma_star overflows: numpy's linspace once warned, and the
    # Monte Carlo then blamed the closed form with a FAIL line
    raw = json.loads((SCENARIOS / "fig5.json").read_text())
    raw["sigma_w2_dbw"] = 3075
    loud = tmp_path / "loud.json"
    loud.write_text(json.dumps(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["validate", "--scenario", str(loud), "--trials", "1000",
                     "--symbols", "1000"])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: threshold grid stop 10 * ")
    assert captured.err.endswith(" overflows\n") and captured.err.count("\n") == 1


def test_vanishing_jamming_power_is_silent(tmp_path, capsys):
    # at p_j = 5e-324 the detection exponents (gamma_0 - gamma) / p_j
    # overflow to -inf, whose exponential is the defined limit 0: numpy
    # once printed an overflow RuntimeWarning for each
    raw = json.loads((SCENARIOS / "fig5.json").read_text())
    raw["p_j_w"] = 5e-324
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--scenario", str(tiny), "--trials", "2000",
                     "--symbols", "2000"]) == 0
        assert main(["detect-sweep", "--scenario", str(tiny), "--out",
                     str(tmp_path / "out.csv"), "--trials", "200", "--steps", "5"]) == 0
    assert capsys.readouterr().err == ""


def test_overflowing_jamming_power_is_silent(tmp_path, capsys):
    # at p_j = 1.7e308 the Monte Carlo's jammed statistic p_j |h_bw|^2
    # overflows to inf, the defined limit that exceeds every threshold:
    # numpy once printed an overflow RuntimeWarning for it
    raw = json.loads((SCENARIOS / "fig5.json").read_text())
    raw.update(p_j_w=1.7e308, p_max_w=1.7e308, p_u_w=1.0, p_a_w=1.0)
    loud = tmp_path / "loud.json"
    loud.write_text(json.dumps(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["detect-sweep", "--scenario", str(loud), "--out",
                     str(tmp_path / "out.csv"), "--trials", "1000",
                     "--steps", "3"]) == 0
        assert main(["validate", "--scenario", str(loud), "--trials", "1000",
                     "--symbols", "1000", "--gamma-points", "3"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", [
    ["optimize", "--pu-steps", "4", "--pj-steps", "4"],
    ["covertness-sweep", "--steps", "3", "--pu-steps", "4"],
], ids=["optimize", "covertness-sweep"])
def test_overflowing_grid_snrs_exit_four(tmp_path, capsys, command):
    # at p_max = 1e300 and sigma_u2 = 1e30 the grid's p_u sigma_u2 overflows
    # in gamma_b's denominator: numpy once warned, and the inf made every
    # point infeasible (optimize exited 3, covertness-sweep 0)
    raw = json.loads((SCENARIOS / "fig5.json").read_text())
    raw.update(p_max_w=1e300, sigma_u2_dbw=300)
    loud = tmp_path / "loud.json"
    loud.write_text(json.dumps(raw))
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command[0], "--scenario", str(loud), "--out", str(out),
                     *command[1:]])
        # the scenario itself is valid: the rate sweep takes no grid power
        assert main(["rate-sweep", "--scenario", str(loud), "--out",
                     str(tmp_path / "rates.csv")]) == 0
    assert code == 4
    captured = capsys.readouterr()
    assert captured.err == ("numerical failure: SNRs on the power grid overflow: "
                            "overflow encountered in multiply\n")
    assert not out.exists()


# d^2 = 100 m^2 on every link, 45 dB gain, -100 dBW noises and epsilon
# 1e-15: every covert floor lies above the 1e6 m search ceiling, and C_s,
# still above r_s at the ceiling, has fallen below it at the floor
_FLOOR_ABOVE_THE_CEILING = dict(
    d_a2_m2=100.0, d_b2_m2=100.0, d_w2_m2=100.0, h_m=0.0, beta_db=45.0,
    p_a_w=1.0, p_u_w=1.0, p_j_w=0.01, p_max_w=1.0, sigma_u2_dbw=-100.0,
    sigma_b2_dbw=-100.0, sigma_w2_dbw=-100.0, epsilon=1e-15, r_s_bpcu=1e-6)


def test_covert_floor_above_the_search_ceiling_is_insecure(tmp_path, capsys):
    scenario = tmp_path / "faint.json"
    scenario.write_text(json.dumps(_FLOOR_ABOVE_THE_CEILING))
    assert main(["optimize", "--scenario", str(scenario), "--out",
                 str(tmp_path / "opt.csv"), "--pu-steps", "4",
                 "--pj-steps", "4"]) == 3
    assert capsys.readouterr().err == "no feasible grid point\n"
    out = tmp_path / "sweep.csv"
    assert main(["covertness-sweep", "--scenario", str(scenario), "--out",
                 str(out), "--start", "1e-15", "--stop", "1e-14", "--steps", "3",
                 "--overlay-values", "0.01", "--pu-steps", "4"]) == 0
    with out.open(newline="") as f:
        assert [row["feasible"] for row in csv.DictReader(f)] == ["false"] * 3


@pytest.mark.parametrize("r_s", [1024, 1e300])
def test_unreachable_secrecy_threshold_exits_three(tmp_path, capsys, r_s):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["optimize", "--scenario", _strict_fig5(tmp_path, r_s), "--out",
                     str(tmp_path / "out.csv"), "--pu-steps", "4",
                     "--pj-steps", "4"])
    assert code == 3
    assert capsys.readouterr().err == "no feasible grid point\n"


@pytest.mark.parametrize("preset, key, command", [
    ("fig3", "d_a2_m2", ["rate-sweep"]),
    ("fig4", "d_b2_m2", ["rate-sweep"]),
    ("fig5", "d_a2_m2", ["optimize", "--pu-steps", "5", "--pj-steps", "5"]),
])
def test_non_finite_los_gain_exits_two(tmp_path, capsys, preset, key, command):
    # beta / 5e-324 overflows: these runs once wrote inf/nan cells or exited
    # 3, after numpy RuntimeWarnings
    raw = json.loads((SCENARIOS / f"{preset}.json").read_text())
    raw[key] = 5e-324
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps(raw))
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command[0], "--scenario", str(tiny), "--out", str(out),
                     *command[1:]])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: LOS gain beta / ")
    assert captured.err.count("\n") == 1 and key[:4] in captured.err
    assert not out.exists()


@pytest.mark.parametrize("fields, err", [
    ({"beta_db": 3000.0},
     "SNRs (gamma_u, gamma_b) at h = 0 must be finite, "
     "got (0.1388888888888889, inf)"),
    ({"beta_db": -3000.0, "sigma_u2_dbw": -3000.0, "sigma_b2_dbw": -3000.0},
     "sigma_b2 * sigma_u2 must be > 0, but 1e-300 * 1e-300 underflows to 0"),
], ids=["overflow", "underflow"])
def test_non_finite_ground_snr_exits_two(tmp_path, capsys, fields, err):
    # beta = 1e300 overflows gamma_b: the rate sweep once wrote inf in
    # gamma_b, c_b, c_s and r_b on every row and exited 0.  With beta and
    # both noises at 1e-300 gamma_b is 0/0: nan cells after a numpy
    # warning, and a ZeroDivisionError out of validate
    raw = json.loads((SCENARIOS / "fig3.json").read_text())
    raw.update(fields)
    scenario = tmp_path / "extreme.json"
    scenario.write_text(json.dumps(raw))
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["rate-sweep", "--scenario", str(scenario), "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {err}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["optimize", "--pu-steps", "4", "--pj-steps", "4"],
    ["rate-sweep", "--stop", "2000000"],
    ["validate"],
], ids=["optimize", "rate-sweep", "validate"])
def test_underflowing_noise_product_exits_two(tmp_path, capsys, command):
    # sigma_b2 sigma_u2 = 1e-340 underflows to 0, and with it the floor of
    # gamma_b's denominator: optimize raised ZeroDivisionError out of the
    # bisection at h >= 1e3 m, rate-sweep exited 4 after two numpy
    # warnings and validate exited 0
    raw = json.loads((SCENARIOS / "fig3.json").read_text())
    raw.update(beta_db=-1500.0, sigma_u2_dbw=-1700.0, sigma_b2_dbw=-1700.0)
    scenario = tmp_path / "faint.json"
    scenario.write_text(json.dumps(raw))
    out = tmp_path / "out.csv"
    argv = [command[0], "--scenario", str(scenario), *command[1:]]
    if command[0] != "validate":
        argv += ["--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: sigma_b2 * sigma_u2 must be > 0, "
                            "but 1e-170 * 1e-170 underflows to 0\n")
    assert not out.exists()


@pytest.mark.parametrize("p_max, steps, message", [
    (5e-324, 2, "p_u_values must be finite and > 0, got 0.0"),
    (1e-323, 3, "p_u_values must be strictly increasing"),
    (2e-323, 6, "p_u_values must be strictly increasing"),
], ids=["zero", "repeat", "overshoot"])
@pytest.mark.parametrize("command", ["optimize", "covertness-sweep"])
def test_underflowing_power_axis_exits_two(tmp_path, capsys, command, p_max,
                                           steps, message):
    # at a cap of a few subnormals the axis rounds to 0, repeats a value or
    # overshoots p_max before its last point: it is rejected before any work
    raw = json.loads((SCENARIOS / "fig5.json").read_text())
    raw.update(p_a_w=p_max, p_u_w=p_max, p_j_w=p_max, p_max_w=p_max)
    scenario = tmp_path / "faint.json"
    scenario.write_text(json.dumps(raw))
    out = tmp_path / "out.csv"
    sizes = (["--pu-steps", str(steps), "--pj-steps", str(steps)] if command == "optimize"
             else ["--pu-steps", str(steps), "--overlay-values", repr(p_max)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--scenario", str(scenario), "--out", str(out), *sizes])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, epsilon, code, err", [
    (["optimize", "--pu-steps", "8", "--pj-steps", "8"], 1e-320, 3,
     "no feasible grid point\n"),
    (["covertness-sweep", "--start", "1e-320", "--stop", "0.5"], 0.01, 0, ""),
    (["covertness-sweep", "--start", "5e-324", "--stop", "0.5", "--steps", "4",
      "--overlay-values", "0.1,5"], 0.01, 0, ""),
], ids=["optimize-overflow", "sweep-overflow", "sweep-underflow"])
def test_infinite_covert_floor_is_silent(tmp_path, capsys, command, epsilon,
                                         code, err):
    # h_min^2 = -p_u beta / (p_j log1p(-epsilon)) - d_w^2 overflows, or its
    # denominator underflows to 0: h_min = inf, with no numpy warning
    raw = json.loads((SCENARIOS / "fig5.json").read_text())
    raw["epsilon"] = epsilon
    scenario = tmp_path / "tight.json"
    scenario.write_text(json.dumps(raw))
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command[0], "--scenario", str(scenario), "--out", str(out),
                     *command[1:]]) == code
    assert capsys.readouterr().err == err
    assert out.exists()


def test_undefined_covert_floor_exits_four(tmp_path, capsys):
    # at p_u = p_j = 1e308 and epsilon = 1 - 1e-16 both p_u beta and
    # p_j log1p(-epsilon) overflow: the radicand is inf / inf, once a numpy
    # RuntimeWarning and exit 3
    raw = json.loads((SCENARIOS / "fig5.json").read_text())
    raw.update(p_max_w=1e308, epsilon=0.9999999999999999)
    scenario = tmp_path / "huge.json"
    scenario.write_text(json.dumps(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["optimize", "--scenario", str(scenario),
                     "--out", str(tmp_path / "out.csv")])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: covert floor undefined")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("points", ["0", "-3"])
def test_validate_empty_threshold_grid_exits_two(capsys, points):
    code = main(["validate", "--scenario", str(SCENARIOS / "fig2.json"),
                 "--trials", "10", "--symbols", "10", "--gamma-points", points])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: gamma_points must be a positive integer, got {points}\n")


@pytest.mark.parametrize("option, name", [("--symbols", "n_symbols"),
                                          ("--trials", "n_trials")])
def test_validate_checks_sample_sizes_before_any_monte_carlo(monkeypatch, capsys,
                                                             option, name):
    def simulate(*args, **kwargs):
        raise AssertionError("Monte Carlo ran before the sample-size check")
    monkeypatch.setattr(uavcovert.experiments, "simulate_detection", simulate)
    monkeypatch.setattr(uavcovert.experiments, "simulate_destination_snr", simulate)
    code = main(["validate", "--scenario", str(SCENARIOS / "fig2.json"), option, "0"])
    assert code == 2
    assert capsys.readouterr() == (
        "", f"config error: {name} must be a positive integer, got 0\n")


def test_optimize_checks_seed_before_searching(tmp_path, monkeypatch, capsys):
    def search(*args, **kwargs):
        raise AssertionError("grid search ran before the seed check")
    monkeypatch.setattr(uavcovert.cli, "maximize_covert_rate", search)
    out = tmp_path / "opt.csv"
    code = main(["optimize", "--scenario", str(SCENARIOS / "fig5.json"),
                 "--out", str(out), "--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: seed must be a non-negative integer, got -1\n")
    assert not out.exists()


def test_negative_seed_exits_two(tmp_path, capsys):
    code = main(["detect-sweep", "--scenario", str(SCENARIOS / "fig2.json"),
                 "--out", str(tmp_path / "x.csv"), "--seed", "-1",
                 "--trials", "10", "--steps", "4"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["detect-sweep", "--scenario", str(SCENARIOS / "fig2.json"), "--trials", "300",
     "--steps", "7", "--seed", "4"],
    ["rate-sweep", "--scenario", str(SCENARIOS / "fig3.json"), "--steps", "200"],
    ["rate-sweep", "--scenario", str(SCENARIOS / "fig4.json"), "--steps", "1",
     "--start", "-0.0", "--stop", "-0.0"],
    ["covertness-sweep", "--scenario", str(SCENARIOS / "fig5.json"), "--steps", "4",
     "--pu-steps", "8"],
    ["optimize", "--scenario", str(SCENARIOS / "fig5.json"), "--pu-steps", "6",
     "--pj-steps", "6", "--seed", "3"],
    ["optimize", "--scenario", _STRICT, "--pu-steps", "2", "--pj-steps", "2"],
], ids=["detect", "rate-fig3", "rate-negative-zero", "covertness", "optimize",
        "optimize-infeasible"])
def test_csv_matches_row_at_a_time_reference(tmp_path, monkeypatch, argv):
    written = []
    write_csv = uavcovert.cli.write_csv

    def recording(path, blocks):
        written.append((path, blocks))
        write_csv(path, blocks)

    monkeypatch.setattr(uavcovert.cli, "write_csv", recording)
    out = tmp_path / "out.csv"
    code = 3 if _STRICT in argv else 0
    argv = [_strict_fig5(tmp_path) if arg == _STRICT else arg for arg in argv]
    assert main(argv + ["--out", str(out)]) == code
    ((path, blocks),) = written
    assert path == str(out)
    assert out.read_bytes() == reference_render_csv(
        expand_rows(blocks), tuple(blocks[0])).encode("ascii")


_SCENARIO_HEADER = ("d_a2,d_b2,d_w2,h,beta,p_a,p_u,p_j,p_max,sigma_u2,sigma_b2,"
                    "sigma_w2,epsilon,r_s,")


@pytest.mark.parametrize("argv, code, header", [
    (["detect-sweep", "--scenario", str(SCENARIOS / "fig2.json"), "--trials", "10",
      "--steps", "2"], 0,
     "gamma,p_fa,p_md,zeta,p_fa_mc,p_md_mc,zeta_mc,gamma_star,zeta_star,n_trials,"
     "seed,scenario_hash"),
    (["rate-sweep", "--scenario", str(SCENARIOS / "fig3.json"), "--steps", "2"], 0,
     "gamma_u,gamma_b,c_u,c_b,c_s,r_b,seed,scenario_hash"),
    (["covertness-sweep", "--scenario", str(SCENARIOS / "fig5.json"), "--steps", "2",
      "--pu-steps", "4"], 0,
     "feasible,h_min,h_max,p_u_star,p_j_star,h_star,r_b_star,c_s_star,seed,"
     "scenario_hash"),
    (["optimize", "--scenario", str(SCENARIOS / "fig5.json"), "--pu-steps", "4",
      "--pj-steps", "4"], 0,
     "feasible,p_u_star,p_j_star,h_star,r_b_star,c_s_star,active_constraints,seed,"
     "scenario_hash"),
    (["optimize", "--scenario", _STRICT, "--pu-steps", "2", "--pj-steps", "2"], 3,
     "feasible,p_u_star,p_j_star,h_star,r_b_star,c_s_star,active_constraints,seed,"
     "scenario_hash"),
], ids=["detect-sweep", "rate-sweep", "covertness-sweep", "optimize",
        "optimize-infeasible"])
def test_every_csv_header_is_pinned(tmp_path, capsys, argv, code, header):
    # each runner's block keys are the header, so the code holds no copy
    # of these lists to compare with
    out = tmp_path / "out.csv"
    argv = [_strict_fig5(tmp_path) if arg == _STRICT else arg for arg in argv]
    assert main(argv + ["--out", str(out)]) == code
    assert out.read_text().split("\n", 1)[0] == _SCENARIO_HEADER + header


def test_detect_sweep_rejects_a_span_that_overflows(tmp_path, capsys):
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["detect-sweep", "--scenario", str(SCENARIOS / "fig2.json"),
                     "--out", str(out), "--trials", "10", "--start=-1e308",
                     "--stop", "1e308", "--steps", "3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: sweep bounds must be finite, as must their "
                            "span stop - start, got [-1e+308, 1e+308]\n")
    assert not out.exists()


def _out_of_memory(message):
    def allocate(*args, **kwargs):
        raise MemoryError(*message)
    return allocate


@pytest.mark.parametrize("message", [(), ("Unable to allocate 745. GiB",)],
                         ids=["bare", "numpy"])
@pytest.mark.parametrize("argv, module, call", [
    (_optimize_argv("opt.csv", "--pj-steps", "100000000000"), np, "linspace"),
    (["rate-sweep", "--scenario", str(SCENARIOS / "fig3.json"), "--out", "rate.csv",
      "--steps", "100000000000"], np, "linspace"),
    (["validate", "--scenario", str(SCENARIOS / "fig4.json"), "--trials", "10",
      "--symbols", "100000000000"], uavcovert.experiments, "simulate_destination_snr"),
    (["validate", "--scenario", str(SCENARIOS / "fig4.json"), "--symbols", "10",
      "--trials", "100000000000"], uavcovert.experiments, "simulate_detection"),
], ids=["optimize-pj-steps", "rate-sweep-steps", "validate-symbols", "validate-trials"])
def test_unallocatable_size_exits_two(tmp_path, monkeypatch, capsys, argv, module,
                                      call, message):
    # the allocating call raises as numpy does, without allocating anything
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(module, call, _out_of_memory(message))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: out of memory" + "".join(
        f": {m}" for m in message) + "\n"
    assert list(tmp_path.iterdir()) == []


# The declared float domain: extreme values for each scenario file field.
_LINEAR_EXTREMES = (5e-324, 1e-300, 1e300, 1.7e308)
_FIELD_EXTREMES = {
    **dict.fromkeys(("d_a2_m2", "d_b2_m2", "d_w2_m2", "p_a_w", "p_u_w",
                     "p_j_w", "p_max_w"), _LINEAR_EXTREMES),
    **dict.fromkeys(("beta_db", "sigma_u2_dbw", "sigma_b2_dbw", "sigma_w2_dbw"),
                    (-3000, -300, 300, 3000)),
    "epsilon": (1e-300, 1e-16, 1.0 - 1e-16),
    **dict.fromkeys(("h_m", "r_s_bpcu"), (0.0, 1e-300, 1e300)),
}
_SMALL_RUNS = {
    "detect-sweep": ["--trials", "200", "--steps", "3"],
    "rate-sweep": ["--steps", "3"],
    "covertness-sweep": ["--steps", "3", "--pu-steps", "4"],
    "optimize": ["--pu-steps", "4", "--pj-steps", "4"],
    "validate": ["--trials", "1000", "--symbols", "1000", "--gamma-points", "3"],
}
_TEXT_COLUMNS = {"feasible", "active_constraints", "scenario_hash"}


_EXTREME_CHANGES = st.lists(
    st.sampled_from(sorted(_FIELD_EXTREMES)), min_size=1, max_size=4,
    unique=True).flatmap(lambda keys: st.fixed_dictionaries(
        {k: st.sampled_from(_FIELD_EXTREMES[k]) for k in keys}))


@given(changes=_EXTREME_CHANGES)
@settings(max_examples=400)
def test_every_subcommand_keeps_the_float_domain_rule(tmp_path_factory, changes):
    # fig5 with one to four fields at an extreme: every subcommand exits 2
    # or 4 with at most one stderr line, or exits 0 or 3, with no warning;
    # an exit-0 CSV's only non-finite cells are an infeasible row's NaNs and
    # h_max = inf.  Only numeric columns are parsed: a scenario_hash such
    # as 90273378e3115359 parses as a float
    raw = json.loads((SCENARIOS / "fig5.json").read_text())
    raw.update(changes)
    folder = tmp_path_factory.mktemp("domain")
    scenario = folder / "scenario.json"
    scenario.write_text(json.dumps(raw))
    for command, sizes in _SMALL_RUNS.items():
        out = folder / f"{command}.csv"
        argv = [command, "--scenario", str(scenario), *sizes]
        if command != "validate":
            argv += ["--out", str(out)]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(argv)
        assert code in (0, 2, 3, 4), (command, changes)
        assert [str(w.message) for w in caught] == [], (command, changes)
        assert err.getvalue().count("\n") <= 1, (command, changes, err.getvalue())
        if code != 0 or command == "validate":
            continue
        with out.open(newline="") as f:
            for row in csv.DictReader(f):
                for column, cell in row.items():
                    if column in _TEXT_COLUMNS or math.isfinite(float(cell)):
                        continue
                    infeasible_nan = math.isnan(float(cell)) and row.get("feasible") == "false"
                    assert infeasible_nan or (column, cell) == ("h_max", "inf"), (
                        command, changes, column)
