import argparse
import json
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import uavcovert.cli
from uavcovert.cli import main

from conftest import PRESETS, expand_rows, reference_render_csv

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"


def _optimize_argv(out, *extra):
    return ["optimize", "--scenario", str(SCENARIOS / "fig5.json"), "--out", str(out),
            "--pu-steps", "4", "--pj-steps", "4", *extra]


def test_help_exits_zero(capsys):
    # twice, so the second call runs on the parser the first one built
    texts = []
    for _ in range(2):
        assert main(["--help"]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and "detect-sweep" in texts[0]


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
    assert main(_optimize_argv(tmp_path / "capped.csv", "--pu-max", "10",
                               "--pj-max", "10")) == 0
    capsys.readouterr()
    assert main(_optimize_argv(tmp_path / "plain.csv")) == 0
    assert capsys.readouterr() == fresh_out
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    assert (tmp_path / "capped.csv").read_bytes() != (tmp_path / "fresh.csv").read_bytes()


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


@pytest.mark.parametrize("command", [
    ["detect-sweep", "--trials", "10", "--steps", "2"], ["rate-sweep"],
    ["covertness-sweep"], ["optimize"], ["validate"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("key, value", [("beta_db", 4000), ("d_a2_m2", 10 ** 400)],
                         ids=["beta_db", "d_a2_m2"])
def test_scenario_overflow_exits_two(tmp_path, capsys, command, key, value):
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
    assert captured.err == f"config error: scenario field {key} overflows a float\n"
    assert captured.out == ""
    assert not out.exists()


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
    # covert-rate preset powers are security-infeasible; a grid pinned at
    # low forward power keeps them that way
    code = main(["optimize", "--scenario", str(SCENARIOS / "fig4.json"),
                 "--out", str(tmp_path / "opt.csv"),
                 "--pu-steps", "1", "--pu-max", "2",
                 "--pj-steps", "1", "--pj-max", "5"])
    assert code == 3
    assert "no feasible grid point" in capsys.readouterr().err


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


@pytest.mark.parametrize("points", ["0", "-3"])
def test_validate_empty_threshold_grid_exits_two(capsys, points):
    code = main(["validate", "--scenario", str(SCENARIOS / "fig2.json"),
                 "--trials", "10", "--symbols", "10", "--gamma-points", points])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: gamma_points must be >= 1, got {points}\n"


def test_optimize_checks_seed_before_searching(tmp_path, monkeypatch, capsys):
    def search(*args, **kwargs):
        raise AssertionError("grid search ran before the seed check")
    monkeypatch.setattr(uavcovert.cli, "maximize_covert_rate", search)
    out = tmp_path / "opt.csv"
    code = main(["optimize", "--scenario", str(SCENARIOS / "fig5.json"),
                 "--out", str(out), "--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err == "config error: seed must be non-negative, got -1\n"
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
    ["optimize", "--scenario", str(SCENARIOS / "fig4.json"), "--pu-steps", "2",
     "--pj-steps", "2", "--pu-max", "0.1", "--pj-max", "0.1"],
], ids=["detect", "rate-fig3", "rate-negative-zero", "covertness", "optimize",
        "optimize-infeasible"])
def test_csv_matches_row_at_a_time_reference(tmp_path, monkeypatch, argv):
    written = []
    write_csv = uavcovert.cli.write_csv

    def recording(path, records, columns):
        written.append((records, columns))
        write_csv(path, records, columns)

    monkeypatch.setattr(uavcovert.cli, "write_csv", recording)
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == (3 if "--pu-max" in argv else 0)
    ((records, columns),) = written
    assert out.read_bytes() == reference_render_csv(
        expand_rows(records), columns).encode("ascii")
