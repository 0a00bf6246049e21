import json
import pathlib
import warnings

import pytest

import uavcovert.cli
from uavcovert.cli import main

from conftest import PRESETS

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "detect-sweep" in capsys.readouterr().out


def test_usage_error_exits_two():
    assert main(["no-such-command"]) == 2


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
