"""Golden regression: every figure run against its tracked result in out/.

Columns, rows, flags, strings, seeds, scenario hashes and the argmax powers
must match exactly.  Other numeric cells may drift by at most 2 ULP, the
most a libm build's log2 has been seen to move them (the fig3 row at h=20,
p_u=8), so the test holds across platforms.
"""
import csv
import importlib.util
import io
import math
import pathlib
import struct

from uavcovert.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
MAX_ULP = 2
EXACT_COLUMNS = {"feasible", "p_u_star", "p_j_star", "n_trials", "seed",
                 "scenario_hash"}


def ulp_distance(a: float, b: float) -> int:
    """Number of doubles between a and b (0 when equal, inf across NaN)."""
    if a == b:
        return 0
    if math.isnan(a) or math.isnan(b):
        return 0 if math.isnan(a) and math.isnan(b) else math.inf

    def ordered(x):
        n = struct.unpack("<q", struct.pack("<d", x))[0]
        return n if n >= 0 else -(n & 0x7FFFFFFFFFFFFFFF)
    return abs(ordered(a) - ordered(b))


def reproduce_argv(out_name: str) -> list[str]:
    """The argv scripts/reproduce_figures.py runs to write out/<out_name>."""
    spec = importlib.util.spec_from_file_location(
        "reproduce_figures", ROOT / "scripts" / "reproduce_figures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (argv,) = [run for run in module.RUNS
               if pathlib.Path(run[run.index("--out") + 1]).name == out_name]
    return argv


def read_csv(path):
    rows = list(csv.reader(io.StringIO(pathlib.Path(path).read_text())))
    return rows[0], rows[1:]


def test_ulp_distance():
    assert ulp_distance(1.0, 1.0) == 0
    assert ulp_distance(1.0, math.nextafter(1.0, 2.0)) == 1
    assert ulp_distance(-0.0, 0.0) == 0
    assert ulp_distance(math.nextafter(0.0, -1.0), math.nextafter(0.0, 1.0)) == 2
    assert ulp_distance(math.nan, math.nan) == 0
    assert ulp_distance(math.nan, 1.0) == math.inf


def assert_matches_tracked(out_name: str, tmp_path) -> None:
    """Rerun the figure run that writes out/<out_name> and compare."""
    argv = reproduce_argv(out_name)
    out = tmp_path / out_name
    argv[argv.index("--out") + 1] = str(out)
    assert main(argv) == 0

    header, rows = read_csv(out)
    ref_header, ref_rows = read_csv(ROOT / "out" / out_name)
    assert header == ref_header
    assert len(rows) == len(ref_rows)
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for column, got, want in zip(header, row, ref):
            if column in EXACT_COLUMNS or got == want:
                assert got == want, (i, column, got, want)
            else:
                assert ulp_distance(float(got), float(want)) <= MAX_ULP, \
                    (i, column, got, want)


def test_fig2_detection_sweep_matches_tracked_csv(tmp_path):
    assert_matches_tracked("fig2_detection.csv", tmp_path)


def test_fig3_rate_sweep_matches_tracked_csv(tmp_path):
    assert_matches_tracked("fig3_secrecy_rate.csv", tmp_path)


def test_fig4_rate_sweep_matches_tracked_csv(tmp_path):
    assert_matches_tracked("fig4_covert_rate.csv", tmp_path)


def test_fig5_covertness_sweep_matches_tracked_csv(tmp_path):
    assert_matches_tracked("fig5_optimized_rate.csv", tmp_path)


def test_fig5_optimize_50x50_argmax(tmp_path):
    out = tmp_path / "opt.csv"
    assert main(["optimize", "--scenario", str(ROOT / "scenarios" / "fig5.json"),
                 "--out", str(out), "--pu-steps", "50", "--pj-steps", "50"]) == 0
    header, rows = read_csv(out)
    (row,) = [dict(zip(header, r)) for r in rows]
    assert row["feasible"] == "true"
    assert float(row["p_u_star"]) == 30.0
    assert float(row["p_j_star"]) == 19.2
    assert ulp_distance(float(row["h_star"]), 35.42138356483582) <= MAX_ULP
    assert ulp_distance(float(row["r_b_star"]), 0.15706492469581043) <= MAX_ULP
