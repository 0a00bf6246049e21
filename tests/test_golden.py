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
from decimal import Decimal

import numpy as np

from uavcovert.cli import main

from conftest import exact_exp, exact_log1p, exact_log2

ROOT = pathlib.Path(__file__).resolve().parents[1]


_spec = importlib.util.spec_from_file_location(
    "reproduce_figures", ROOT / "scripts" / "reproduce_figures.py")
reproduce_figures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reproduce_figures)
ulp_distance = reproduce_figures.ulp_distance
golden_mismatches = reproduce_figures.golden_mismatches
MAX_ULP = reproduce_figures.MAX_ULP


def reproduce_argv(out_name: str) -> list[str]:
    """The argv scripts/reproduce_figures.py runs to write out/<out_name>."""
    (argv,) = [run for run in reproduce_figures.RUNS
               if pathlib.Path(run[run.index("--out") + 1]).name == out_name]
    return list(argv)


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
    tracked = (ROOT / "out" / out_name).read_text()
    assert golden_mismatches(out.read_text(), tracked) == []


def test_fig2_detection_sweep_matches_tracked_csv(tmp_path):
    assert_matches_tracked("fig2_detection.csv", tmp_path)


def test_fig3_rate_sweep_matches_tracked_csv(tmp_path):
    assert_matches_tracked("fig3_secrecy_rate.csv", tmp_path)


def test_fig4_rate_sweep_matches_tracked_csv(tmp_path):
    assert_matches_tracked("fig4_covert_rate.csv", tmp_path)


def test_fig5_covertness_sweep_matches_tracked_csv(tmp_path):
    assert_matches_tracked("fig5_optimized_rate.csv", tmp_path)


def test_fig2_closed_forms_sit_near_correctly_rounded_exp():
    # against e**x of each cell's own float exponent, taken from the row:
    # p_fa = exp((sigma_w^2 - gamma) / P_J) is within 1 ULP (measured: 0 on
    # all 147 exp cells).  p_md = 1 - exp(tau) cancels near gamma_star
    # (measured up to 18,730 ULP), so its bound is absolute: where
    # exp(tau) >= 1/2 the subtraction is exact and the error is exp's
    # rounding, at most 2^-54 (measured 0.4996 * 2^-53).  zeta = p_fa + p_md
    # is within 1 ULP (measured 1) and 2^-53 (measured 0.89 * 2^-53).
    header, rows = read_csv(ROOT / "out" / "fig2_detection.csv")
    exp_cells = 0
    for row in rows:
        r = {name: float(cell) for name, cell in zip(header, row)
             if name != "scenario_hash"}
        gamma, sigma_w2, p_j = r["gamma"], r["sigma_w2"], r["p_j"]
        p_fa = exact_exp((sigma_w2 - gamma) / p_j) if gamma >= sigma_w2 else 1
        p_md = (1 - exact_exp((r["gamma_star"] - gamma) / p_j)
                if gamma >= r["gamma_star"] else 0)
        exp_cells += gamma >= sigma_w2
        assert ulp_distance(r["p_fa"], float(p_fa)) <= 1, row
        assert abs(Decimal(r["p_md"]) - p_md) <= Decimal(2.0 ** -54), row
        zeta = p_fa + p_md
        assert ulp_distance(r["zeta"], float(zeta)) <= 1, row
        assert abs(Decimal(r["zeta"]) - zeta) <= Decimal(2.0 ** -53), row
    assert exp_cells == 147


def test_fig3_fig4_capacities_sit_near_correctly_rounded_log2():
    # against log2 of each cell's own 1 + gamma, taken from the row: every
    # c_u and c_b is within 1 ULP of the correctly rounded value.  Measured:
    # 6 of the 312 tracked cells are 1 ULP off, among them the fig3 c_b at
    # h = 20, p_u = 8, where libm builds are known to differ
    cells = 0
    for name in ("fig3_secrecy_rate.csv", "fig4_covert_rate.csv"):
        header, rows = read_csv(ROOT / "out" / name)
        for row in rows:
            r = dict(zip(header, row))
            for c, gamma in (("c_u", "gamma_u"), ("c_b", "gamma_b")):
                truth = float(exact_log2(1.0 + float(r[gamma])))
                assert ulp_distance(float(r[c]), truth) <= 1, (name, c, row)
                cells += 1
    assert cells == 312


def test_covert_floor_log1p_sits_near_the_exact_logarithm():
    # the covert floor's one transcendental, math.log1p(-epsilon) per
    # epsilon, is within 1 ULP of the correctly rounded ln(1 - epsilon) on
    # fig5's 20 epsilon cells and on 2,000 log-spaced epsilon in
    # [1e-12, 0.5].  Measured: 6 of the 2,000 are 1 ULP off, the fig5
    # cells none, so the h_min and h_star cells carry at most that ULP of
    # log1p on top of plain arithmetic
    header, rows = read_csv(ROOT / "out" / "fig5_optimized_rate.csv")
    epsilons = sorted({float(row[header.index("epsilon")]) for row in rows})
    assert len(epsilons) == 20
    for epsilon in epsilons + np.geomspace(1e-12, 0.5, 2000).tolist():
        truth = float(exact_log1p(-epsilon))
        assert ulp_distance(math.log1p(-epsilon), truth) <= 1, epsilon


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
    # "security" would join if h_max, the ceiling solve, fell to h_star
    assert row["active_constraints"] == "covert;p_u_cap"


def test_golden_mismatches_flags_what_breaks_the_rule():
    tracked = (ROOT / "out" / "fig3_secrecy_rate.csv").read_text()
    header, *rows = tracked.splitlines()
    c_b = header.split(",").index("c_b")

    def with_cell(row, column, value):
        lines = [header] + rows
        cells = lines[row + 1].split(",")
        cells[column] = value
        lines[row + 1] = ",".join(cells)
        return "\n".join(lines) + "\n"

    value = float(rows[3].split(",")[c_b])
    two_ulp = math.nextafter(math.nextafter(value, 1.0), 1.0)
    assert golden_mismatches(tracked, tracked) == []
    assert golden_mismatches(with_cell(3, c_b, repr(two_ulp)), tracked) == []
    assert golden_mismatches(
        with_cell(3, c_b, repr(math.nextafter(two_ulp, 1.0))), tracked) != []
    assert golden_mismatches(with_cell(3, -1, "0" * 16), tracked) != []
    assert golden_mismatches(with_cell(3, c_b, "x"), tracked) != []
    assert golden_mismatches("\n".join([header] + rows[:-1]) + "\n", tracked) != []
    assert golden_mismatches(tracked.replace("c_b", "c_B", 1), tracked) != []


def test_regenerate_keeps_a_golden_match_and_rewrites_a_drift(tmp_path):
    argv = reproduce_argv("fig3_secrecy_rate.csv")
    target = tmp_path / "fig3_secrecy_rate.csv"
    argv[argv.index("--out") + 1] = str(target)
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    tracked = (ROOT / "out" / "fig3_secrecy_rate.csv").read_bytes()

    target.write_bytes(tracked)
    assert reproduce_figures.regenerate(argv, scratch).startswith("kept")
    assert target.read_bytes() == tracked

    drifted = tracked.replace(b",0.1", b",0.2", 1)
    target.write_bytes(drifted)
    assert reproduce_figures.regenerate(argv, scratch) == "rewrote"
    assert target.read_bytes() == (scratch / target.name).read_bytes()
    assert golden_mismatches(target.read_text(), tracked.decode()) == []
