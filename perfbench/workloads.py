"""The benchmark's workloads, each a fixed list of CLI tasks built from a seed.

A task is one `uavcovert` command line plus the check of its output.  Main
tasks make up the workload; companion tasks are small runs of the other
subcommands, so that every throughput metric has work to measure on every
workload.  Companions are left out of `wall_s`.  Reference tasks too long to
repeat many times in a run (`timed=False`) run once per run, before the timed
passes, and are checked but not timed.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

REF = Path(__file__).resolve().parent / "ref"

GRID, MC, ROWS = "grid_points", "mc_draws", "csv_rows"

# fig5 optimize 50x50 argmax at the commit that introduced the benchmark
FIG5_ARGMAX = {"p_u_star": 30.0, "p_j_star": 19.2,
               "h_star": 35.42138356483582, "r_b_star": 0.15706492469581043}

# The reference runs that produced the committed figure CSVs.
FIG2_REF = dict(seed=7, trials=100_000, start=0.0, stop=1.0, steps=50, overlays=[2.0, 3.0, 4.0])
FIG3_REF = dict(seed=0, start=0.0, stop=100.0, steps=26, overlays=[7.0, 8.0, 9.0])
FIG4_REF = dict(seed=0, start=0.0, stop=100.0, steps=26, overlays=[2.0, 3.0, 4.0])
FIG5_REF = dict(seed=7, start=0.01, stop=0.02, steps=20, overlays=[5.0, 10.0, 15.0], pu_steps=60)

# Timed tasks are kept short (tens of milliseconds), so that a run takes many
# samples of each and the calibration loops run just before and after a task
# see the host at the speed the task saw.
BATCH_SIZE = 12         # seeded scenarios perturbed around fig5
BATCH_GRID = 10         # 10x10 power grid per batch scenario
FIG5_GRID = 12          # timed fig5 optimize grid (the 50x50 reference runs once)
FIG5_TIMED = dict(start=0.01, stop=0.02, steps=5, pu_steps=12)   # per p_j overlay
HIRES_STEPS = 2000      # altitude steps over 0-100 m of the high-resolution rate sweeps
HIRES_PARTS = 4         # ... run as this many sweeps over consecutive 25 m bands


@dataclass
class Task:
    name: str
    argv: list[str]
    kind: str                      # the throughput metric its work counts toward
    work: int                      # grid points, Monte Carlo draws or CSV rows
    check: Callable[[int, str, str | None], tuple[list[str], int]]
    out: Path | None = None        # the CSV the task writes, if any
    main: bool = True              # False for companion tasks
    ok_codes: tuple[int, ...] = (0,)
    timed: bool = True             # False: run and checked once per run, not timed


def _values(xs) -> str:
    return ",".join(repr(float(x)) for x in xs)


def _csv_check(row_check, ref_name: str | None):
    """Check the CSV rows, and compare them to a reference CSV when one is named."""
    def check(code, stdout, text):
        problems = row_check(checks.parse_csv(text)[1])
        if ref_name is None:
            return problems, 0
        ref_problems, ulps = checks.compare_to_reference(text, (REF / ref_name).read_text())
        return problems + ref_problems, ulps
    return check


def detect_task(name, scenario, out, seed, trials, start, stop, steps, overlays,
                ref=None, main=True) -> Task:
    argv = ["detect-sweep", "--scenario", str(scenario), "--out", str(out),
            "--seed", str(seed), "--trials", str(trials), "--start", repr(start),
            "--stop", repr(stop), "--steps", str(steps), "--overlay-values", _values(overlays)]
    rows = lambda rs: checks.check_detection_rows(rs, seed, overlays, start, stop, steps, trials)
    return Task(name, argv, MC, len(overlays) * steps * trials, _csv_check(rows, ref), out, main)


def rate_task(name, scenario, out, seed, start, stop, steps, overlays,
              ref=None, main=True) -> Task:
    argv = ["rate-sweep", "--scenario", str(scenario), "--out", str(out), "--seed", str(seed),
            "--start", repr(start), "--stop", repr(stop), "--steps", str(steps),
            "--overlay-values", _values(overlays)]
    rows = lambda rs: checks.check_rate_rows(rs, seed, overlays, start, stop, steps)
    return Task(name, argv, ROWS, len(overlays) * steps, _csv_check(rows, ref), out, main)


def covertness_task(name, scenario, out, seed, start, stop, steps, overlays, pu_steps,
                    ref=None, timed=True) -> Task:
    argv = ["covertness-sweep", "--scenario", str(scenario), "--out", str(out),
            "--seed", str(seed), "--start", repr(start), "--stop", repr(stop),
            "--steps", str(steps), "--overlay-values", _values(overlays),
            "--pu-steps", str(pu_steps)]
    rows = lambda rs: checks.check_covertness_rows(rs, seed, overlays, start, stop, steps)
    return Task(name, argv, GRID, len(overlays) * steps * pu_steps, _csv_check(rows, ref), out,
                timed=timed)


def optimize_task(name, scenario, out, seed, steps, argmax=None, main=True,
                  timed=True) -> Task:
    argv = ["optimize", "--scenario", str(scenario), "--out", str(out), "--seed", str(seed),
            "--pu-steps", str(steps), "--pj-steps", str(steps)]

    def check(code, stdout, text):
        rows = checks.parse_csv(text)[1]
        if len(rows) != 1:
            return [f"optimize wrote {len(rows)} rows, expected 1"], 0
        row, problems = rows[0], []
        # exit 3 (infeasible) is an expected outcome, but only with feasible=false
        if (code == 3) != (row["feasible"] == "false"):
            problems.append(f"exit code {code} with feasible={row['feasible']}")
        checks.check_argmax_row(problems, "optimize", row)
        if int(row["seed"]) != seed or row["scenario_hash"] != checks.scenario_hash(row):
            problems.append("optimize: seed or scenario_hash column wrong")
        ulps = 0
        if argmax:
            for col, want in argmax.items():
                got = float(row[col])
                if col in ("p_u_star", "p_j_star") and got != want:
                    problems.append(f"optimize argmax {col}={got!r}, reference {want!r}")
                ulps = max(ulps, checks.ulp_distance(got, want) or 0)
        return problems, ulps
    return Task(name, argv, GRID, steps * steps, check, out, main, ok_codes=(0, 3), timed=timed)


def validate_task(name, scenario, seed, trials, symbols, gamma_points=20, main=True) -> Task:
    argv = ["validate", "--scenario", str(scenario), "--seed", str(seed),
            "--trials", str(trials), "--symbols", str(symbols),
            "--gamma-points", str(gamma_points)]

    def check(code, stdout, text):
        return checks.check_validate_stdout(stdout), 0
    return Task(name, argv, MC, gamma_points * trials + symbols, check, main=main)


# -- seeded inputs ----------------------------------------------------------

PERTURBED = {"d_a2_m2": (0.8, 1.25), "d_b2_m2": (0.8, 1.25), "d_w2_m2": (0.8, 1.25),   # scale
             "p_max_w": (20.0, 40.0), "epsilon": (0.005, 0.02), "r_s_bpcu": (0.005, 0.05)}


def _perturbed_fig5(rng: random.Random, n: int) -> list[dict]:
    """n copies of fig5 with distances scaled by 0.8-1.25 and p_max, epsilon, r_s redrawn.

    Each parameter is drawn once from each of n equal strata of its range, in
    a shuffled order (a Latin hypercube), so that the batch's total solver
    work varies less from seed to seed than with independent draws: for 12
    scenarios on 10x10 grids over 16 seeds, the quartile spread of its
    constraint evaluations is 1.1% (3.0% with independent draws).  Over 120
    draws (seeds 200-209) these ranges left 6-62% of a 10x10 grid infeasible
    per scenario (28% overall), against 26% on fig5 50x50.
    """
    base = json.loads((REF / "fig5.json").read_text())
    draws = {}
    for key, (lo, hi) in PERTURBED.items():
        strata = rng.sample(range(n), n)
        draws[key] = [lo + (hi - lo) * (k + rng.random()) / n for k in strata]
    batch = []
    for i in range(n):
        raw = dict(base)
        for key in ("d_a2_m2", "d_b2_m2", "d_w2_m2"):
            raw[key] = round(base[key] * draws[key][i], 1)
        raw["p_max_w"] = round(draws["p_max_w"][i], 1)
        raw["epsilon"] = round(draws["epsilon"][i], 4)
        raw["r_s_bpcu"] = round(draws["r_s_bpcu"][i], 4)
        batch.append(raw)
    return batch


def _overlays(rng: random.Random, lo: float, hi: float, step: float, k: int = 3) -> list[float]:
    n = int(round((hi - lo) / step))
    return sorted(lo + step * i for i in rng.sample(range(n + 1), k))


def _companions(work: Path, seed: int, rng: random.Random, kinds: set) -> list[Task]:
    """Small fixed runs of the missing kinds; the runner repeats them every pass."""
    tasks = []
    if GRID in kinds:
        tasks.append(optimize_task("companion-optimize", REF / "fig5.json",
                                   work / "companion_opt.csv", seed, 8, main=False))
    if MC in kinds:
        tasks.append(detect_task("companion-detect", REF / "fig2.json", work / "companion_det.csv",
                                 seed, 100_000, 0.0, 1.0, 5, _overlays(rng, 1.0, 6.0, 0.5, 1),
                                 main=False))
        tasks.append(validate_task("companion-validate", REF / "fig4.json", seed,
                                   20_000, 200_000, gamma_points=5, main=False))
    if ROWS in kinds:
        tasks.append(rate_task("companion-fig3-ref", REF / "fig3.json", work / "companion_fig3.csv",
                               ref="fig3_secrecy_rate.csv", main=False, **FIG3_REF))
        tasks.append(rate_task("companion-fig4-ref", REF / "fig4.json", work / "companion_fig4.csv",
                               ref="fig4_covert_rate.csv", main=False, **FIG4_REF))
        tasks.append(rate_task("companion-fig4-rows", REF / "fig4.json", work / "companion_rows.csv",
                               seed, 0.0, 100.0, 200, _overlays(rng, 1.0, 5.0, 0.25, 2),
                               main=False))
    return tasks


def build(workload: str, seed: int, work: Path) -> list[Task]:
    """The tasks of one workload pass; the same seed gives the same tasks."""
    rng = random.Random(seed)
    cli_seed = seed % 2**32
    if workload == "design-sweep":
        tasks = [
            optimize_task("fig5-optimize-50x50", REF / "fig5.json", work / "opt_fig5_ref.csv",
                          0, 50, argmax=FIG5_ARGMAX, timed=False),
            covertness_task("fig5-covertness-ref", REF / "fig5.json", work / "cov_fig5_ref.csv",
                            ref="fig5_optimized_rate.csv", timed=False, **FIG5_REF),
            optimize_task(f"fig5-optimize-{FIG5_GRID}x{FIG5_GRID}", REF / "fig5.json",
                          work / "opt_fig5.csv", cli_seed, FIG5_GRID),
        ]
        tasks += [covertness_task(f"fig5-covertness-pj{p_j:g}", REF / "fig5.json",
                                  work / f"cov_fig5_pj{p_j:g}.csv", cli_seed,
                                  overlays=[p_j], **FIG5_TIMED)
                  for p_j in FIG5_REF["overlays"]]
        for i, raw in enumerate(_perturbed_fig5(rng, BATCH_SIZE)):
            path = work / f"batch{i}.json"
            path.write_text(json.dumps(raw, indent=2))
            tasks.append(optimize_task(f"batch{i}-optimize", path, work / f"batch{i}.csv",
                                       cli_seed, BATCH_GRID))
        return tasks + _companions(work, cli_seed, rng, {MC, ROWS})
    if workload == "monte-carlo":
        tasks = [
            detect_task("fig2-detect-ref", REF / "fig2.json", work / "det_fig2.csv",
                        ref="fig2_detection.csv", **FIG2_REF),
            detect_task("fig2-detect-seeded", REF / "fig2.json", work / "det_seeded.csv",
                        cli_seed, 100_000, 0.0, 1.0, 50, _overlays(rng, 1.0, 6.0, 0.5)),
        ]
        tasks += [validate_task(f"{fig}-validate", REF / f"{fig}.json", cli_seed,
                                100_000, 1_000_000)
                  for fig in ("fig2", "fig3", "fig4", "fig5")]
        return tasks + _companions(work, cli_seed, rng, {GRID, ROWS})
    if workload == "figure-csv":
        tasks = [
            rate_task("fig3-rate-ref", REF / "fig3.json", work / "rate_fig3.csv",
                      ref="fig3_secrecy_rate.csv", **FIG3_REF),
            rate_task("fig4-rate-ref", REF / "fig4.json", work / "rate_fig4.csv",
                      ref="fig4_covert_rate.csv", **FIG4_REF),
        ]
        band, steps = 100.0 / HIRES_PARTS, HIRES_STEPS // HIRES_PARTS
        for fig, lo, hi in (("fig3", 6.0, 10.0), ("fig4", 1.0, 5.0)):
            overlays = _overlays(rng, lo, hi, 0.25)
            tasks += [rate_task(f"{fig}-rate-hires{k}", REF / f"{fig}.json",
                                work / f"rate_{fig}_hires{k}.csv", cli_seed,
                                band * k, band * (k + 1), steps, overlays)
                      for k in range(HIRES_PARTS)]
        return tasks + _companions(work, cli_seed, rng, {GRID, MC})
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("design-sweep", "monte-carlo", "figure-csv")
