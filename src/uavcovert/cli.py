"""Command-line experiment runner.

Subcommands map onto the standard experiment protocols: detect-sweep (error
probability vs threshold), rate-sweep (rates vs altitude), covertness-sweep
(optimized rate vs covertness slack), optimize (single grid search), and
validate (closed form vs Monte Carlo).  Exit codes: 0 success, 2 config
error, 3 infeasible, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, NumericalError
from .model import Scenario
from .optimizer import GridSpec, maximize_covert_rate
from .experiments import (
    COVERTNESS_COLUMNS, DETECTION_COLUMNS, OPTIMIZE_COLUMNS, RATE_COLUMNS,
    SweepSpec, scenario_columns, run_covertness_sweep, run_detection_sweep,
    run_rate_sweep, run_validation, write_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


def _parse_values(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse value list {text!r}") from exc


def _add_common(sub, default_out: str) -> None:
    sub.add_argument("--scenario", required=True, help="scenario JSON file")
    sub.add_argument("--out", default=default_out, help="output CSV path")
    sub.add_argument("--seed", type=int, default=0, help="master seed (non-negative)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavcovert",
        description="Covert-rate analysis for an untrusted UAV relay link.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("detect-sweep",
                        help="detection error vs threshold, closed form and Monte Carlo")
    _add_common(p, "detect_sweep.csv")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--start", type=float, default=0.0, help="threshold sweep start, W")
    p.add_argument("--stop", type=float, default=1.0, help="threshold sweep stop, W")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--overlay-values", default="2,3,4",
                   help="comma-separated forward powers p_u, W")

    p = subs.add_parser("rate-sweep", help="rate chain vs hover altitude")
    _add_common(p, "rate_sweep.csv")
    p.add_argument("--start", type=float, default=0.0, help="altitude sweep start, m")
    p.add_argument("--stop", type=float, default=100.0, help="altitude sweep stop, m")
    p.add_argument("--steps", type=int, default=26)
    p.add_argument("--overlay-values", default="7,8,9",
                   help="comma-separated forward powers p_u, W")

    p = subs.add_parser("covertness-sweep",
                        help="optimized covert rate vs covertness slack")
    _add_common(p, "covertness_sweep.csv")
    p.add_argument("--start", type=float, default=0.01, help="epsilon sweep start")
    p.add_argument("--stop", type=float, default=0.02, help="epsilon sweep stop")
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--overlay-values", default="5,10,15",
                   help="comma-separated jamming powers p_j, W")
    p.add_argument("--pu-steps", type=int, default=60,
                   help="forward-power grid resolution for the optimizer")

    p = subs.add_parser("optimize", help="single covert-rate grid search")
    _add_common(p, "optimize.csv")
    p.add_argument("--pu-steps", type=int, default=50)
    p.add_argument("--pj-steps", type=int, default=50)
    p.add_argument("--pu-max", type=float, default=None,
                   help="forward-power grid stop (default: scenario p_max)")
    p.add_argument("--pj-max", type=float, default=None,
                   help="jamming-power grid stop (default: scenario p_max)")

    p = subs.add_parser("validate",
                        help="closed-form vs Monte Carlo validation suite")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--symbols", type=int, default=1_000_000)
    p.add_argument("--gamma-points", type=int, default=20)

    return parser


def _check_seed(seed: int) -> int:
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return seed


def _cmd_detect_sweep(args) -> int:
    scenario = Scenario.from_file(args.scenario)
    sweep = SweepSpec(start=args.start, stop=args.stop, steps=args.steps,
                      overlay_values=_parse_values(args.overlay_values))
    records = run_detection_sweep(scenario, sweep, n_trials=args.trials,
                                  seed=_check_seed(args.seed))
    write_csv(args.out, records, DETECTION_COLUMNS)
    print(f"wrote {len(records)} rows to {args.out}")
    return EXIT_OK


def _cmd_rate_sweep(args) -> int:
    scenario = Scenario.from_file(args.scenario)
    sweep = SweepSpec(start=args.start, stop=args.stop, steps=args.steps,
                      overlay_values=_parse_values(args.overlay_values))
    records = run_rate_sweep(scenario, sweep, seed=_check_seed(args.seed))
    write_csv(args.out, records, RATE_COLUMNS)
    print(f"wrote {len(records)} rows to {args.out}")
    return EXIT_OK


def _cmd_covertness_sweep(args) -> int:
    scenario = Scenario.from_file(args.scenario)
    sweep = SweepSpec(start=args.start, stop=args.stop, steps=args.steps,
                      overlay_values=_parse_values(args.overlay_values))
    p_u_values = GridSpec.linear(scenario.p_max, scenario.p_max,
                                 p_u_steps=args.pu_steps, p_j_steps=1).p_u_values
    records = run_covertness_sweep(scenario, sweep, p_u_values,
                                   seed=_check_seed(args.seed))
    write_csv(args.out, records, COVERTNESS_COLUMNS)
    n_infeasible = sum(1 for r in records if not r["feasible"])
    print(f"wrote {len(records)} rows to {args.out} ({n_infeasible} infeasible)")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    scenario = Scenario.from_file(args.scenario)
    seed = _check_seed(args.seed)
    grid = GridSpec.linear(
        p_u_stop=args.pu_max if args.pu_max is not None else scenario.p_max,
        p_j_stop=args.pj_max if args.pj_max is not None else scenario.p_max,
        p_u_steps=args.pu_steps, p_j_steps=args.pj_steps)
    result = maximize_covert_rate(scenario, grid)
    record = scenario_columns(scenario)
    record.update(
        feasible=result.feasible, p_u_star=result.p_u_star,
        p_j_star=result.p_j_star, h_star=result.h_star,
        r_b_star=result.r_b_star, c_s_star=result.c_s_star,
        active_constraints=";".join(result.active_constraints),
        seed=seed, scenario_hash=scenario.canonical_hash(),
    )
    write_csv(args.out, [record], OPTIMIZE_COLUMNS)
    if not result.feasible:
        print("no feasible grid point", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(f"r_b_star={result.r_b_star!r} at p_u={result.p_u_star!r} "
          f"p_j={result.p_j_star!r} h={result.h_star!r} "
          f"(active: {', '.join(result.active_constraints) or 'none'})")
    return EXIT_OK


def _cmd_validate(args) -> int:
    scenario = Scenario.from_file(args.scenario)
    checks = run_validation(scenario, n_trials=args.trials,
                            n_symbols=args.symbols,
                            seed=_check_seed(args.seed),
                            gamma_points=args.gamma_points)
    failed = [c for c in checks if not c.passed]
    for check in checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}")
    if failed:
        return EXIT_NUMERICAL
    return EXIT_OK


_COMMANDS = {
    "detect-sweep": _cmd_detect_sweep,
    "rate-sweep": _cmd_rate_sweep,
    "covertness-sweep": _cmd_covertness_sweep,
    "optimize": _cmd_optimize,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
