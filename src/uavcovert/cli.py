"""Command-line experiment runner.

Subcommands map onto the standard experiment protocols: detect-sweep (error
probability vs threshold), rate-sweep (rates vs altitude), covertness-sweep
(optimized rate vs covertness slack), optimize (single grid search), and
validate (closed form vs Monte Carlo).  Exit codes: 0 success, 2 config
error, 3 infeasible, 4 numerical failure.

:func:`main` may be called repeatedly in one process.  It builds its
parser once, on the first call, not at import; every call parses into a
fresh namespace.
"""
from __future__ import annotations

import argparse
import functools
import sys

from .errors import ConfigError, NumericalError, _integer
from .model import Scenario
from .optimizer import GridSpec, maximize_covert_rate
from .experiments import (
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


def _add_common(sub, default_out: str | None) -> None:
    """--scenario, --out (when the subcommand writes a CSV) and --seed."""
    sub.add_argument("--scenario", required=True, help="scenario JSON file")
    if default_out is not None:
        sub.add_argument("--out", default=default_out, help="output CSV path")
    sub.add_argument("--seed", type=int, default=0, help="master seed (non-negative)")


@functools.cache  # parse_args never mutates the parser, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavcovert",
        description="Covert-rate analysis for an untrusted UAV relay link.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("detect-sweep",
                        help="detection error vs threshold, closed form and Monte Carlo")
    p.set_defaults(run=_cmd_detect_sweep)
    _add_common(p, "detect_sweep.csv")
    p.add_argument("--trials", type=int, default=100_000,
                   help="Monte Carlo trials per threshold")
    p.add_argument("--start", type=float, default=0.0, help="threshold sweep start, W")
    p.add_argument("--stop", type=float, default=1.0, help="threshold sweep stop, W")
    p.add_argument("--steps", type=int, default=50, help="number of thresholds")
    p.add_argument("--overlay-values", default="2,3,4",
                   help="comma-separated forward powers p_u, W")

    p = subs.add_parser("rate-sweep", help="rate chain vs hover altitude")
    p.set_defaults(run=_cmd_rate_sweep)
    _add_common(p, "rate_sweep.csv")
    p.add_argument("--start", type=float, default=0.0, help="altitude sweep start, m")
    p.add_argument("--stop", type=float, default=100.0, help="altitude sweep stop, m")
    p.add_argument("--steps", type=int, default=26, help="number of altitudes")
    p.add_argument("--overlay-values", default="7,8,9",
                   help="comma-separated forward powers p_u, W")

    p = subs.add_parser("covertness-sweep",
                        help="optimized covert rate vs covertness slack")
    p.set_defaults(run=_cmd_covertness_sweep)
    _add_common(p, "covertness_sweep.csv")
    p.add_argument("--start", type=float, default=0.01, help="epsilon sweep start")
    p.add_argument("--stop", type=float, default=0.02, help="epsilon sweep stop")
    p.add_argument("--steps", type=int, default=20, help="number of epsilon values")
    p.add_argument("--overlay-values", default="5,10,15",
                   help="comma-separated jamming powers p_j, W")
    p.add_argument("--pu-steps", type=int, default=60,
                   help="forward-power grid resolution for the optimizer")

    p = subs.add_parser("optimize", help="single covert-rate grid search")
    p.set_defaults(run=_cmd_optimize)
    _add_common(p, "optimize.csv")
    p.add_argument("--pu-steps", type=int, default=50,
                   help="forward-power grid resolution")
    p.add_argument("--pj-steps", type=int, default=50,
                   help="jamming-power grid resolution")
    p.add_argument("--pu-max", type=float, default=None,
                   help="forward-power grid stop (default: scenario p_max)")
    p.add_argument("--pj-max", type=float, default=None,
                   help="jamming-power grid stop (default: scenario p_max)")

    p = subs.add_parser("validate",
                        help="closed-form vs Monte Carlo validation suite")
    p.set_defaults(run=_cmd_validate)
    _add_common(p, None)
    p.add_argument("--trials", type=int, default=100_000,
                   help="Monte Carlo trials per detection threshold")
    p.add_argument("--symbols", type=int, default=1_000_000,
                   help="relay symbols in the destination-SNR Monte Carlo")
    p.add_argument("--gamma-points", type=int, default=20,
                   help="number of detection thresholds")

    return parser


def _sweep(args) -> SweepSpec:
    return SweepSpec(start=args.start, stop=args.stop, steps=args.steps,
                     overlay_values=_parse_values(args.overlay_values))


def _rows(sweep: SweepSpec) -> int:
    """Rows a sweep runner writes: one per (overlay, swept point)."""
    return sweep.steps * len(sweep.overlay_values)


def _cmd_detect_sweep(scenario: Scenario, args) -> int:
    sweep = _sweep(args)
    blocks = run_detection_sweep(scenario, sweep, n_trials=args.trials, seed=args.seed)
    write_csv(args.out, blocks)
    print(f"wrote {_rows(sweep)} rows to {args.out}")
    return EXIT_OK


def _cmd_rate_sweep(scenario: Scenario, args) -> int:
    sweep = _sweep(args)
    blocks = run_rate_sweep(scenario, sweep, seed=args.seed)
    write_csv(args.out, blocks)
    print(f"wrote {_rows(sweep)} rows to {args.out}")
    return EXIT_OK


def _cmd_covertness_sweep(scenario: Scenario, args) -> int:
    sweep = _sweep(args)
    p_u_values = GridSpec.linear(scenario.p_max, scenario.p_max,
                                 p_u_steps=args.pu_steps, p_j_steps=1).p_u_values
    blocks = run_covertness_sweep(scenario, sweep, p_u_values, seed=args.seed)
    write_csv(args.out, blocks)
    n_infeasible = sum(not f for block in blocks for f in block["feasible"])
    print(f"wrote {_rows(sweep)} rows to {args.out} ({n_infeasible} infeasible)")
    return EXIT_OK


def _cmd_optimize(scenario: Scenario, args) -> int:
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
        seed=args.seed, scenario_hash=scenario.canonical_hash(),
    )
    write_csv(args.out, [record])
    if not result.feasible:
        print("no feasible grid point", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(f"r_b_star={result.r_b_star!r} at p_u={result.p_u_star!r} "
          f"p_j={result.p_j_star!r} h={result.h_star!r} "
          f"(active: {', '.join(result.active_constraints) or 'none'})")
    return EXIT_OK


def _cmd_validate(scenario: Scenario, args) -> int:
    checks = run_validation(scenario, n_trials=args.trials, n_symbols=args.symbols,
                            seed=args.seed, gamma_points=args.gamma_points)
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    return EXIT_OK if all(passed for _, passed, _ in checks) else EXIT_NUMERICAL


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return int(exc.code or 0)
    try:
        scenario = Scenario.from_file(args.scenario)
        args.seed = _integer("seed", args.seed, 0)
        return args.run(scenario, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a size the machine cannot allocate
        print("config error: out of memory" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
