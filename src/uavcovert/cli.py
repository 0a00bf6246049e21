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
from .optimizer import maximize_covert_rate
from .experiments import (
    SweepSpec, csv_block, run_covertness_sweep, run_detection_sweep,
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


def _add_sweep(sub, swept: str, unit: str, start: float, stop: float, steps: int,
               points: str, overlays: str, powers: str) -> None:
    """--start, --stop, --steps and --overlay-values of a sweep subcommand."""
    sub.add_argument("--start", type=float, default=start, help=f"{swept} sweep start{unit}")
    sub.add_argument("--stop", type=float, default=stop, help=f"{swept} sweep stop{unit}")
    sub.add_argument("--steps", type=int, default=steps, help=f"number of {points}")
    sub.add_argument("--overlay-values", default=overlays,
                     help=f"comma-separated {powers}, W")


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
    _add_sweep(p, "threshold", ", W", 0.0, 1.0, 50, "thresholds", "2,3,4",
               "forward powers p_u")

    p = subs.add_parser("rate-sweep", help="rate chain vs hover altitude")
    p.set_defaults(run=_cmd_rate_sweep)
    _add_common(p, "rate_sweep.csv")
    _add_sweep(p, "altitude", ", m", 0.0, 100.0, 26, "altitudes", "7,8,9",
               "forward powers p_u")

    p = subs.add_parser("covertness-sweep",
                        help="optimized covert rate vs covertness slack")
    p.set_defaults(run=_cmd_covertness_sweep)
    _add_common(p, "covertness_sweep.csv")
    _add_sweep(p, "epsilon", "", 0.01, 0.02, 20, "epsilon values", "5,10,15",
               "jamming powers p_j")
    p.add_argument("--pu-steps", type=int, default=60,
                   help="forward-power grid resolution for the optimizer")

    p = subs.add_parser("optimize", help="single covert-rate grid search")
    p.set_defaults(run=_cmd_optimize)
    _add_common(p, "optimize.csv")
    p.add_argument("--pu-steps", type=int, default=50,
                   help="forward-power grid resolution")
    p.add_argument("--pj-steps", type=int, default=50,
                   help="jamming-power grid resolution")

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


def _write_sweep(args, blocks: list[dict], note: str = "") -> int:
    """Write a sweep's CSV and report its rows: one per (overlay, point)."""
    write_csv(args.out, blocks)
    print(f"wrote {args.steps * len(blocks)} rows to {args.out}{note}")
    return EXIT_OK


def _cmd_detect_sweep(scenario: Scenario, args) -> int:
    return _write_sweep(args, run_detection_sweep(
        scenario, _sweep(args), n_trials=args.trials, seed=args.seed))


def _cmd_rate_sweep(scenario: Scenario, args) -> int:
    return _write_sweep(args, run_rate_sweep(scenario, _sweep(args), seed=args.seed))


def _cmd_covertness_sweep(scenario: Scenario, args) -> int:
    blocks = run_covertness_sweep(scenario, _sweep(args), args.pu_steps, seed=args.seed)
    n_infeasible = sum(not f for block in blocks for f in block["feasible"])
    return _write_sweep(args, blocks, f" ({n_infeasible} infeasible)")


def _cmd_optimize(scenario: Scenario, args) -> int:
    result = maximize_covert_rate(scenario, args.pu_steps, args.pj_steps)
    write_csv(args.out, [csv_block(
        scenario, args.seed, scenario.canonical_hash(),
        feasible=result.feasible, p_u_star=result.p_u_star,
        p_j_star=result.p_j_star, h_star=result.h_star,
        r_b_star=result.r_b_star, c_s_star=result.c_s_star,
        active_constraints=";".join(result.active_constraints))])
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
