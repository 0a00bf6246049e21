#!/usr/bin/env python3
"""Regenerate the CSV data behind all four figure protocols into out/.

The CSVs under out/ are tracked golden references.  A regenerated CSV
replaces its tracked file only when the two differ beyond the golden rule:
columns, row count, flags, strings, seeds and scenario hashes exactly, other
numbers within MAX_ULP (libm builds may round log2 differently).  The script
prints which files it kept and which it rewrote.
"""
import csv
import io
import math
import pathlib
import struct
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from uavcovert.cli import main  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT = ROOT / "out"

MAX_ULP = 2
EXACT_COLUMNS = {"feasible", "p_u_star", "p_j_star", "n_trials", "seed",
                 "scenario_hash"}

RUNS = [
    ["detect-sweep", "--scenario", str(ROOT / "scenarios/fig2.json"),
     "--out", str(OUT / "fig2_detection.csv"),
     "--seed", "7", "--trials", "100000"],
    ["rate-sweep", "--scenario", str(ROOT / "scenarios/fig3.json"),
     "--out", str(OUT / "fig3_secrecy_rate.csv"),
     "--start", "0", "--stop", "100", "--steps", "26",
     "--overlay-values", "7,8,9"],
    ["rate-sweep", "--scenario", str(ROOT / "scenarios/fig4.json"),
     "--out", str(OUT / "fig4_covert_rate.csv"),
     "--start", "0", "--stop", "100", "--steps", "26",
     "--overlay-values", "2,3,4"],
    ["covertness-sweep", "--scenario", str(ROOT / "scenarios/fig5.json"),
     "--out", str(OUT / "fig5_optimized_rate.csv"),
     "--start", "0.01", "--stop", "0.02", "--steps", "20",
     "--overlay-values", "5,10,15", "--seed", "7"],
]


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


def _cell_matches(column: str, got: str, want: str) -> bool:
    if got == want:
        return True
    if column in EXACT_COLUMNS:
        return False
    try:
        return ulp_distance(float(got), float(want)) <= MAX_ULP
    except ValueError:
        return False


def golden_mismatches(text: str, ref_text: str) -> list[str]:
    """Every way the CSV ``text`` breaks the golden rule against ``ref_text``;
    empty when it matches."""
    header, *rows = csv.reader(io.StringIO(text))
    ref_header, *ref_rows = csv.reader(io.StringIO(ref_text))
    if header != ref_header:
        return [f"header {header} != {ref_header}"]
    problems = []
    if len(rows) != len(ref_rows):
        problems.append(f"{len(rows)} rows != {len(ref_rows)}")
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(ref):
            problems.append(f"row {i}: {len(row)} cells != {len(ref)}")
        problems.extend(f"row {i} {column}: {got} != {want}"
                        for column, got, want in zip(header, row, ref)
                        if not _cell_matches(column, got, want))
    return problems


def regenerate(argv: list[str], scratch: pathlib.Path) -> str:
    """Run one figure command into ``scratch``; rewrite its tracked CSV only
    when the fresh one breaks the golden rule.  Returns what was done."""
    argv = list(argv)
    target = pathlib.Path(argv[argv.index("--out") + 1])
    fresh = scratch / target.name
    argv[argv.index("--out") + 1] = str(fresh)
    code = main(argv)
    if code != 0:
        sys.exit(code)
    if target.exists():
        if fresh.read_bytes() == target.read_bytes():
            return "kept (identical)"
        if not golden_mismatches(fresh.read_text(), target.read_text()):
            return f"kept (within {MAX_ULP} ULP)"
    target.write_bytes(fresh.read_bytes())
    return "rewrote"


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for argv in RUNS:
            print("$ uavcovert " + " ".join(argv))
            outcome = regenerate(argv, pathlib.Path(scratch))
            print(f"{outcome}: out/{pathlib.Path(argv[argv.index('--out') + 1]).name}")
