"""Output checks: reference comparison and seed-independent invariants.

Every check returns a list of problems (empty when the output is correct)
and the largest ULP distance it saw against a reference output (0 when the
task has no reference).  The closed forms here are written out from the
paper's formulas, independently of the package, so they act as an oracle.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import struct

SCENARIO_FIELDS = ("d_a2", "d_b2", "d_w2", "h", "beta", "p_a", "p_u", "p_j",
                   "p_max", "sigma_u2", "sigma_b2", "sigma_w2", "epsilon", "r_s")
STRING_COLUMNS = {"feasible", "active_constraints", "scenario_hash"}

CLOSED_FORM_REL = 1e-12   # closed forms are recomputed, so only rounding differs
CLOSED_FORM_ABS = 1e-15
BISECTION_SLACK = 1e-8    # the security ceiling is a bisection root


def parse_csv(text: str) -> tuple[list[str], list[dict]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    return header, [dict(zip(header, row)) for row in reader]


def _ordered(x: float) -> int:
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def ulp_distance(a: float, b: float) -> int | None:
    """Units in the last place between two doubles; None if only one is NaN."""
    if math.isnan(a) or math.isnan(b):
        return 0 if math.isnan(a) and math.isnan(b) else None
    return abs(_ordered(a) - _ordered(b))


def compare_to_reference(text: str, ref_text: str) -> tuple[list[str], int]:
    """Rows, columns and non-numeric cells must match; numeric cells add ULPs."""
    header, rows = parse_csv(text)
    ref_header, ref_rows = parse_csv(ref_text)
    if header != ref_header:
        return [f"columns differ from the reference: {header} vs {ref_header}"], 0
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"], 0
    problems, worst = [], 0
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col in header:
            if col in STRING_COLUMNS:
                if row[col] != ref[col]:
                    problems.append(f"row {i} {col}: {row[col]!r} vs reference {ref[col]!r}")
                continue
            ulps = ulp_distance(float(row[col]), float(ref[col]))
            if ulps is None:
                problems.append(f"row {i} {col}: {row[col]} vs reference {ref[col]}")
            else:
                worst = max(worst, ulps)
    return problems, worst


# -- independent closed forms ------------------------------------------------

def scenario_of(row: dict) -> dict:
    return {name: float(row[name]) for name in SCENARIO_FIELDS}


def scenario_hash(row: dict) -> str:
    """The CSV provenance hash: sha256 of the repr-rendered linear fields."""
    payload = json.dumps({name: row[name] for name in SCENARIO_FIELDS}, sort_keys=True)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def _gain(s: dict, d2: float, h: float) -> float:
    return s["beta"] / (d2 + h * h)


def rates_at(s: dict, h: float) -> dict:
    """SNRs and capacities of the AF chain at altitude h."""
    g_ua, g_ub = _gain(s, s["d_a2"], h), _gain(s, s["d_b2"], h)
    gamma_u = s["p_a"] * g_ua / (s["p_j"] * g_ub + s["sigma_u2"])
    gamma_b = (s["p_u"] * s["p_a"] * g_ub * g_ua
               / ((s["p_u"] * s["sigma_u2"] + s["p_j"] * s["sigma_b2"]) * g_ub
                  + s["p_a"] * g_ua * s["sigma_b2"] + s["sigma_b2"] * s["sigma_u2"]))
    c_u, c_b = math.log2(1.0 + gamma_u), math.log2(1.0 + gamma_b)
    return {"gamma_u": gamma_u, "gamma_b": gamma_b, "c_u": c_u, "c_b": c_b,
            "c_s": c_b - c_u, "r_b": c_b}


def covert_floor(s: dict) -> float:
    """Minimum altitude with zeta_star(h) >= 1 - epsilon."""
    radicand = -s["p_u"] * s["beta"] / (s["p_j"] * math.log1p(-s["epsilon"])) - s["d_w2"]
    return math.sqrt(radicand) if radicand > 0.0 else 0.0


def detection_at(s: dict, gamma: float) -> dict:
    """Radiometer false-alarm, missed-detection and optimum at a threshold."""
    signal = s["p_u"] * s["beta"] / (s["d_w2"] + s["h"] * s["h"])
    floor = s["sigma_w2"] + signal
    p_fa = math.exp((s["sigma_w2"] - gamma) / s["p_j"]) if gamma >= s["sigma_w2"] else 1.0
    p_md = 1.0 - math.exp((floor - gamma) / s["p_j"]) if gamma >= floor else 0.0
    return {"p_fa": p_fa, "p_md": p_md, "zeta": p_fa + p_md,
            "gamma_star": floor, "zeta_star": math.exp(-signal / s["p_j"])}


def mc_zeta_band(zeta: float, n_trials: int) -> float:
    """The acceptance suite's band: max(0.005, three binomial sigmas)."""
    return max(0.005, 3.0 * math.sqrt(max(zeta * (1.0 - zeta), 0.0) / n_trials))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=CLOSED_FORM_REL, abs_tol=CLOSED_FORM_ABS)


def _expect_close(problems: list, where: str, got: float, want: float) -> None:
    if not _close(got, want):
        problems.append(f"{where}: {got!r}, closed form gives {want!r}")


def _common_row_checks(problems: list, i: int, row: dict, seed: int) -> None:
    if row["scenario_hash"] != scenario_hash(row):
        problems.append(f"row {i}: scenario_hash {row['scenario_hash']} does not match its fields")
    if int(row["seed"]) != seed:
        problems.append(f"row {i}: seed {row['seed']}, expected {seed}")


def _sweep_points(start: float, stop: float, steps: int) -> list[float]:
    if steps == 1:
        return [start]
    return [start + (stop - start) * k / (steps - 1) for k in range(steps)]


def _check_grid(problems: list, rows: list, col: str, overlay: str,
                overlays: list, start: float, stop: float, steps: int) -> None:
    """Rows are sorted by overlay, then by the swept value on the sweep grid."""
    if len(rows) != len(overlays) * steps:
        problems.append(f"{len(rows)} rows, expected {len(overlays) * steps}")
        return
    points = _sweep_points(start, stop, steps)
    for i, row in enumerate(rows):
        want_overlay, want_x = sorted(overlays)[i // steps], points[i % steps]
        if float(row[overlay]) != want_overlay:
            problems.append(f"row {i}: {overlay}={row[overlay]}, expected {want_overlay}")
        if not math.isclose(float(row[col]), want_x, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"row {i}: {col}={row[col]}, expected {want_x}")


def check_rate_rows(rows: list, seed: int, overlays: list, start: float,
                    stop: float, steps: int) -> list[str]:
    problems: list[str] = []
    _check_grid(problems, rows, "h", "p_u", overlays, start, stop, steps)
    for i, row in enumerate(rows):
        s = scenario_of(row)
        want = rates_at(s, s["h"])
        for col in ("gamma_u", "gamma_b", "c_u", "c_b", "c_s", "r_b"):
            _expect_close(problems, f"row {i} {col}", float(row[col]), want[col])
        _common_row_checks(problems, i, row, seed)
    return problems


def check_detection_rows(rows: list, seed: int, overlays: list, start: float,
                         stop: float, steps: int, n_trials: int) -> list[str]:
    problems: list[str] = []
    _check_grid(problems, rows, "gamma", "p_u", overlays, start, stop, steps)
    for i, row in enumerate(rows):
        s = scenario_of(row)
        gamma = float(row["gamma"])
        want = detection_at(s, gamma)
        for col in ("p_fa", "p_md", "zeta", "gamma_star", "zeta_star"):
            _expect_close(problems, f"row {i} {col}", float(row[col]), want[col])
        if int(row["n_trials"]) != n_trials:
            problems.append(f"row {i}: n_trials {row['n_trials']}, expected {n_trials}")
        p_fa_mc, p_md_mc = float(row["p_fa_mc"]), float(row["p_md_mc"])
        for p in (p_fa_mc, p_md_mc):
            if not (0.0 <= p <= 1.0 and abs(p * n_trials - round(p * n_trials)) < 1e-6):
                problems.append(f"row {i}: {p!r} is not a frequency over {n_trials} trials")
        zeta_mc = float(row["zeta_mc"])
        if not _close(zeta_mc, p_fa_mc + p_md_mc):
            problems.append(f"row {i}: zeta_mc {zeta_mc!r} != p_fa_mc + p_md_mc")
        gap, band = abs(zeta_mc - want["zeta"]), mc_zeta_band(want["zeta"], n_trials)
        if gap > band:
            problems.append(f"row {i}: |zeta_mc - zeta| = {gap:.3g} exceeds the band {band:.3g}")
        _common_row_checks(problems, i, row, seed)
    return problems


def check_argmax_row(problems: list, where: str, row: dict, p_j: float | None = None) -> None:
    """At a feasible argmax, h* is the covert floor and C_s(h*) >= r_s."""
    s = scenario_of(row)
    if row["feasible"] != "true":
        for col in ("p_u_star", "p_j_star", "h_star", "r_b_star", "c_s_star"):
            if not math.isnan(float(row[col])):
                problems.append(f"{where}: infeasible point has {col}={row[col]}")
        return
    p_u, p_jam, h = float(row["p_u_star"]), float(row["p_j_star"]), float(row["h_star"])
    if not (0.0 < p_u <= s["p_max"] and 0.0 < p_jam <= s["p_max"]):
        problems.append(f"{where}: argmax powers ({p_u}, {p_jam}) outside (0, p_max]")
    if p_j is not None and p_jam != p_j:
        problems.append(f"{where}: p_j_star {p_jam}, the sweep fixes p_j={p_j}")
    at = dict(s, p_u=p_u, p_j=p_jam)
    _expect_close(problems, f"{where} h_star", h, covert_floor(at))
    want = rates_at(at, h)
    _expect_close(problems, f"{where} r_b_star", float(row["r_b_star"]), want["r_b"])
    _expect_close(problems, f"{where} c_s_star", float(row["c_s_star"]), want["c_s"])
    if want["c_s"] < s["r_s"] - BISECTION_SLACK:
        problems.append(f"{where}: C_s(h*) = {want['c_s']!r} < r_s = {s['r_s']!r}")


def check_covertness_rows(rows: list, seed: int, overlays: list, start: float,
                          stop: float, steps: int) -> list[str]:
    problems: list[str] = []
    _check_grid(problems, rows, "epsilon", "p_j", overlays, start, stop, steps)
    for i, row in enumerate(rows):
        check_argmax_row(problems, f"row {i}", row, p_j=float(row["p_j"]))
        if row["feasible"] == "true":
            h, h_min, h_max = (float(row[c]) for c in ("h_star", "h_min", "h_max"))
            if h_min != h or h_max < h * (1.0 - 1e-9):
                problems.append(f"row {i}: h_star {h} outside [h_min, h_max] = [{h_min}, {h_max}]")
        _common_row_checks(problems, i, row, seed)
    return problems


def check_validate_stdout(stdout: str) -> list[str]:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if len(lines) != 3:
        return [f"validate printed {len(lines)} check lines, expected 3"]
    return [f"validate: {ln}" for ln in lines if not ln.startswith("PASS ")]
