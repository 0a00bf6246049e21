"""Sweep runners and CSV emission.

Each runner covers one experiment protocol: a detection-threshold sweep
with closed-form and Monte Carlo error curves, an altitude sweep of the
rate chain, and a covertness sweep that re-optimizes the covert rate per
point.  Each runner's protocol fixes which field it sweeps and which it
overlays; a :class:`SweepSpec` holds only the range and the overlay
values.  Records are plain dicts in a fixed column order; floats render
with repr so the CSV round-trips exactly and is byte-deterministic for a
fixed (scenario, seed, trials) on one platform.  Each runner is one serial
loop over its sorted overlays with the swept points inside.  The detection
and rate sweeps take each overlay's closed forms in one array pass (Monte
Carlo stays per point), with capacities by ``math.log2`` on each element,
since ``np.log2`` can round the last bit differently and so change the CSV
bytes; array values reach the records as floats via ``.tolist()``.  The
CSV is rendered in blocks of rows, each block a column at a time with a
repeated cell object rendered once; the bytes are those of rendering each
cell on its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields
from itertools import repeat
from operator import is_

import numpy as np

from .errors import ConfigError, NumericalError
from .model import Scenario, _canonical_hashes
from .detection import error_curve, optimal_detection, simulate_detection
from .rates import capacity, rate_report, simulate_destination_snr, snrs_at
from .optimizer import GridSpec, maximize_covert_rate

_MONOTONE_SLACK = 1e-12  # float guard on provably monotone sequences


@dataclass(frozen=True)
class SweepSpec:
    """One swept field over [start, stop] plus an overlay family; each
    runner names the two fields it sweeps."""

    start: float
    stop: float
    steps: int
    overlay_values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError(
                f"sweep bounds must be finite, got [{self.start}, {self.stop}]")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.steps == 1:
            if self.start != self.stop:
                raise ConfigError("a 1-step sweep needs start == stop")
        elif not self.start < self.stop:
            raise ConfigError(f"need start < stop, got [{self.start}, {self.stop}]")
        if len(self.overlay_values) < 1:
            raise ConfigError("overlay_values must be nonempty")
        if len(set(self.overlay_values)) != len(self.overlay_values):
            raise ConfigError("overlay_values must be distinct")

    def points(self) -> np.ndarray:
        if self.steps == 1:
            return np.asarray([self.start], dtype=float)
        return np.linspace(self.start, self.stop, self.steps)


_SCENARIO_COLUMNS = tuple(f.name for f in dataclass_fields(Scenario))

DETECTION_COLUMNS = _SCENARIO_COLUMNS + (
    "gamma", "p_fa", "p_md", "zeta", "p_fa_mc", "p_md_mc", "zeta_mc",
    "gamma_star", "zeta_star", "n_trials", "seed", "scenario_hash",
)
RATE_COLUMNS = _SCENARIO_COLUMNS + (
    "gamma_u", "gamma_b", "c_u", "c_b", "c_s", "r_b", "seed", "scenario_hash",
)
COVERTNESS_COLUMNS = _SCENARIO_COLUMNS + (
    "feasible", "h_min", "h_max", "p_u_star", "p_j_star", "h_star",
    "r_b_star", "c_s_star", "seed", "scenario_hash",
)
OPTIMIZE_COLUMNS = _SCENARIO_COLUMNS + (
    "feasible", "p_u_star", "p_j_star", "h_star", "r_b_star", "c_s_star",
    "active_constraints", "seed", "scenario_hash",
)


def scenario_columns(scenario: Scenario) -> dict:
    """The shared leading CSV columns: the full scenario in linear units."""
    return {name: getattr(scenario, name) for name in _SCENARIO_COLUMNS}


def _render_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


_BLOCK_ROWS = 256  # rows per column pass: bounds the cells alive at once


def render_csv(records: list[dict], columns: tuple[str, ...]) -> str:
    """Header plus one comma-joined line per record, LF newlines.

    Renders blocks of up to ``_BLOCK_ROWS`` records a column at a time, so
    a CSV holds no more memory than a row-at-a-time loop's lines plus one
    block's cells.
    """
    lines = [",".join(columns)]
    for start in range(0, len(records), _BLOCK_ROWS):
        lines.extend(_render_block(records[start:start + _BLOCK_ROWS], columns))
    return "\n".join(lines) + "\n"


def _render_block(records: list[dict], columns: tuple[str, ...]):
    """The lines of a nonempty run of records, each distinct cell object
    rendered once.

    A column holding an earlier column's objects in the same order reuses
    that column's cells; a column holding one object in every row is one
    cell, repeated; a column of exact floats goes straight through
    ``float.__repr__``; a column of exact strs is its own cells; any other
    column renders each object it has not met before and looks up the
    rest.  Every cell is thus :func:`_render_cell` of its own object, and
    the text is what a row-at-a-time loop writes.  Objects are matched by
    identity, not value (``0.0 == -0.0``, ``True == 1 == 1.0``,
    ``nan != nan``).  ``starts`` holds every column's objects while the
    block renders, so no ``id`` that ``texts`` or ``starts`` keys on can be
    reused by a new object meanwhile.
    """
    texts = {}    # id(object) -> its cell
    starts = {}   # id(first object) -> [(objects, cells)] of earlier columns
    table = []
    for column in columns:
        values = [record[column] for record in records]
        first = values[0]
        for earlier, earlier_cells in starts.get(id(first), ()):
            if all(map(is_, values, earlier)):
                cells = earlier_cells
                break
        else:
            if all(map(is_, values, repeat(first))):
                if id(first) not in texts:
                    texts[id(first)] = _render_cell(first)
                cells = [texts[id(first)]] * len(values)
            elif all(type(value) is float for value in values):
                cells = list(map(float.__repr__, values))
            elif all(type(value) is str for value in values):
                cells = values  # an exact str is its own cell
            else:
                for value in values:
                    if id(value) not in texts:
                        texts[id(value)] = _render_cell(value)
                cells = [texts[id(value)] for value in values]
            starts.setdefault(id(first), []).append((values, cells))
        table.append(cells)
    return map(",".join, zip(*table))


def write_csv(path, records: list[dict], columns: tuple[str, ...]) -> None:
    """Render and encode first, then write, so a render that raises leaves
    ``path`` as it was."""
    data = render_csv(records, columns).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)


def run_detection_sweep(scenario: Scenario, sweep: SweepSpec, n_trials: int,
                        seed: int) -> list[dict]:
    """Closed-form and Monte Carlo error curves over a threshold grid.

    ``sweep`` runs over the threshold ``gamma``; its overlay values are
    forward powers ``p_u``.  One record per (overlay p_u, gamma), sorted by
    (overlay, gamma), with each overlay's closed-form columns from one
    :func:`error_curve` call.  The Monte Carlo stream of each point derives
    from (seed, overlay index, point index), so a point's draws do not
    depend on the other points.
    """
    gammas = sweep.points()
    records = []
    for oi, p_u in enumerate(sorted(sweep.overlay_values)):
        sc = scenario.replace(p_u=p_u)
        optimum = optimal_detection(sc)
        scenario_hash = sc.canonical_hash()
        p_fa, p_md, zeta = (column.tolist() for column in error_curve(sc, gammas))
        for gi, gamma in enumerate(gammas.tolist()):
            point_seed = np.random.SeedSequence(entropy=[int(seed), oi, gi])
            mc = simulate_detection(sc, gamma, n_trials, seed=point_seed)
            record = scenario_columns(sc)
            record.update(
                gamma=gamma, p_fa=p_fa[gi], p_md=p_md[gi], zeta=zeta[gi],
                p_fa_mc=mc.p_fa, p_md_mc=mc.p_md, zeta_mc=mc.zeta,
                gamma_star=optimum.gamma_star, zeta_star=optimum.zeta_star,
                n_trials=int(n_trials), seed=int(seed), scenario_hash=scenario_hash,
            )
            records.append(record)
    return records


def run_rate_sweep(scenario: Scenario, sweep: SweepSpec, seed: int = 0) -> list[dict]:
    """Rate chain over an altitude grid with forward-power overlays.

    ``sweep`` runs over the altitude ``h``, from ``h >= 0``; its overlay
    values are forward powers ``p_u``.  Each overlay is one array pass.
    Its scenario is built and validated once, at the first altitude; the
    other altitudes need no revalidation, since :class:`SweepSpec` keeps
    every point finite and the start check keeps them >= 0.
    :func:`rates.snrs_at` gives both SNRs over the whole altitude array,
    with the float operations of the scalar :func:`rates.rate_report`.  Capacities take ``math.log2`` on each
    element, as ``rate_report`` does, not ``np.log2``, which can differ in
    the last bit.  Each row's ``scenario_hash`` splices its altitude into
    one per-overlay template.

    The destination capacity is provably decreasing in altitude; the runner
    asserts that on each overlay as a numerical self-check.
    """
    if sweep.start < 0.0:
        raise ConfigError("altitude sweep must start at h >= 0")
    hs = sweep.points()
    h_values = hs.tolist()
    seed = int(seed)
    records = []
    for p_u in sorted(sweep.overlay_values):
        sc = scenario.replace(p_u=p_u, h=h_values[0])
        with np.errstate(over="ignore"):  # h*h overflows to inf, as for floats
            gamma_u, gamma_b = snrs_at(sc, sc.p_u, sc.p_j, hs)
        base = scenario_columns(sc)
        c_b = []
        for h, g_u, g_b, digest in zip(h_values, gamma_u.tolist(), gamma_b.tolist(),
                                       _canonical_hashes(sc, "h", h_values)):
            c_u, c_b_h = capacity(g_u), capacity(g_b)
            records.append(dict(
                base, h=h, gamma_u=g_u, gamma_b=g_b, c_u=c_u, c_b=c_b_h,
                c_s=c_b_h - c_u, r_b=c_b_h, seed=seed, scenario_hash=digest))
            c_b.append(c_b_h)
        if any(b > a + _MONOTONE_SLACK for a, b in zip(c_b, c_b[1:])):
            raise NumericalError(
                f"destination capacity not decreasing in h at p_u={p_u}")
    return records


def run_covertness_sweep(scenario: Scenario, sweep: SweepSpec,
                         p_u_values: tuple[float, ...], seed: int = 0) -> list[dict]:
    """Optimized covert rate over a covertness-slack grid.

    ``sweep`` runs over ``epsilon``, inside (0, 1); its overlay values are
    jamming powers ``p_j``.  For each (overlay p_j, epsilon) the forward
    power is re-optimized over ``p_u_values`` (ascending, distinct, > 0)
    with the altitude closed out analytically.  Infeasible points are
    recorded with feasible=false, never dropped.  Relaxing epsilon only
    enlarges the feasible set, so the runner asserts the optimized rate is
    nondecreasing along each overlay.  Each row's ``scenario_hash`` splices
    its epsilon into one per-overlay template.
    """
    if not (0.0 < sweep.start and sweep.stop < 1.0):
        raise ConfigError("epsilon sweep must stay inside (0, 1)")
    epsilons = sweep.points().tolist()
    records = []
    for p_j in sorted(sweep.overlay_values):
        point_grid = GridSpec(p_u_values=p_u_values, p_j_values=(p_j,))
        rates = []
        hashes = _canonical_hashes(scenario.replace(p_j=p_j), "epsilon", epsilons)
        for eps, scenario_hash in zip(epsilons, hashes):
            sc = scenario.replace(p_j=p_j, epsilon=eps)
            result = maximize_covert_rate(sc, point_grid)
            record = scenario_columns(sc)
            record.update(
                feasible=result.feasible, h_min=result.h_star, h_max=result.h_max,
                p_u_star=result.p_u_star, p_j_star=result.p_j_star,
                h_star=result.h_star, r_b_star=result.r_b_star,
                c_s_star=result.c_s_star,
                seed=int(seed), scenario_hash=scenario_hash,
            )
            records.append(record)
            if result.feasible:
                rates.append(result.r_b_star)
        if any(b < a - _MONOTONE_SLACK for a, b in zip(rates, rates[1:])):
            raise NumericalError(
                f"optimized covert rate not nondecreasing in epsilon at p_j={p_j}")
    return records


# -- closed-form vs Monte Carlo validation ---------------------------------

@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    detail: str


def mc_zeta_tolerance(zeta: float, n_trials: int, floor: float = 0.005) -> float:
    """Binomial three-sigma band around the closed-form zeta, floored."""
    return max(floor, 3.0 * math.sqrt(max(zeta * (1.0 - zeta), 0.0) / n_trials))


def run_validation(scenario: Scenario, n_trials: int = 100_000,
                   n_symbols: int = 1_000_000, seed: int = 0,
                   gamma_points: int = 20) -> list[ValidationCheck]:
    """Compare every closed form against its Monte Carlo counterpart.

    Checks the detection error curve point by point on a grid of
    ``gamma_points`` >= 1 thresholds around gamma_star, the unit forwarded
    power of the relay scaling, and the end-to-end destination SNR.  The
    two symbol-level bands are three standard errors, floored at 1%:
    |x_u|^2 is Exp(1), so its mean has relative error 1/sqrt(n_symbols);
    the SNR is a ratio of two independent exponential means, sqrt(2/n).
    """
    if gamma_points < 1:
        raise ConfigError(f"gamma_points must be >= 1, got {gamma_points}")
    checks = []

    opt = optimal_detection(scenario)
    gammas = np.linspace(0.0, 10.0 * opt.gamma_star, gamma_points)
    zeta = error_curve(scenario, gammas)[2].tolist()
    worst = 0.0
    ok = True
    for gi, (gamma, closed) in enumerate(zip(gammas.tolist(), zeta)):
        mc = simulate_detection(scenario, gamma, n_trials,
                                seed=np.random.SeedSequence(entropy=[int(seed), 0, gi]))
        gap = abs(mc.zeta - closed)
        tol = mc_zeta_tolerance(closed, n_trials)
        worst = max(worst, gap / tol)
        ok = ok and gap <= tol
    checks.append(ValidationCheck(
        name="detection_error_mc_vs_closed", passed=ok,
        detail=f"{gamma_points} thresholds, worst gap {worst:.3f}x tolerance"))

    est = simulate_destination_snr(scenario, n_symbols,
                                   seed=np.random.SeedSequence(entropy=[int(seed), 1]))
    power_gap = abs(est.forwarded_power - 1.0)
    checks.append(ValidationCheck(
        name="relay_forwarded_power_unit",
        passed=power_gap <= max(0.01, 3.0 / math.sqrt(n_symbols)),
        detail=f"mean |x_u|^2 = {est.forwarded_power:.6f}"))

    closed_snr = rate_report(scenario).gamma_b
    rel_gap = abs(est.snr - closed_snr) / closed_snr
    checks.append(ValidationCheck(
        name="destination_snr_mc_vs_closed",
        passed=rel_gap <= max(0.01, 3.0 * math.sqrt(2.0 / n_symbols)),
        detail=f"mc {est.snr:.6g} vs closed {closed_snr:.6g} ({rel_gap:.2%})"))

    return checks
