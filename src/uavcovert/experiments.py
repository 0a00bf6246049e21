"""Sweep runners and CSV emission.

Each runner covers one experiment protocol: a detection-threshold sweep
with closed-form and Monte Carlo error curves, an altitude sweep of the
rate chain, and a covertness sweep that re-optimizes the covert rate per
point.  Each runner's protocol fixes which field it sweeps and which it
overlays; a :class:`SweepSpec` holds only the range and the overlay
values.  Each runner is one serial loop over its sorted overlays and
returns one column block per overlay: a dict in a fixed column order that
maps a column to a list of one value per swept point, or to one value
shared by the block's rows.  The swept points are one list object shared
by every block.  The detection and rate sweeps take each overlay's closed
forms in one array pass (Monte Carlo stays per point), with capacities by
``math.log2`` on each element, since ``np.log2`` can round the last bit
differently and so change the CSV bytes; array values reach the blocks as
floats via ``.tolist()``.  :func:`render_csv` renders each distinct list
once and each shared value once per block; floats render with repr, so
the CSV round-trips exactly and is byte-deterministic for a fixed
(scenario, seed, trials) on one platform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields
from itertools import repeat
from operator import sub

import numpy as np

from .errors import ConfigError, NumericalError
from .model import Scenario, _canonical_hashes
from .detection import error_curve, optimal_detection, simulate_detection
from .rates import simulate_destination_snr, snrs_at
from .optimizer import GridSpec, _maximize_over_epsilons

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


def _render_list(values: list) -> list[str]:
    if set(map(type, values)) <= {float}:
        return list(map(float.__repr__, values))
    return list(map(_render_cell, values))


def render_csv(blocks: list[dict], columns: tuple[str, ...]) -> str:
    """Header plus one comma-joined line per row, LF newlines.

    Each block maps every column to a ``list`` (exactly that type) of one
    value per row, or to one value shared by all its rows; a block with no
    list is one row, so a plain record is a block.  A block's lists must be
    equally long (``ValueError`` otherwise).  A list is rendered once,
    however many columns or consecutive blocks hold it (matched by
    identity, which the renderer pins by holding the list), and its cells
    are dropped once a block no longer holds it; a shared value is
    rendered once per block.  Every cell is :func:`_render_cell` of its
    value, so the text is what rendering each row on its own writes.
    """
    lines = [",".join(columns)]
    rendered = {}  # id(list) -> (list, its cells), for the previous block's lists
    for block in blocks:
        if list not in map(type, block.values()):
            lines.append(",".join([_render_cell(block[column]) for column in columns]))
            continue
        lengths = {len(value) for value in block.values() if type(value) is list}
        if len(lengths) > 1:
            raise ValueError(f"a block's lists differ in length: {sorted(lengths)}")
        (rows,) = lengths
        held, table, shared = {}, [], []
        for column in columns:
            value = block[column]
            if type(value) is not list:
                shared.append(_render_cell(value))
                continue
            if shared:
                table.append(repeat(",".join(shared), rows))
                shared = []
            key = id(value)
            entry = held.get(key) or rendered.get(key) or (value, _render_list(value))
            held[key] = entry
            table.append(entry[1])
        if shared:
            table.append(repeat(",".join(shared), rows))
        lines.extend(map(",".join, zip(*table)))
        rendered = held
    return "\n".join(lines) + "\n"


def write_csv(path, blocks: list[dict], columns: tuple[str, ...]) -> None:
    """Render and encode first, then write, so a render that raises leaves
    ``path`` as it was."""
    data = render_csv(blocks, columns).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)


def run_detection_sweep(scenario: Scenario, sweep: SweepSpec, n_trials: int,
                        seed: int) -> list[dict]:
    """Closed-form and Monte Carlo error curves over a threshold grid.

    ``sweep`` runs over the threshold ``gamma``; its overlay values are
    forward powers ``p_u``.  One block per overlay p_u, in ascending order,
    each with one row per gamma: the ``gamma`` list (one object shared by
    every block), the closed-form columns of one :func:`error_curve` call,
    and the per-point Monte Carlo columns.  The Monte Carlo stream of each
    point derives from (seed, overlay index, point index), so a point's
    draws do not depend on the other points.
    """
    gammas = sweep.points()
    gamma_values = gammas.tolist()
    blocks = []
    for oi, p_u in enumerate(sorted(sweep.overlay_values)):
        sc = scenario.replace(p_u=p_u)
        optimum = optimal_detection(sc)
        p_fa, p_md, zeta = (column.tolist() for column in error_curve(sc, gammas))
        points = [simulate_detection(
                      sc, gamma, n_trials,
                      seed=np.random.SeedSequence(entropy=[int(seed), oi, gi]))
                  for gi, gamma in enumerate(gamma_values)]
        block = scenario_columns(sc)
        block.update(
            gamma=gamma_values, p_fa=p_fa, p_md=p_md, zeta=zeta,
            p_fa_mc=[mc.p_fa for mc in points], p_md_mc=[mc.p_md for mc in points],
            zeta_mc=[mc.zeta for mc in points],
            gamma_star=optimum.gamma_star, zeta_star=optimum.zeta_star,
            n_trials=int(n_trials), seed=int(seed), scenario_hash=sc.canonical_hash(),
        )
        blocks.append(block)
    return blocks


def run_rate_sweep(scenario: Scenario, sweep: SweepSpec, seed: int = 0) -> list[dict]:
    """Rate chain over an altitude grid with forward-power overlays.

    ``sweep`` runs over the altitude ``h``, from ``h >= 0``; its overlay
    values are forward powers ``p_u``.  One block per overlay p_u, in
    ascending order, each one array pass: the ``h`` list (one object shared
    by every block), the SNR and capacity lists, with ``r_b`` the ``c_b``
    list itself, and a ``scenario_hash`` list that splices each altitude's
    ``repr`` (taken once per sweep) into one per-overlay template.  Each
    overlay's scenario is built and validated once, at the first altitude;
    the other altitudes need no revalidation, since :class:`SweepSpec`
    keeps every point finite and the start check keeps them >= 0.
    :func:`rates.snrs_at` gives both SNRs over the whole altitude array.
    Capacities take ``math.log2`` on each element, not ``np.log2``, which
    can differ in the last bit.

    The destination capacity is provably decreasing in altitude; the runner
    asserts that on each overlay as a numerical self-check.
    """
    if sweep.start < 0.0:
        raise ConfigError("altitude sweep must start at h >= 0")
    hs = sweep.points()
    h_values = hs.tolist()
    h_cells = list(map(float.__repr__, h_values))
    blocks = []
    for p_u in sorted(sweep.overlay_values):
        sc = scenario.replace(p_u=p_u, h=h_values[0])
        with np.errstate(over="ignore"):  # h*h overflows to inf, as for floats
            gamma_u, gamma_b = snrs_at(sc, sc.p_u, sc.p_j, hs)
        c_u = list(map(math.log2, (1.0 + gamma_u).tolist()))
        c_b = list(map(math.log2, (1.0 + gamma_b).tolist()))
        if any(b > a + _MONOTONE_SLACK for a, b in zip(c_b, c_b[1:])):
            raise NumericalError(
                f"destination capacity not decreasing in h at p_u={p_u}")
        block = scenario_columns(sc)
        block.update(
            h=h_values, gamma_u=gamma_u.tolist(), gamma_b=gamma_b.tolist(),
            c_u=c_u, c_b=c_b, c_s=list(map(sub, c_b, c_u)), r_b=c_b,
            seed=int(seed), scenario_hash=_canonical_hashes(sc, "h", h_cells))
        blocks.append(block)
    return blocks


_RESULT_COLUMNS = ("feasible", "h_max", "p_u_star", "p_j_star", "h_star",
                   "r_b_star", "c_s_star")


def run_covertness_sweep(scenario: Scenario, sweep: SweepSpec,
                         p_u_values: tuple[float, ...], seed: int = 0) -> list[dict]:
    """Optimized covert rate over a covertness-slack grid.

    ``sweep`` runs over ``epsilon``, inside (0, 1); its overlay values are
    jamming powers ``p_j``.  For each (overlay p_j, epsilon) the forward
    power is re-optimized over ``p_u_values`` (ascending, distinct, > 0)
    with the altitude closed out analytically, in one optimizer call per
    overlay over its whole (epsilon x p_u) grid, on the overlay's scenario
    validated once.  One block per overlay p_j, in ascending order: the
    ``epsilon`` list (one object shared by every block) and one list per
    result field, with ``h_min`` the ``h_star`` list itself.  Infeasible
    points are recorded with feasible=false, never dropped.  Relaxing
    epsilon only enlarges the feasible set, so the runner asserts the
    optimized rate is nondecreasing along each overlay.  The
    ``scenario_hash`` list splices each epsilon's ``repr`` (taken once per
    sweep) into one per-overlay template.
    """
    if not (0.0 < sweep.start and sweep.stop < 1.0):
        raise ConfigError("epsilon sweep must stay inside (0, 1)")
    epsilons = sweep.points().tolist()
    epsilon_cells = list(map(float.__repr__, epsilons))
    blocks = []
    for p_j in sorted(sweep.overlay_values):
        grid = GridSpec(p_u_values=p_u_values, p_j_values=(p_j,))
        base = scenario.replace(p_j=p_j)
        results = _maximize_over_epsilons(base, grid, epsilons)
        rates = [r.r_b_star for r in results if r.feasible]
        if any(b < a - _MONOTONE_SLACK for a, b in zip(rates, rates[1:])):
            raise NumericalError(
                f"optimized covert rate not nondecreasing in epsilon at p_j={p_j}")
        block = scenario_columns(base)
        block.update({name: [getattr(r, name) for r in results]
                      for name in _RESULT_COLUMNS})
        block.update(epsilon=epsilons, h_min=block["h_star"], seed=int(seed),
                     scenario_hash=_canonical_hashes(base, "epsilon", epsilon_cells))
        blocks.append(block)
    return blocks


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
    Raises :class:`NumericalError`, before any Monte Carlo, if the
    closed-form destination SNR is not positive (it underflows to 0 at
    extreme powers), since the SNR gap is relative to it.
    """
    if gamma_points < 1:
        raise ConfigError(f"gamma_points must be >= 1, got {gamma_points}")
    closed_snr = snrs_at(scenario, scenario.p_u, scenario.p_j, scenario.h)[1]
    if not closed_snr > 0.0:
        raise NumericalError(
            f"closed-form destination SNR {closed_snr!r} is not positive")
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

    rel_gap = abs(est.snr - closed_snr) / closed_snr
    checks.append(ValidationCheck(
        name="destination_snr_mc_vs_closed",
        passed=rel_gap <= max(0.01, 3.0 * math.sqrt(2.0 / n_symbols)),
        detail=f"mc {est.snr:.6g} vs closed {closed_snr:.6g} ({rel_gap:.2%})"))

    return checks
