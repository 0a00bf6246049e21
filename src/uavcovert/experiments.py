"""Sweep runners and CSV emission.

Each runner covers one experiment protocol: a detection-threshold sweep
with closed-form and Monte Carlo error curves, an altitude sweep of the
rate chain, and a covertness sweep that re-optimizes the covert rate per
point.  Each runner's protocol fixes which field it sweeps and which it
overlays; a :class:`SweepSpec` holds only the range and the overlay
values.  Each runner checks its seed, its counts and every overlay (one
plain ``Scenario.replace`` of its overlay field) before any work, takes
its overlays in ascending order, and returns one column block per
overlay: a dict that maps a column to a list of one value per swept
point, or to one value shared by the block's rows.  Every block, the
CLI's ``optimize`` record too, comes from :func:`csv_block`, the one row
layout, and its keys in insertion order are its CSV header.  The swept
points are one list object shared by every block.  The detection sweep
takes each overlay's closed forms in one list pass, then its Monte Carlo
per point, the odd points on the one more thread of ``rates._ahead`` and
the even ones on the calling thread, each on its own stream, so no value
depends on the scheduling; validation draws through it; the rate sweep
takes one array pass per sweep, over the whole (overlay x altitude) grid,
and its ``p_u``-free ``gamma_u``/``c_u`` lists are shared by every block,
as the swept points are.  Capacities come from :func:`rates.capacity`
and array values reach the blocks as floats via ``.tolist()``.
:func:`render_csv` takes the header from the first block's keys and
renders each distinct list once and each shared value once per block;
floats render with repr, so the CSV round-trips exactly and is
byte-deterministic for a fixed (scenario, seed, trials) on one platform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields
from itertools import product, repeat
from operator import sub

import numpy as np

from .errors import ConfigError, NumericalError, _integer, _real
from .model import Scenario, _canonical_hashes
from .detection import error_curve, optimal_detection, simulate_detection
from .rates import _ahead, capacity, simulate_destination_snr, snrs_at
from .optimizer import _axis, _maximize_over_epsilons

_MONOTONE_SLACK = 1e-12  # float guard on provably monotone sequences


@dataclass(frozen=True)
class SweepSpec:
    """One swept field over [start, stop] plus an overlay family; each
    runner names the two fields it sweeps.  The bounds and the span
    stop - start must be finite, so every point is.  The bounds are Python
    floats, the overlay values a tuple of them, ``steps`` a Python int."""

    start: float
    stop: float
    steps: int
    overlay_values: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("start", "stop"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        object.__setattr__(self, "overlay_values", tuple(
            _real("overlay_values", v) for v in self.overlay_values))
        if not math.isfinite(self.stop - self.start):  # inf or nan if a bound is
            raise ConfigError(f"sweep bounds must be finite, as must their span "
                              f"stop - start, got [{self.start}, {self.stop}]")
        object.__setattr__(self, "steps", _integer("steps", self.steps, 1))
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
        if self.steps == 1:  # linspace(-0.0, -0.0, 1) is [0.0], not [-0.0]
            return np.asarray([self.start], dtype=float)
        return np.linspace(self.start, self.stop, self.steps)


_SCENARIO_COLUMNS = tuple(f.name for f in dataclass_fields(Scenario))


def csv_block(scenario: Scenario, seed: int, scenario_hash, **columns) -> dict:
    """Every writer's CSV row layout: the full scenario in linear units (a
    column named after a field takes its place), then ``columns`` in order,
    then ``seed`` and ``scenario_hash``; values are stored as given."""
    return dict({name: getattr(scenario, name) for name in _SCENARIO_COLUMNS},
                **columns, seed=seed, scenario_hash=scenario_hash)


_SEPARATORS = ',"\r\n'  # no cell may hold one: it would split its row


def _render_cell(value, column: str) -> str:
    if type(value) is float:
        return float.__repr__(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):  # numpy's as the float it holds
        return float.__repr__(float(value))
    if isinstance(value, (int, np.integer, str)):
        cell = str(value)
        if not any(map(cell.__contains__, _SEPARATORS)):
            return cell
    raise ValueError(f"column {column!r} cannot hold a {type(value).__name__} cell: "
                     f"a cell is a float, bool, int or str without , \" CR LF")


def _render_list(values: list, column: str) -> list[str]:
    types = set(map(type, values))
    if types <= {float}:
        return list(map(float.__repr__, values))
    if types == {str} and not any(map("".join(values).__contains__, _SEPARATORS)):
        return values
    return [_render_cell(value, column) for value in values]


def render_csv(blocks: list[dict]) -> str:
    """The first block's keys as the header, then one comma-joined line per
    row, LF newlines.

    Every block has the header's keys in its order (a key missing, extra or
    reordered, or no block at all, is a ``ValueError``) and maps each to a
    ``list`` (exactly that type) of one value per row, or to one value
    shared by all its rows; a block with no list is one row, so a plain
    record is a block.  A block's lists must be equally long (``ValueError``
    otherwise).  A list is rendered once, however many columns or
    consecutive blocks hold it (matched by identity, which the renderer
    pins by holding the list), and its cells are dropped once a block no
    longer holds it; a shared value is rendered once per block.  Every cell
    is :func:`_render_cell` of its value, so the text is what rendering
    each row on its own writes.
    """
    columns = tuple(blocks[0]) if blocks else ()
    if not blocks or any(tuple(block) != columns for block in blocks):
        raise ValueError(f"need one or more blocks, each keyed by the header {columns}")
    lines = [",".join(columns)]
    rendered = {}  # id(list) -> (list, its cells), for the previous block's lists
    for block in blocks:
        lengths = {len(value) for value in block.values() if type(value) is list}
        if len(lengths) > 1:
            raise ValueError(f"a block's lists differ in length: {sorted(lengths)}")
        (rows,) = lengths or {1}
        held, table, shared = {}, [], []
        for column in columns:
            value = block[column]
            if type(value) is not list:
                shared.append(_render_cell(value, column))
                continue
            if shared:
                table.append(repeat(",".join(shared), rows))
                shared = []
            key = id(value)
            held[key] = held.get(key) or rendered.get(key) or (value, _render_list(value, column))
            table.append(held[key][1])
        if shared:
            table.append(repeat(",".join(shared), rows))
        lines.extend(map(",".join, zip(*table)))
        rendered = held
    del rendered, held, table  # the last block's cells, before the one join
    lines.append("")
    return "\n".join(lines)


def write_csv(path, blocks: list[dict]) -> None:
    """Render and encode first, then write, so a render that raises leaves
    ``path`` as it was."""
    data = render_csv(blocks).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)


def _overlays(scenario: Scenario, sweep: SweepSpec, field: str) -> list[Scenario]:
    """``scenario`` with ``field`` set to each overlay value in ascending
    order: every one built, and so validated, before the runner's work."""
    return [scenario.replace(**{field: value}) for value in sorted(sweep.overlay_values)]


def run_detection_sweep(scenario: Scenario, sweep: SweepSpec, n_trials: int,
                        seed: int) -> list[dict]:
    """Closed-form and Monte Carlo error curves over a threshold grid.

    ``sweep`` runs over the threshold ``gamma``; its overlay values are forward
    powers ``p_u``.  It checks its seed, its counts and every overlay before
    any work.  One block per overlay p_u, in ascending order, each with one row
    per gamma: the ``gamma`` list (one object shared by every block), the
    closed-form columns of one :func:`error_curve` call, and the per-point
    Monte Carlo columns, whose stream at each point derives from (seed, overlay
    index, point index), not from the other points.  Every overlay's closed
    forms come first, so their errors raise before any draw.  The (overlay,
    point) draws then run on two threads, the odd ones on that of
    :func:`rates._ahead`, each result in its own row, whatever the
    scheduling.  An error on the calling thread stops the other at its next
    point; the other's is raised once the calling thread reaches its point.
    """
    seed = _integer("seed", seed, 0)
    n_trials = _integer("n_trials", n_trials, 1)
    gamma_values = sweep.points().tolist()
    scenarios = _overlays(scenario, sweep, "p_u")
    closed = [(*optimal_detection(sc), *error_curve(sc, gamma_values)) for sc in scenarios]

    def simulate(job):
        oi, gi = job
        return simulate_detection(scenarios[oi], gamma_values[gi], n_trials,
                                  seed=np.random.SeedSequence(entropy=[seed, oi, gi]))
    points = len(gamma_values)
    jobs = list(product(range(len(scenarios)), range(points)))
    with _ahead(map(simulate, jobs[1::2]), len(jobs)) as odd:
        mc = [next(odd) if i % 2 else simulate(job) for i, job in enumerate(jobs)]
    blocks = []
    for oi, (sc, (gamma_star, zeta_star, p_fa, p_md, zeta)) in enumerate(zip(scenarios, closed)):
        p_fa_mc, p_md_mc, zeta_mc = map(list, zip(*mc[oi * points:(oi + 1) * points]))
        blocks.append(csv_block(
            sc, seed, sc.canonical_hash(),
            gamma=gamma_values, p_fa=p_fa, p_md=p_md, zeta=zeta,
            p_fa_mc=p_fa_mc, p_md_mc=p_md_mc, zeta_mc=zeta_mc,
            gamma_star=gamma_star, zeta_star=zeta_star, n_trials=n_trials))
    return blocks


def run_rate_sweep(scenario: Scenario, sweep: SweepSpec, seed: int = 0) -> list[dict]:
    """Rate chain over an altitude grid with forward-power overlays, in one
    array pass per sweep.

    ``sweep`` runs over the altitude ``h``, from ``h >= 0``; its overlay values
    are forward powers ``p_u``.  It checks its seed, its counts and every
    overlay's scenario before any work (a :class:`Scenario` checks its SNRs
    at h = 0, whatever its ``h``); :class:`SweepSpec` keeps every altitude
    finite and the start check keeps them >= 0.  One
    :func:`rates.snrs_at` call takes both SNRs over the whole (overlay x
    altitude) grid, with ``p_u`` a column.  The relay SNR does not involve
    ``p_u``, so it comes back as one altitude row: the ``h``, ``gamma_u``
    and ``c_u`` lists are one object each, shared by every block.  One
    block per overlay p_u, in ascending order, with its own ``gamma_b``,
    ``c_b`` (``r_b`` is that list itself) and ``c_s`` lists, and a
    ``scenario_hash`` list that splices each altitude's ``repr`` (taken
    once per sweep) into one per-overlay template.  Capacities come from
    :func:`rates.capacity`.

    The destination capacity is provably decreasing in altitude; the runner
    asserts that on each overlay as a numerical self-check.
    """
    seed = _integer("seed", seed, 0)
    if sweep.start < 0.0:
        raise ConfigError("altitude sweep must start at h >= 0")
    hs = sweep.points()
    h_values = hs.tolist()
    h_cells = list(map(float.__repr__, h_values))
    scenarios = _overlays(scenario, sweep, "p_u")
    with np.errstate(over="ignore"):  # h*h overflows to inf, as for floats
        gamma_u, gamma_b = snrs_at(scenario, np.array([[sc.p_u] for sc in scenarios]),
                                   scenario.p_j, hs)
    gamma_u_values = gamma_u.tolist()
    c_u = capacity(gamma_u)
    blocks = []
    for sc, row in zip(scenarios, gamma_b):
        c_b = capacity(row)
        if any(b > a + _MONOTONE_SLACK for a, b in zip(c_b, c_b[1:])):
            raise NumericalError(
                f"destination capacity not decreasing in h at p_u={sc.p_u}")
        blocks.append(csv_block(
            sc, seed, _canonical_hashes(sc, "h", h_cells),
            h=h_values, gamma_u=gamma_u_values, gamma_b=row.tolist(),
            c_u=c_u, c_b=c_b, c_s=list(map(sub, c_b, c_u)), r_b=c_b))
    return blocks


_RESULT_COLUMNS = ("feasible", "h_max", "p_u_star", "p_j_star", "h_star",
                   "r_b_star", "c_s_star")


def run_covertness_sweep(scenario: Scenario, sweep: SweepSpec, p_u_steps: int,
                         seed: int = 0) -> list[dict]:
    """Optimized covert rate over a covertness-slack grid.

    ``sweep`` runs over ``epsilon``, inside (0, 1); its overlay values are
    jamming powers ``p_j``.  It checks its seed, then builds its forward-power
    axis, ``p_u_steps`` values from p_max / p_u_steps up to p_max, as
    :func:`maximize_covert_rate` does (an overlay changes only ``p_j``), then
    checks its epsilons and every overlay's scenario, before any work.  For
    each (overlay p_j, epsilon) the forward power is re-optimized over that
    axis with the altitude closed out analytically, in one optimizer call
    per overlay over its whole (epsilon x p_u) grid.
    One block per overlay p_j, in ascending order: the ``epsilon`` list (one
    object shared by every block) and one list per result field, with
    ``h_min`` the ``h_star`` list itself.  Infeasible points are recorded
    with feasible=false, never dropped.  Relaxing epsilon only enlarges the
    feasible set, so the runner asserts the optimized rate is nondecreasing
    along each overlay.  The ``scenario_hash`` list splices each epsilon's
    ``repr`` (taken once per sweep) into one per-overlay template.
    """
    seed = _integer("seed", seed, 0)
    p_u_values = _axis("p_u_values", scenario.p_max, _integer("p_u_steps", p_u_steps, 1))
    if not (0.0 < sweep.start and sweep.stop < 1.0):
        raise ConfigError("epsilon sweep must stay inside (0, 1)")
    bases = _overlays(scenario, sweep, "p_j")
    epsilons = sweep.points().tolist()
    epsilon_cells = list(map(float.__repr__, epsilons))
    blocks = []
    for base in bases:
        results = _maximize_over_epsilons(base, p_u_values, (base.p_j,), epsilons)
        rates = [r.r_b_star for r in results if r.feasible]
        if any(b < a - _MONOTONE_SLACK for a, b in zip(rates, rates[1:])):
            raise NumericalError(
                f"optimized covert rate not nondecreasing in epsilon at p_j={base.p_j}")
        cells = {name: [getattr(r, name) for r in results] for name in _RESULT_COLUMNS}
        blocks.append(csv_block(
            base, seed, _canonical_hashes(base, "epsilon", epsilon_cells),
            epsilon=epsilons, feasible=cells.pop("feasible"), h_min=cells["h_star"], **cells))
    return blocks


# -- closed-form vs Monte Carlo validation ---------------------------------

# run_validation's family-wise false-failure rate: a correct program fails
# at most this share of its runs, whatever the sizes.
_ALPHA = 1e-4
_MC_ZETA_FLOOR = 0.005


def _band(z: float, variance: float, n: int, floor: float = 0.0) -> float:
    """``z`` standard errors of the mean of ``n`` draws of ``variance``,
    at least ``floor``: every band of :func:`run_validation`."""
    return max(floor, z * math.sqrt(variance / n))


def mc_zeta_tolerance(zeta: float, n_trials: int, z: float) -> float:
    """Band of ``z`` binomial standard errors around the closed-form zeta,
    floored at 0.005, which alone judges a zeta of 0 or 1."""
    return _band(z, max(zeta * (1.0 - zeta), 0.0), n_trials, _MC_ZETA_FLOOR)


def run_validation(scenario: Scenario, n_trials: int = 100_000,
                   n_symbols: int = 1_000_000, seed: int = 0,
                   gamma_points: int = 20) -> list[tuple[str, bool, str]]:
    """Compare every closed form against its Monte Carlo counterpart: one
    ``(name, passed, detail)`` triple per check, ``passed`` a ``bool``.

    The detection check is the one-overlay :func:`run_detection_sweep`, at
    the scenario's own ``p_u``, over ``gamma_points`` thresholds on
    [0, 10 * gamma_star]; one symbol draw checks the unit forwarded power
    of the relay scaling and the end-to-end destination SNR.  The
    k = gamma_points + 2 comparisons share one family-wise false-failure
    rate ``_ALPHA`` = 1e-4 (Bonferroni): each allows
    z = Phi^-1(1 - alpha / (2k)) standard errors, 4.34 at k = 7 and 4.59
    at k = 22.  |x_u|^2 is Exp(1), so its mean has relative error
    1/sqrt(n_symbols); the SNR is a ratio of two independent exponential
    means, sqrt(2/n); neither band has a floor.  Each zeta has a binomial
    band floored at 0.005 (:func:`mc_zeta_tolerance`).  Before any Monte
    Carlo, raises :class:`ConfigError` for a count that is not a positive
    integer or a seed that is not an int >= 0, and :class:`NumericalError`
    if the closed-form destination SNR is not positive (it underflows to 0
    at extreme powers), since the SNR gap is relative to it, or if the
    threshold grid's stop 10 * gamma_star overflows.
    """
    from statistics import NormalDist  # ~3 ms of imports, for validate alone

    seed = _integer("seed", seed, 0)
    gamma_points = _integer("gamma_points", gamma_points, 1)
    n_trials = _integer("n_trials", n_trials, 1)
    n_symbols = _integer("n_symbols", n_symbols, 1)
    closed_snr = snrs_at(scenario, scenario.p_u, scenario.p_j, scenario.h)[1]
    if not closed_snr > 0.0:
        raise NumericalError(
            f"closed-form destination SNR {closed_snr!r} is not positive")
    gamma_star, _ = optimal_detection(scenario)
    if not math.isfinite(10.0 * gamma_star):
        raise NumericalError(f"threshold grid stop 10 * {gamma_star!r} overflows")
    stop = 10.0 * gamma_star if gamma_points > 1 else 0.0  # a 1-step sweep is [0.0]
    z = NormalDist().inv_cdf(1.0 - _ALPHA / (2 * (gamma_points + 2)))
    (block,) = run_detection_sweep(
        scenario, SweepSpec(0.0, stop, gamma_points, (scenario.p_u,)), n_trials, seed)
    worst, ok = 0.0, True
    for closed, mc in zip(block["zeta"], block["zeta_mc"]):
        gap = abs(mc - closed)
        tol = mc_zeta_tolerance(closed, n_trials, z)
        worst = max(worst, gap / tol)
        ok = ok and gap <= tol

    snr, power = simulate_destination_snr(
        scenario, n_symbols, seed=np.random.SeedSequence(entropy=[seed, 1]))
    rel_gap = abs(snr - closed_snr) / closed_snr
    return [
        ("detection_error_mc_vs_closed", ok,
         f"{gamma_points} thresholds, worst gap {worst:.3f}x tolerance, "
         f"family-wise alpha {_ALPHA:g}"),
        ("relay_forwarded_power_unit", abs(power - 1.0) <= _band(z, 1.0, n_symbols),
         f"mean |x_u|^2 = {power:.6f}"),
        ("destination_snr_mc_vs_closed", rel_gap <= _band(z, 2.0, n_symbols),
         f"mc {snr:.6g} vs closed {closed_snr:.6g} ({rel_gap:.2%})"),
    ]
