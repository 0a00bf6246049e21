"""Covert-rate maximization over forward power, jamming power, and altitude.

The destination capacity is strictly decreasing in altitude, so for fixed
powers the best feasible altitude is the left end of the feasible interval,
the covert floor h_min; the powers themselves are searched exhaustively on
a grid.  Ties break toward the smallest forward power, then smallest
jamming power, then lowest altitude, which the ascending scan order yields
for free.

The grid is evaluated as arrays, in blocks of p_u rows, for one or more
covertness slacks epsilon at once: :func:`constraints.feasibility_grid`
gives the covert floor, the SNRs there and the feasibility verdict of
every (epsilon, p_u, p_j), from C_s - r_s on the ground and at the search
ceiling, computed once per point and shared by every epsilon, and at
h_min.  Points that verdict leaves uncertain (guard band) are solved one
by one with :func:`constraints.feasible_interval`.  The capacities of
feasible points use math.log2, as :func:`rates.capacity` does, never
np.log2: on an AVX-512 Xeon (numpy 2.4.6) the two differed by one ULP on
12,102 of 4e6 values of 1 + U(0, 1), enough to move the argmax and the CSV
bytes.  The security ceiling is solved once per distinct argmax (p_u, p_j),
since it does not depend on epsilon; it gives h_max and the
active-constraint flags.
:func:`maximize_covert_rate` is the one-epsilon case.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .model import Scenario
from .constraints import (
    feasibility_grid, feasible_interval, security_height_bound,
)
from .rates import capacity

_ACTIVE_TOL = 1e-9
# Grid points per array pass; bounds the (2 heights x points) temporaries.
_BLOCK_POINTS = 4096
# (epsilon, grid point) cells per array pass; bounds the epsilon-axis ones.
_BLOCK_CELLS = 16 * _BLOCK_POINTS


@dataclass(frozen=True)
class GridSpec:
    """Candidate forward / jamming power values, ascending and distinct."""

    p_u_values: tuple[float, ...]
    p_j_values: tuple[float, ...]

    def __post_init__(self) -> None:
        for name, values in (("p_u_values", self.p_u_values),
                             ("p_j_values", self.p_j_values)):
            if len(values) < 1:
                raise ConfigError(f"{name} must be nonempty")
            if any(not (math.isfinite(v) and v > 0.0) for v in values):
                raise ConfigError(f"{name} must be finite and > 0")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ConfigError(f"{name} must be strictly increasing")

    @classmethod
    def linear(cls, p_u_stop: float, p_j_stop: float, p_u_steps: int = 50,
               p_j_steps: int = 50) -> "GridSpec":
        """Evenly spaced grids from stop/steps up to the given stops, so the
        grid stays strictly positive (one step is the stop alone).  Each
        stop must be finite and > 0."""
        if p_u_steps < 1 or p_j_steps < 1:
            raise ConfigError("step counts must be positive")
        for name, stop in (("p_u_stop", p_u_stop), ("p_j_stop", p_j_stop)):
            if not (math.isfinite(stop) and stop > 0.0):
                raise ConfigError(f"{name} must be finite and > 0, got {stop!r}")

        def axis(stop, steps):
            return tuple(np.linspace(stop / steps, stop, steps).tolist())
        return cls(p_u_values=axis(p_u_stop, p_u_steps),
                   p_j_values=axis(p_j_stop, p_j_steps))


@dataclass(frozen=True)
class OptimizationResult:
    """Grid argmax of the covert rate, with the constraint state at it."""

    p_u_star: float
    p_j_star: float
    h_star: float
    r_b_star: float
    c_s_star: float
    feasible: bool
    active_constraints: tuple[str, ...]
    h_max: float  # security ceiling at the argmax (inf if none, NaN if infeasible)


_NO_FEASIBLE_POINT = OptimizationResult(
    p_u_star=math.nan, p_j_star=math.nan, h_star=math.nan, r_b_star=math.nan,
    c_s_star=math.nan, feasible=False, active_constraints=(), h_max=math.nan)


def maximize_covert_rate(scenario: Scenario, grid: GridSpec) -> OptimizationResult:
    """Exhaustive grid search over (p_u, p_j) with the altitude closed out.

    Grid points above the scenario power cap are skipped (they violate the
    cap constraint).  Deterministic: the ascending scan with strict
    improvement implements the tie-break order.
    """
    (result,) = _maximize_over_epsilons(scenario, grid, (scenario.epsilon,))
    return result


def _maximize_over_epsilons(scenario: Scenario, grid: GridSpec,
                            epsilons) -> list[OptimizationResult]:
    """:func:`maximize_covert_rate` of ``scenario.replace(epsilon=e)`` for
    each ``e`` in the sequence ``epsilons`` (each in (0, 1)).

    A pass shares the ground and ceiling values of a block of powers among
    up to ``_BLOCK_CELLS`` (epsilon, point) cells; each epsilon has its own
    uncertain points, solved in scan order, and its own argmax.
    """
    s = scenario
    p_u_values = [v for v in grid.p_u_values if v <= s.p_max]
    p_j_values = [v for v in grid.p_j_values if v <= s.p_max]
    rows = max(1, _BLOCK_POINTS // max(1, len(p_j_values)))
    best = [None] * len(epsilons)  # per epsilon: (r_b, p_u, p_j, h, gamma_u)
    for start in range(0, len(p_u_values), rows):
        p_u_block = p_u_values[start:start + rows]
        span = max(1, _BLOCK_CELLS // max(1, len(p_u_block) * len(p_j_values)))
        for e0 in range(0, len(epsilons), span):
            chunk = epsilons[e0:e0 + span]
            verdict = feasibility_grid(s, p_u_block, p_j_values, chunk)
            feasible = verdict.feasible.ravel()  # cell = epsilon * points + point
            points = feasible.size // len(chunk)
            for cell in np.flatnonzero(verdict.uncertain).tolist():
                e, flat = divmod(cell, points)
                i, j = divmod(flat, len(p_j_values))
                feasible[cell] = not feasible_interval(s.replace(
                    p_u=p_u_block[i], p_j=p_j_values[j], epsilon=chunk[e])).empty
            cells = np.flatnonzero(feasible)
            # math.log2, not np.log2: the two differ in the last bit on some
            # inputs, which would move the argmax and the CSV bytes
            r_b = list(map(capacity, verdict.gamma_b.ravel()[cells].tolist()))
            cells = cells.tolist()
            end = 0
            for e in range(len(chunk)):
                begin, end = end, bisect_left(cells, (e + 1) * points, end)
                if begin == end:
                    continue
                k = r_b.index(max(r_b[begin:end]), begin, end)  # first of the ties
                if best[e0 + e] is None or r_b[k] > best[e0 + e][0]:
                    i, j = divmod(cells[k] - e * points, len(p_j_values))
                    best[e0 + e] = (r_b[k], p_u_block[i], p_j_values[j],
                                    verdict.h_min.item(cells[k]),
                                    verdict.gamma_u.item(cells[k]))

    h_max_at = {}  # (p_u, p_j) -> security ceiling, shared by every epsilon
    results = []
    for point in best:
        if point is None:
            results.append(_NO_FEASIBLE_POINT)
            continue
        r_b, p_u, p_j, h, gamma_u = point
        if (p_u, p_j) not in h_max_at:
            h_max_at[p_u, p_j] = security_height_bound(s.replace(p_u=p_u, p_j=p_j))
        h_max = h_max_at[p_u, p_j]
        if h_max is None or h > h_max:
            raise NumericalError(
                f"grid verdict disagrees with feasible_interval at p_u={p_u!r}, "
                f"p_j={p_j!r}")
        active = []
        if h > 0.0:
            active.append("covert")  # altitude pinned by the covertness bound
        if math.isfinite(h_max) and h >= h_max - _ACTIVE_TOL * max(1.0, h_max):
            active.append("security")
        if p_u >= s.p_max - _ACTIVE_TOL * s.p_max:
            active.append("p_u_cap")
        if p_j >= s.p_max - _ACTIVE_TOL * s.p_max:
            active.append("p_j_cap")
        results.append(OptimizationResult(
            p_u_star=p_u, p_j_star=p_j, h_star=h, r_b_star=r_b,
            c_s_star=r_b - capacity(gamma_u), feasible=True,
            active_constraints=tuple(active), h_max=h_max))
    return results
