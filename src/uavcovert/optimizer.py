"""Covert-rate maximization over forward power, jamming power, and altitude.

The destination capacity is strictly decreasing in altitude, so for fixed
powers the best feasible altitude is the left end of the feasible interval,
the covert floor h_min; the powers themselves are searched exhaustively on
a grid.  Ties break toward the smallest forward power, then smallest
jamming power, then lowest altitude, which the ascending scan order yields
for free.

The grid is evaluated as arrays, in blocks of p_u rows: the covert floor,
the SNRs there and the feasibility verdict of
:func:`constraints.feasibility_grid` for every point at once.  Points that
verdict leaves uncertain (guard band, re-crossing scan) are solved one by
one with :func:`constraints.feasible_interval`, which still raises
NumericalError where the feasible set is not an interval.  The capacities
of feasible points use math.log2, as :func:`rates.capacity` does, never
np.log2: on an AVX-512 Xeon (numpy 2.4.6) the two differed by one ULP on
12,102 of 4e6 values of 1 + U(0, 1), enough to move the argmax and the CSV
bytes.  The scalar solver then runs once, at the argmax, for h_max and the
active-constraint flags.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .model import Scenario
from .constraints import feasibility_grid, feasible_interval
from .rates import capacity

_ACTIVE_TOL = 1e-9
# Grid points per array pass; bounds the (points x scan heights) temporaries.
_BLOCK_POINTS = 4096


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
        grid stays strictly positive (one step is the stop alone)."""
        if p_u_steps < 1 or p_j_steps < 1:
            raise ConfigError("step counts must be positive")

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


def maximize_covert_rate(scenario: Scenario, grid: GridSpec) -> OptimizationResult:
    """Exhaustive grid search over (p_u, p_j) with the altitude closed out.

    Grid points above the scenario power cap are skipped (they violate the
    cap constraint).  Deterministic: the ascending scan with strict
    improvement implements the tie-break order.
    """
    s = scenario
    p_u_values = [v for v in grid.p_u_values if v <= s.p_max]
    p_j_values = [v for v in grid.p_j_values if v <= s.p_max]
    p_j = np.array(p_j_values)[None, :]
    rows = max(1, _BLOCK_POINTS // max(1, len(p_j_values)))
    best = None  # (r_b, p_u, p_j, h, gamma_u)
    for start in range(0, len(p_u_values), rows):
        p_u_block = p_u_values[start:start + rows]
        verdict = feasibility_grid(s, np.array(p_u_block)[:, None], p_j)
        feasible = verdict.feasible.ravel()
        for flat in np.flatnonzero(~verdict.certain.ravel()).tolist():
            i, j = divmod(flat, len(p_j_values))
            feasible[flat] = not feasible_interval(
                s.replace(p_u=p_u_block[i], p_j=p_j_values[j])).empty
        points = np.flatnonzero(feasible)
        if points.size == 0:
            continue
        # math.log2, not np.log2: the two differ in the last bit on some
        # inputs, which would move the argmax and the CSV bytes
        r_b = [capacity(g) for g in verdict.gamma_b.ravel()[points].tolist()]
        k = max(range(len(r_b)), key=r_b.__getitem__)  # first of the ties
        if best is None or r_b[k] > best[0]:
            flat = int(points[k])
            i, j = divmod(flat, len(p_j_values))
            best = (r_b[k], p_u_block[i], p_j_values[j],
                    float(verdict.h_min.ravel()[flat]),
                    float(verdict.gamma_u.ravel()[flat]))

    if best is None:
        return OptimizationResult(
            p_u_star=math.nan, p_j_star=math.nan, h_star=math.nan,
            r_b_star=math.nan, c_s_star=math.nan, feasible=False,
            active_constraints=(), h_max=math.nan)

    r_b, p_u, p_j, h, gamma_u = best
    interval = feasible_interval(s.replace(p_u=p_u, p_j=p_j))
    if interval.empty or interval.h_min != h:
        raise NumericalError(
            f"grid verdict disagrees with feasible_interval at p_u={p_u!r}, "
            f"p_j={p_j!r}")
    h_max = interval.h_max
    active = []
    if h > 0.0:
        active.append("covert")  # altitude pinned by the covertness bound
    if math.isfinite(h_max) and h >= h_max - _ACTIVE_TOL * max(1.0, h_max):
        active.append("security")
    if p_u >= scenario.p_max - _ACTIVE_TOL * scenario.p_max:
        active.append("p_u_cap")
    if p_j >= scenario.p_max - _ACTIVE_TOL * scenario.p_max:
        active.append("p_j_cap")
    return OptimizationResult(
        p_u_star=p_u, p_j_star=p_j, h_star=h, r_b_star=r_b,
        c_s_star=r_b - capacity(gamma_u), feasible=True,
        active_constraints=tuple(active), h_max=h_max)
