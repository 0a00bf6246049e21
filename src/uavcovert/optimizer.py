"""Covert-rate maximization over forward power, jamming power, and altitude.

The destination capacity is strictly decreasing in altitude, so for fixed
powers the best feasible altitude is the left end of the feasible interval,
the covert floor h_min; the powers themselves are searched exhaustively on
the scenario's own power box: each axis runs evenly from p_max / steps up
to p_max.  That holds where the ground is secure: a point whose secure band
lies wholly above insecure ground is reported infeasible
(``test_feasibility_grid_finds_band_above_insecure_ground`` pins this as a
strict xfail).  Ties break toward the smallest forward power, then smallest
jamming power, then lowest altitude, which the ascending scan order yields
for free.

The grid is evaluated as arrays, in blocks of p_u rows, for one or more
covertness slacks epsilon at once: :func:`constraints.feasibility_grid`
gives the covert floor, the SNRs there and the feasibility verdict at
every (epsilon, p_u, p_j), its ground check shared by every epsilon.
One :func:`rates.capacity` call per (epsilon, block) takes the covert
rates of its feasible points.  The security ceiling h_max is solved once
per distinct argmax (p_u, p_j), from the grid's own powers with no rebuilt
Scenario, since it does not depend on epsilon; it gives the active flags.
:func:`maximize_covert_rate` is the one-epsilon case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, _integer, _positive
from .model import Scenario
from .constraints import feasibility_grid, security_height_bound
from .rates import capacity

_ACTIVE_TOL = 1e-9
# (epsilon, grid point) cells per array pass; bounds its temporaries.
_BLOCK_CELLS = 65536


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
    # security ceiling at the argmax (inf if none, NaN if infeasible): where
    # r_s > 0 a bisection midpoint, which may sit just below h_star, "security"
    # then active; where r_s = 0 the secure end of a bracket of adjacent floats
    h_max: float


_NO_FEASIBLE_POINT = OptimizationResult(
    p_u_star=math.nan, p_j_star=math.nan, h_star=math.nan, r_b_star=math.nan,
    c_s_star=math.nan, feasible=False, active_constraints=(), h_max=math.nan)


def _axis(name: str, p_max: float, steps: int) -> tuple[float, ...]:
    """``steps`` evenly spaced powers from p_max / steps up to p_max (one
    step is p_max alone), as Python floats; a ConfigError under ``name``
    where p_max / steps underflows, so that they are not all > 0 and
    strictly increasing."""
    values = tuple(_positive(name, v) for v in np.linspace(p_max / steps, p_max, steps).tolist())
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{name} must be strictly increasing")
    return values


def maximize_covert_rate(scenario: Scenario, p_u_steps: int,
                         p_j_steps: int) -> OptimizationResult:
    """Exhaustive search of the scenario's own power box, ``p_u_steps`` x
    ``p_j_steps`` points, with the altitude closed out.

    Each count is a positive integer, both checked before either axis is
    built.  Deterministic: the ascending scan with strict improvement
    implements the tie-break order.
    """
    p_u_steps = _integer("p_u_steps", p_u_steps, 1)
    p_j_steps = _integer("p_j_steps", p_j_steps, 1)
    (result,) = _maximize_over_epsilons(
        scenario, _axis("p_u_values", scenario.p_max, p_u_steps),
        _axis("p_j_values", scenario.p_max, p_j_steps), (scenario.epsilon,))
    return result


def _maximize_over_epsilons(scenario: Scenario, p_u_values: tuple[float, ...],
                            p_j_values: tuple[float, ...],
                            epsilons) -> list[OptimizationResult]:
    """:func:`maximize_covert_rate` of ``scenario.replace(epsilon=e)`` over
    the power axes ``p_u_values`` and ``p_j_values`` (each nonempty and
    ascending inside (0, p_max]) for each ``e`` in the sequence
    ``epsilons`` (each in (0, 1)).

    A pass shares the ground verdicts of a block of powers among up to
    ``_BLOCK_CELLS`` (epsilon, point) cells; each epsilon has its own
    argmax.
    """
    s = scenario
    rows = max(1, _BLOCK_CELLS // len(p_j_values))
    best = [None] * len(epsilons)  # per epsilon: (r_b, p_u, p_j, h, gamma_u)
    for start in range(0, len(p_u_values), rows):
        p_u_block = p_u_values[start:start + rows]
        span = max(1, _BLOCK_CELLS // (len(p_u_block) * len(p_j_values)))
        for e0 in range(0, len(epsilons), span):
            chunk = epsilons[e0:e0 + span]
            h_min, gamma_u, gamma_b, feasible = feasibility_grid(
                s, p_u_block, p_j_values, chunk)
            for e in range(len(chunk)):
                cells = np.flatnonzero(feasible[e])
                if not cells.size:
                    continue
                r_b = capacity(gamma_b[e].ravel()[cells])  # bit-exact: see capacity
                k = r_b.index(max(r_b))  # first of the ties
                if best[e0 + e] is None or r_b[k] > best[e0 + e][0]:
                    i, j = divmod(cells.item(k), len(p_j_values))
                    best[e0 + e] = (r_b[k], p_u_block[i], p_j_values[j],
                                    h_min.item(e, i, j), gamma_u.item(e, i, j))

    h_max_at = {}  # (p_u, p_j) -> security ceiling, shared by every epsilon
    results = []
    for point in best:
        if point is None:
            results.append(_NO_FEASIBLE_POINT)
            continue
        r_b, p_u, p_j, h, gamma_u = point
        if (p_u, p_j) not in h_max_at:
            h_max_at[p_u, p_j] = security_height_bound(s, p_u, p_j)
        h_max = h_max_at[p_u, p_j]
        if h_max is None:
            raise NumericalError(
                f"grid verdict disagrees with security_height_bound at "
                f"p_u={p_u!r}, p_j={p_j!r}")
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
            c_s_star=r_b - capacity(gamma_u)[0], feasible=True,
            active_constraints=tuple(active), h_max=h_max))
    return results
