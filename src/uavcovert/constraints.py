"""Hover-height constraints.

Covertness requires the warden's minimum error zeta_star(h) to stay at or
above 1 - epsilon, which translates into a minimum altitude.  Security
requires the secrecy rate C_s(h) to stay at or above the scenario's
threshold r_s; since C_s falls with altitude over the operating range,
that yields a maximum altitude found by bisection, bracketed on one fixed
scan of doubling altitudes up to SEARCH_CEILING_M.  Their intersection is
the feasible hover interval, possibly empty.  Only the covert floor reads
epsilon.

:func:`feasible_interval` solves one scenario and is the reference.
:func:`feasibility_grid` gives its emptiness verdict for whole arrays of
(epsilon, p_u, p_j) at once, without bisection: it evaluates C_s - r_s on
the solver's doubling scan once per (p_u, p_j), shared by every epsilon,
and at each covert floor h_min, all with numpy, and locates h_min against
the bracket where the scan crosses r_s.  A value inside a guard band of 0
could be decided differently by the solver (np.log2 rounding, the
bisection residual), and a scan that re-crosses r_s makes the solver
raise; such points are flagged uncertain, for the caller to hand to
:func:`feasible_interval`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .model import Scenario
from .rates import capacity, snrs_at

SEARCH_CEILING_M = 1e6     # far beyond any physical hover height
BISECT_MAX_ITER = 200
BISECT_RESIDUAL = 1e-9     # absolute residual on C_s at the returned height
# Guard bands of feasibility_grid.  A scan sign is unsure within
# SIGN_GUARD * (c_b + c_u + r_s) of 0, thousands of times the few-ULP gap
# between np.log2 and math.log2; C_s(h_min) - r_s is unsure within
# RESIDUAL_GUARD, where the bisection may stop on either side of h_min.
SIGN_GUARD = 1e-12
RESIDUAL_GUARD = 2.0 * BISECT_RESIDUAL


@dataclass(frozen=True)
class FeasibleHeightInterval:
    """[h_min, h_max] altitude window; h_max may be +inf, NaN when empty."""

    h_min: float
    h_max: float
    empty: bool


def covert_height_bound(p_u: float, p_j: float, beta: float, epsilon: float,
                        d_w2: float) -> float:
    """Minimum altitude for zeta_star(h) >= 1 - epsilon.

    h_min = sqrt(-P_u beta / (P_J ln(1 - epsilon)) - d_w^2), folded to 0
    when the radicand is non-positive (covert at any height).  When
    positive, zeta_star(h_min) = 1 - epsilon exactly.  When P_J ln(1 -
    epsilon) underflows to 0 or the quotient overflows, h_min is inf: no
    altitude is covert enough.
    """
    if not (0.0 < epsilon < 1.0):
        raise ConfigError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if min(p_u, p_j, beta) <= 0.0:
        raise ConfigError("p_u, p_j, beta must be > 0")
    denominator = p_j * math.log1p(-epsilon)
    if denominator == 0.0:
        return math.inf
    radicand = -p_u * beta / denominator - d_w2
    return math.sqrt(radicand) if radicand > 0.0 else 0.0


def secrecy_rate_at_height(scenario: Scenario, h: float) -> float:
    """C_s as a function of altitude, other fields fixed."""
    if not (math.isfinite(h) and h >= 0.0):
        raise ConfigError(f"h must be finite and >= 0, got {h!r}")
    gamma_u, gamma_b = snrs_at(scenario, scenario.p_u, scenario.p_j, h)
    return capacity(gamma_b) - capacity(gamma_u)


# The security bracket scan: 0, then doubling altitudes from 1 m, then the
# search ceiling itself.
_SCAN_HEIGHTS = (0.0, *(2.0 ** k for k in range(
    math.ceil(math.log2(SEARCH_CEILING_M)))), SEARCH_CEILING_M)
_SCAN = np.array(_SCAN_HEIGHTS)


def security_height_bound(scenario: Scenario):
    """Altitude h_max where C_s(h_max) == scenario.r_s, by bisection.

    Returns None when C_s(0) < r_s (infeasible even on the ground) and
    math.inf when C_s stays above r_s all the way to the search ceiling.
    Bracketing scans doubling altitudes; a second sign change there means
    the feasible set is not an interval and raises NumericalError.
    """
    r_s = scenario.r_s

    def f(h: float) -> float:
        return secrecy_rate_at_height(scenario, h) - r_s

    if f(0.0) < 0.0:
        return None

    # Doubling scan to bracket the first crossing.
    values = [f(x) for x in _SCAN_HEIGHTS]
    crossings = [i for i in range(len(_SCAN_HEIGHTS) - 1)
                 if values[i] >= 0.0 > values[i + 1]]
    if not crossings:
        if any(v < 0.0 for v in values):
            raise NumericalError(
                "secrecy rate is not monotone across the bracketing scan; "
                "the feasible height set is not an interval")
        return math.inf
    if any(v >= 0.0 for v in values[crossings[0] + 1:]):
        raise NumericalError(
            "secrecy rate re-crosses the threshold above the first "
            "crossing; the feasible height set is not an interval")

    lo, hi = _SCAN_HEIGHTS[crossings[0]], _SCAN_HEIGHTS[crossings[0] + 1]
    mid = 0.5 * (lo + hi)
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= BISECT_RESIDUAL:
            return mid
        if fm > 0.0:
            lo = mid
        else:
            hi = mid
    return mid


def feasible_interval(scenario: Scenario) -> FeasibleHeightInterval:
    """Intersect the covert lower bound with the security upper bound.

    The interval is closed at h_max: C_s(h_max) = r_s satisfies the
    security requirement with equality.
    """
    h_min = covert_height_bound(scenario.p_u, scenario.p_j, scenario.beta,
                                scenario.epsilon, scenario.d_w2)
    h_max = security_height_bound(scenario)
    if h_max is None:
        return FeasibleHeightInterval(h_min=h_min, h_max=math.nan, empty=True)
    return FeasibleHeightInterval(h_min=h_min, h_max=h_max, empty=h_min > h_max)


@dataclass(frozen=True)
class GridVerdict:
    """:func:`feasibility_grid` output, arrays of shape (epsilons, p_u, p_j).

    ``gamma_u`` and ``gamma_b`` are the SNRs at ``h_min``; ``feasible`` is
    ``not feasible_interval(...).empty`` wherever ``uncertain`` does not
    hold.
    """

    h_min: np.ndarray
    gamma_u: np.ndarray
    gamma_b: np.ndarray
    feasible: np.ndarray
    uncertain: np.ndarray


def feasibility_grid(scenario: Scenario, p_u_values, p_j_values,
                     epsilons) -> GridVerdict:
    """Array verdict of :func:`feasible_interval` over every (epsilon, p_u,
    p_j) of three sequences, as arrays of shape (epsilons, p_u, p_j).

    ``p_u_values`` and ``p_j_values`` hold positive powers, ``epsilons``
    values in (0, 1); the other fields come from ``scenario``.  A point is
    feasible when C_s(0) >= r_s and h_min lies below the scan bracket where
    C_s first drops under r_s, or inside it with C_s(h_min) >= r_s, or when
    the scan never drops under r_s (h_max = inf).  This assumes, as the
    bisection does, one crossing inside that bracket.  Points whose scan
    re-crosses r_s, or whose deciding values sit in a guard band of 0, are
    left uncertain.  The scan and its flags are computed once per (p_u,
    p_j) and broadcast against the epsilon axis, with ``math.log1p`` per
    epsilon so that h_min rounds as in :func:`covert_height_bound`.
    """
    s = scenario
    # The powers take a leading epsilon axis of length 1, so that with one
    # epsilon numpy meets arrays of equal shape throughout.
    p_u = np.array(p_u_values)[None, :, None]
    p_j = np.array(p_j_values)[None, None, :]
    c_u, c_b = (np.log2(1.0 + gamma) for gamma in
                snrs_at(s, p_u[..., None], p_j[..., None], _SCAN))
    margin = c_b - c_u - s.r_s  # its rounding scales with c_b + c_u + r_s
    unsure = np.abs(margin) <= SIGN_GUARD * (c_b + c_u + s.r_s)
    above = margin >= 0.0
    ground_ok = above[..., 0]
    n_above = above.sum(axis=-1)
    never_below = n_above == _SCAN.size
    one_crossing = (above[..., :-1] >= above[..., 1:]).all(axis=-1)
    k = np.minimum(np.maximum(n_above - 1, 0), _SCAN.size - 2)
    lo, hi = _SCAN[k], _SCAN[k + 1]
    scan_uncertain = np.where(ground_ok, ~one_crossing | unsure.any(axis=-1),
                              unsure[..., 0])

    logs = np.array([math.log1p(-e) for e in epsilons])[:, None, None]
    # h_min = inf where the quotient overflows or its denominator underflows
    # to 0, as in covert_height_bound.
    with np.errstate(divide="ignore", over="ignore"):
        radicand = -p_u * s.beta / (p_j * logs) - s.d_w2
    h_min = np.sqrt(np.maximum(radicand, 0.0))
    gamma_u, gamma_b = snrs_at(s, p_u, p_j, h_min)
    c_u, c_b = np.log2(1.0 + gamma_u), np.log2(1.0 + gamma_b)
    margin_min = c_b - c_u - s.r_s
    in_bracket = ground_ok & ~never_below & (h_min > lo) & (h_min <= hi)
    feasible = ground_ok & (never_below | (h_min <= lo)
                            | (in_bracket & (margin_min >= 0.0)))
    uncertain = scan_uncertain | (in_bracket
                                  & (np.abs(margin_min) <= RESIDUAL_GUARD))
    return GridVerdict(h_min=h_min, gamma_u=gamma_u, gamma_b=gamma_b,
                       feasible=feasible, uncertain=uncertain)
