"""Hover-height constraints.

Covertness requires the warden's minimum error zeta_star(h) to stay at or
above 1 - epsilon, which translates into a minimum altitude.  Security
requires the secrecy rate C_s(h) to stay at or above the scenario's
threshold r_s, which above secure ground yields one maximum altitude,
found by bisection.  Their intersection is the feasible hover interval,
possibly empty.  Only the covert floor reads epsilon.

The security set.  With x = h^2, a = d_a^2, b = d_b^2, m = sigma_b^2
sigma_u^2, t = 2^r_s >= 1 and Q = P_u P_a beta^2, :func:`rates.snrs_at`
gives 1 + gamma_u = N_u / D_u and 1 + gamma_b = N_b / D_b, where
D_u = u0 + u1 x + sigma_u^2 x^2 with u1 = P_J beta + sigma_u^2 (a + b),
D_b = v0 + v1 x + m x^2 with v1 = (P_u sigma_u^2 + P_J sigma_b^2) beta
+ P_a beta sigma_b^2 + m (a + b), N_u = D_u + P_a beta (b + x) and
N_b = D_b + Q.  So C_s >= r_s is P(x) >= 0 for the quartic

    P = N_b D_u - t N_u D_b = Q D_u - (t - 1) D_b D_u - t P_a beta (b + x) D_b,

whose x^4, x^3, x^2 coefficients are -(t - 1) sigma_u^2 m <= 0,
-(t - 1)(u1 m + sigma_u^2 v1) - t P_a beta m < 0 and
Q sigma_u^2 - (t - 1)(...) - t P_a beta (b m + v1) < 0 (since
P_a beta v1 > P_a beta P_u sigma_u^2 beta = Q sigma_u^2).  Where P(0) > 0
the signs change once, so P has one positive root (Descartes' rule) and
the secure set is [0, h'].  Where C_s(0) < r_s a secure band may still lie
above the ground; :func:`feasible_interval` reports such points empty.

:func:`feasible_interval` solves one scenario and is the reference.
:func:`feasibility_grid` gives its emptiness verdict for whole arrays of
(epsilon, p_u, p_j) at once, without bisection: by the one crossing,
C_s - r_s on the ground, at SEARCH_CEILING_M and at each covert floor
h_min decides a point.  A value inside a guard band of 0 could be decided
differently by the solver (np.log2 rounding, the bisection residual);
such points are flagged uncertain, for the caller to hand to
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
# Guard bands of feasibility_grid.  The sign of C_s - r_s on the ground or
# at the ceiling is unsure within SIGN_GUARD * (c_b + c_u + r_s) of 0,
# thousands of times the few-ULP gap between np.log2 and math.log2;
# C_s(h_min) - r_s is unsure within RESIDUAL_GUARD, where the bisection may
# stop on either side of h_min.
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
    altitude is covert enough.  When P_u beta and P_J ln(1 - epsilon) both
    overflow the quotient is undefined and NumericalError is raised.
    """
    if not (0.0 < epsilon < 1.0):
        raise ConfigError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if min(p_u, p_j, beta) <= 0.0:
        raise ConfigError("p_u, p_j, beta must be > 0")
    return _covert_floor(p_u, p_j, beta, (epsilon,), d_w2).item()


def _covert_floor(p_u, p_j, beta: float, epsilons, d_w2: float) -> np.ndarray:
    """:func:`covert_height_bound` over a sequence of ``epsilons`` (axis 0)
    broadcast against ``p_u`` and ``p_j``, with ``math.log1p`` per epsilon.
    """
    logs = np.array([math.log1p(-e) for e in epsilons])[:, None, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        radicand = -p_u * beta / (p_j * logs) - d_w2
    if np.isnan(radicand).any():
        raise NumericalError("covert floor undefined: P_u beta and "
                             "P_J ln(1 - epsilon) both overflow")
    return np.sqrt(np.maximum(radicand, 0.0))


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


def security_height_bound(scenario: Scenario):
    """Altitude h_max where C_s(h_max) == scenario.r_s, by bisection.

    Returns None when C_s(0) < r_s (infeasible even on the ground) and
    math.inf when C_s stays above r_s all the way to the search ceiling.
    Otherwise C_s crosses r_s once (module docstring); the bisection
    brackets it between the first doubling altitude where C_s drops under
    r_s and the one before.
    """
    r_s = scenario.r_s

    def f(h: float) -> float:
        return secrecy_rate_at_height(scenario, h) - r_s

    if f(0.0) < 0.0:
        return None
    lo = 0.0
    for hi in _SCAN_HEIGHTS[1:]:
        if f(hi) < 0.0:
            break
        lo = hi
    else:
        return math.inf

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
    security requirement with equality.  It is empty where h_min is inf.
    """
    h_min = covert_height_bound(scenario.p_u, scenario.p_j, scenario.beta,
                                scenario.epsilon, scenario.d_w2)
    h_max = security_height_bound(scenario)
    if h_max is None:
        return FeasibleHeightInterval(h_min=h_min, h_max=math.nan, empty=True)
    return FeasibleHeightInterval(h_min=h_min, h_max=h_max,
                                  empty=h_min == math.inf or h_min > h_max)


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
    feasible when C_s(0) >= r_s, h_min is finite, and C_s(h_min) >= r_s or
    C_s stays at or above r_s at the search ceiling (h_max = inf): above
    secure ground C_s crosses r_s once.  Points whose deciding values sit
    in a guard band of 0 are left uncertain.  The ground and ceiling values
    are computed once per (p_u, p_j) and broadcast against the epsilon
    axis; h_min is :func:`covert_height_bound`'s array path.
    """
    s = scenario
    # The powers take a leading epsilon axis of length 1, so that with one
    # epsilon numpy meets arrays of equal shape throughout.
    p_u = np.array(p_u_values)[None, :, None]
    p_j = np.array(p_j_values)[None, None, :]
    # C_s - r_s on the ground and at the search ceiling, along axis 0
    ends = np.array([0.0, SEARCH_CEILING_M])[:, None, None, None]
    c_u, c_b = (np.log2(1.0 + gamma) for gamma in snrs_at(s, p_u, p_j, ends))
    margin = c_b - c_u - s.r_s  # its rounding scales with c_b + c_u + r_s
    ground_ok, never_below = margin >= 0.0
    ground_unsure, ceiling_unsure = (
        np.abs(margin) <= SIGN_GUARD * (c_b + c_u + s.r_s))

    h_min = _covert_floor(p_u, p_j, s.beta, epsilons, s.d_w2)
    gamma_u, gamma_b = snrs_at(s, p_u, p_j, h_min)
    c_u, c_b = np.log2(1.0 + gamma_u), np.log2(1.0 + gamma_b)
    margin_min = c_b - c_u - s.r_s
    feasible = ground_ok & (h_min < math.inf) & (
        never_below | (margin_min >= 0.0))
    uncertain = ground_unsure | (ground_ok & (ceiling_unsure | (
        ~never_below & (np.abs(margin_min) <= RESIDUAL_GUARD))))
    return GridVerdict(h_min=h_min, gamma_u=gamma_u, gamma_b=gamma_b,
                       feasible=feasible, uncertain=uncertain)
