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
above the ground; :func:`feasibility_grid` reports such points infeasible.

:func:`feasibility_grid` is the one feasibility verdict, over whole arrays
of (epsilon, p_u, p_j) at once: by the one crossing, the security
predicate N_b / D_b >= t N_u / D_u, as (1 + gamma_b) / (1 + gamma_u) >= t,
on the ground and at each covert floor h_min decides a point.  Where
r_s = 0 the predicate is gamma_b >= gamma_u instead: the same set as
C_s >= 0, without the rounding of 1 + gamma, which reads two SNRs below
about 1e-16 as secure whatever their order.  :func:`_secure` is that one
predicate.  :func:`security_height_bound` takes the grid's own float
powers, with no rebuilt Scenario; its altitude scan applies the same
predicate, and its h_max bisection too where r_s = 0; where r_s > 0 it
compares the ratio with 2^(r_s -+ BISECT_RESIDUAL).  Floats and arrays
round their plain arithmetic alike, so the grid and the scan decide a
point alike.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError
from .model import Scenario
from .rates import snrs_at

SEARCH_CEILING_M = 1e6     # top of the h_max scan, beyond any hover height
BISECT_RESIDUAL = 1e-9     # absolute residual on C_s at h_max where r_s > 0


def _threshold(r_s: float) -> float:
    """t = 2^r_s, inf where it overflows (r_s >= 1024): no C_s reaches it."""
    return 2.0 ** r_s if r_s < 1024.0 else math.inf


def _ratio(snrs):
    """2^C_s as (1 + gamma_b) / (1 + gamma_u) for ``snrs = (gamma_u,
    gamma_b)``: C_s >= r_s is ``_ratio(snrs) >= t`` (module docstring)."""
    gamma_u, gamma_b = snrs
    return (1.0 + gamma_b) / (1.0 + gamma_u)


def _secure(snrs, r_s: float, t: float):
    """The security predicate C_s >= r_s for ``snrs = (gamma_u, gamma_b)``
    and ``t = _threshold(r_s)``: ``_ratio(snrs) >= t``, or, where r_s = 0,
    gamma_b >= gamma_u, the same set without the rounding of 1 + gamma,
    which reads every pair of SNRs below about 1e-16 as secure."""
    if r_s == 0.0:
        gamma_u, gamma_b = snrs
        return gamma_b >= gamma_u
    return _ratio(snrs) >= t


# The security bracket scan: 0, then doubling altitudes from 1 m, then the
# search ceiling itself.
_SCAN_HEIGHTS = np.array([0.0, *(2.0 ** k for k in range(
    math.ceil(math.log2(SEARCH_CEILING_M)))), SEARCH_CEILING_M])


def security_height_bound(scenario: Scenario, p_u, p_j):
    """Altitude h_max where C_s(h_max) == scenario.r_s at the float powers
    ``p_u`` and ``p_j``, by bisection.

    Returns None when C_s(0) < r_s and math.inf when C_s >= r_s at the
    search ceiling, by the security predicate at every scan height in one
    array pass (NumericalError where an SNR overflows).  Otherwise C_s
    crosses r_s once (module docstring), between the first doubling
    altitude where the predicate fails and the one before.  Where r_s > 0
    the bisection returns the first midpoint whose 2^C_s lies strictly
    inside 2^(r_s -+ BISECT_RESIDUAL), or the one that no longer lies
    strictly inside its bracket: every other step narrows the bracket, so
    the loop ends.  Where r_s = 0 the predicate is gamma_b >= gamma_u, and
    the bisection returns the secure end of a bracket of adjacent floats.
    """
    s = scenario
    try:
        with np.errstate(over="raise"):
            snrs = snrs_at(s, p_u, p_j, _SCAN_HEIGHTS)
    except FloatingPointError as exc:
        raise NumericalError(f"SNRs on the altitude scan overflow: {exc}") from exc
    t = _threshold(s.r_s)
    secure = _secure(snrs, s.r_s, t).tolist()
    if not secure[0]:
        return None
    if secure[-1]:
        return math.inf
    k = secure.index(False)
    lo, hi = _SCAN_HEIGHTS[k - 1].item(), _SCAN_HEIGHTS[k].item()
    if s.r_s == 0.0:  # no residual window: bisect to adjacent floats
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if _secure(snrs_at(s, p_u, p_j, mid), s.r_s, t) else (lo, mid)
        return lo
    t_lo = _threshold(s.r_s - BISECT_RESIDUAL)
    t_hi = _threshold(s.r_s + BISECT_RESIDUAL)
    while True:
        mid = 0.5 * (lo + hi)
        q = _ratio(snrs_at(s, p_u, p_j, mid))
        if t_lo < q < t_hi or not lo < mid < hi:
            return mid
        lo, hi = (mid, hi) if q >= t_hi else (lo, mid)


def feasibility_grid(scenario: Scenario, p_u_values, p_j_values, epsilons):
    """Feasibility verdict over every (epsilon, p_u, p_j) of three
    sequences: ``(h_min, gamma_u, gamma_b, feasible)``, arrays of shape
    (epsilons, p_u, p_j), with the SNRs at h_min.

    ``p_u_values`` and ``p_j_values`` hold positive powers, ``epsilons``
    values in (0, 1); the other fields come from ``scenario``.  A point is
    feasible when the security predicate holds on the ground, h_min is
    finite, and the predicate holds at h_min: above secure ground C_s
    crosses r_s once, so the secure set is [0, h'].  The ground verdict is
    computed once per (p_u, p_j) and broadcast against the epsilon axis.
    The covert floor, where zeta_star(h) = 1 - epsilon, is
    h_min = sqrt(-P_u beta / (P_J ln(1 - epsilon)) - d_w^2): 0 where the
    radicand is non-positive (covert at any height), inf where
    P_J ln(1 - epsilon) underflows to 0 or the quotient overflows.  Raises
    :class:`NumericalError` where P_u beta and P_J ln(1 - epsilon) both
    overflow, and where an SNR's arithmetic overflows at some grid power,
    since its inf would decide the point.
    """
    s = scenario
    t = _threshold(s.r_s)
    # The powers take a leading epsilon axis of length 1, so that with one
    # epsilon numpy meets arrays of equal shape throughout.
    p_u = np.array(p_u_values)[None, :, None]
    p_j = np.array(p_j_values)[None, None, :]
    logs = np.array([math.log1p(-e) for e in epsilons])[:, None, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        radicand = -p_u * s.beta / (p_j * logs) - s.d_w2
    if np.isnan(radicand).any():
        raise NumericalError("covert floor undefined: P_u beta and "
                             "P_J ln(1 - epsilon) both overflow")
    h_min = np.sqrt(np.maximum(radicand, 0.0))
    try:
        with np.errstate(over="raise"):
            ground_ok = _secure(snrs_at(s, p_u, p_j, 0.0), s.r_s, t)
            gamma_u, gamma_b = snrs_at(s, p_u, p_j, h_min)
    except FloatingPointError as exc:
        raise NumericalError(f"SNRs on the power grid overflow: {exc}") from exc
    feasible = ground_ok & (h_min < math.inf) & _secure((gamma_u, gamma_b), s.r_s, t)
    return h_min, gamma_u, gamma_b, feasible
