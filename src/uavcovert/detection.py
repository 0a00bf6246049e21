"""Warden-side radiometer analysis.

The warden compares average received power against a threshold ``gamma``
and decides "relay transmitting" above it.  Under jamming with a unit-mean
exponential fade the false-alarm and missed-detection probabilities have
simple exponential closed forms; their sum ``zeta`` is the total error
probability, minimized at a threshold ``gamma_star`` with floor
``zeta_star``, the pair that :func:`optimal_detection` returns.  The
closed forms are one list pass, :func:`error_curve`; a vectorized Monte
Carlo mirror, :func:`simulate_detection`, reproduces them one threshold
per call and returns the same ``(p_fa, p_md, zeta)`` triple as one
element of the curve.  The mirror draws its fades chunk by chunk into one
scratch buffer, so its memory does not grow with the trial count.  It
shares no state between calls, so a sweep may run half its points on the
one more thread of ``rates._ahead`` (``experiments.run_detection_sweep``)
and get the values of a serial loop.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericalError, _integer, _real
from .model import Scenario
from .rates import _chunks

_ZETA_SLACK = 1e-12

# Trials per chunk of simulate_detection's scratch buffer, 512 KiB.  Against
# one whole-length array (2 cores, numpy 2.4.6) it took the same time at
# 1e5 trials, where rates' 2^14 took 7% more in its seven chunks, and 21%
# less at 1e6.  No count depends on it, so the results do not either.
_TRIAL_CHUNK = 1 << 16


def _check_thresholds(gammas) -> list[float]:
    """The thresholds ``gammas`` as a list of Python floats, in the one
    domain of :func:`error_curve` and :func:`simulate_detection`: each a
    real number as ``errors._real`` takes it, and not NaN.  Raises
    ConfigError naming the first value outside it."""
    values = [_real("threshold gamma", g) for g in gammas]
    if any(map(math.isnan, values)):
        raise ConfigError("threshold gamma must not be NaN")
    return values


def error_curve(scenario: Scenario, gammas):
    """Closed-form ``(p_fa, p_md, zeta)`` lists over the thresholds
    ``gammas``, in one pass of Python floats, so each element rounds as in
    a one-element call:

        P_FA = exp((sigma_w^2 - gamma) / P_J) for gamma >= sigma_w^2, else 1
        P_MD = 1 - exp((gamma_star - gamma) / P_J) for gamma >= gamma_star, else 0

    and zeta = P_FA + P_MD.  gamma_star is the signal-plus-noise floor of
    :func:`optimal_detection`; the warden's signal term P_u |h_uw|^2 is
    deterministic LOS, so only the jamming fade is random.  A threshold is
    any real number but a bool or NaN (:class:`ConfigError`); -inf and +inf
    give the limits (1, 0, 1) and (0, 1, 1).  A quotient that overflows to
    -inf is the defined limit, exp -> 0.  The exponentials are ``math.exp``,
    not ``np.exp``, whose AVX-512 kernel is not correctly rounded on every
    fig2 threshold: the CSV bytes would depend on the host's SIMD dispatch.
    Raises :class:`NumericalError` if zeta leaves [0, 1].
    """
    s = scenario
    gamma_star, _ = optimal_detection(s)
    p_fa, p_md, zeta = [], [], []
    for g in _check_thresholds(gammas):
        fa = math.exp((s.sigma_w2 - g) / s.p_j) if g >= s.sigma_w2 else 1.0
        md = 1.0 - math.exp((gamma_star - g) / s.p_j) if g >= gamma_star else 0.0
        z = fa + md
        if not 0.0 <= z <= 1.0 + _ZETA_SLACK:
            raise NumericalError("detection error probabilities out of range")
        p_fa.append(fa)
        p_md.append(md)
        zeta.append(z)
    return p_fa, p_md, zeta


def optimal_detection(scenario: Scenario) -> tuple[float, float]:
    """Error-minimizing threshold and floor ``(gamma_star, zeta_star)``:

    gamma_star = sigma_w^2 + P_u beta / (d_w^2 + h^2)
    zeta_star  = exp(-P_u beta / (P_J (d_w^2 + h^2)))
    """
    s = scenario
    signal = s.p_u * s.beta / (s.d_w2 + s.h * s.h)
    return s.sigma_w2 + signal, math.exp(-signal / s.p_j)


def simulate_detection(scenario: Scenario, gamma: float, n_trials: int,
                       seed) -> tuple[float, float, float]:
    """Monte Carlo ``(p_fa, p_md, zeta)`` of the radiometer test at the
    threshold ``gamma``, with ``zeta = p_fa + p_md``.  ``gamma`` is any
    real number but a bool or NaN (:class:`ConfigError`), as in
    :func:`error_curve`, whose limits at -inf and +inf it shares; the rates
    are Python floats for any integer ``n_trials``, numpy's included.

    Each trial draws one quasi-static jamming fade |h_bw|^2 ~ Exp(1) and
    applies the threshold rule under both hypotheses (silent and
    transmitting) with that shared draw, so the per-trial combined error
    indicator is Bernoulli(zeta) and the empirical zeta is an unbiased
    binomial estimate.  Ties at the threshold decide "transmission".  The
    silent event ``t >= gamma`` and the active one ``t + signal < gamma``
    are disjoint, so the two counts add up to at most ``n_trials``.
    Reproducible for a fixed seed, independent of trial partitioning.

    The ``n_trials`` fades are the generator's first draws, taken
    ``_TRIAL_CHUNK`` at a time into one scratch buffer, which holds the
    same values as one draw of all of them.  Each chunk becomes the silent
    statistic, then the active one, in place, and adds its two counts to
    the totals; with a count's boolean mask that is about 0.6 MB at any
    ``n_trials``.
    """
    n = _integer("n_trials", n_trials, 1)
    (gamma,) = _check_thresholds((gamma,))
    s = scenario
    signal = s.p_u * (s.beta / (s.d_w2 + s.h * s.h))
    rng = np.random.default_rng(seed)
    alarms = misses = 0
    with np.errstate(over="ignore"):  # inf is the limit: above any gamma
        for _, t in _chunks(n, np.empty(min(n, _TRIAL_CHUNK))):
            rng.standard_exponential(out=t)                  # |h_bw|^2
            t *= s.p_j
            t += s.sigma_w2                                  # silent
            alarms += np.count_nonzero(t >= gamma)
            t += signal                                      # transmitting
            misses += np.count_nonzero(t < gamma)
    p_fa, p_md = float(alarms) / n, float(misses) / n
    return p_fa, p_md, p_fa + p_md
