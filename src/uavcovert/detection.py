"""Warden-side radiometer analysis.

The warden compares average received power against a threshold ``gamma``
and decides "relay transmitting" above it.  Under jamming with a unit-mean
exponential fade the false-alarm and missed-detection probabilities have
simple exponential closed forms; their sum ``zeta`` is the total error
probability, minimized at a threshold ``gamma_star`` with floor
``zeta_star``.  A vectorized Monte Carlo mirror reproduces all of it
empirically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .model import Scenario, sample_rayleigh_power

_ZETA_SLACK = 1e-12


@dataclass(frozen=True)
class DetectionPoint:
    """(threshold, P_FA, P_MD, total error) at one operating point."""

    gamma: float
    p_fa: float
    p_md: float
    zeta: float = field(init=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_fa <= 1.0 and 0.0 <= self.p_md <= 1.0):
            raise ValueError(f"probabilities out of range: {self.p_fa!r}, {self.p_md!r}")
        zeta = self.p_fa + self.p_md
        if zeta > 1.0 + _ZETA_SLACK:
            raise ValueError(f"total error {zeta!r} exceeds 1")
        object.__setattr__(self, "zeta", zeta)


@dataclass(frozen=True)
class OptimalDetection:
    """Error-minimizing threshold and the resulting error floor."""

    gamma_star: float
    zeta_star: float


def _as_float_or_array(out: np.ndarray, scalar_input: bool):
    return float(out) if scalar_input else out


def p_false_alarm(gamma, p_j: float, sigma_w2: float):
    """P(decide transmission | relay silent).

    exp((sigma_w^2 - gamma) / P_J) for gamma >= sigma_w^2, else 1.
    Accepts a scalar or ndarray threshold.
    """
    g = np.asarray(gamma, dtype=float)
    exponent = np.minimum(sigma_w2 - g, 0.0) / p_j
    out = np.where(g >= sigma_w2, np.exp(exponent), 1.0)
    return _as_float_or_array(out, g.ndim == 0)


def p_missed_detection(gamma, p_u: float, p_j: float, beta: float,
                       d_w2: float, h: float, sigma_w2: float):
    """P(decide silence | relay transmitting).

    The warden's signal term P_u |h_uw|^2 is deterministic LOS, so only the
    jamming fade is random: 1 - exp(tau) with
    tau = (sigma_w^2 + P_u beta / (d_w^2 + h^2) - gamma) / P_J,
    applied for gamma at or above the signal-plus-noise floor, else 0.
    """
    g = np.asarray(gamma, dtype=float)
    floor = sigma_w2 + p_u * beta / (d_w2 + h * h)
    tau = np.minimum(floor - g, 0.0) / p_j
    out = np.where(g >= floor, 1.0 - np.exp(tau), 0.0)
    return _as_float_or_array(out, g.ndim == 0)


def total_error(gamma: float, scenario: Scenario) -> DetectionPoint:
    """Closed-form total error zeta = P_FA + P_MD at one threshold."""
    fa = p_false_alarm(gamma, scenario.p_j, scenario.sigma_w2)
    md = p_missed_detection(gamma, scenario.p_u, scenario.p_j, scenario.beta,
                            scenario.d_w2, scenario.h, scenario.sigma_w2)
    return DetectionPoint(gamma=float(gamma), p_fa=fa, p_md=md)


def total_error_curve(scenario: Scenario, gammas) -> np.ndarray:
    """Vectorized zeta over a threshold grid."""
    g = np.asarray(gammas, dtype=float)
    fa = p_false_alarm(g, scenario.p_j, scenario.sigma_w2)
    md = p_missed_detection(g, scenario.p_u, scenario.p_j, scenario.beta,
                            scenario.d_w2, scenario.h, scenario.sigma_w2)
    return fa + md


def total_error_derivative(gamma, scenario: Scenario):
    """Analytic d(zeta)/d(gamma), piecewise.

    Zero below the noise floor, -exp((sigma_w^2 - gamma)/P_J)/P_J on the
    falling branch, and [exp(tau) - exp((sigma_w^2 - gamma)/P_J)] / P_J
    above gamma_star, where it is strictly positive.
    """
    g = np.asarray(gamma, dtype=float)
    s = scenario
    floor = s.sigma_w2 + s.p_u * s.beta / (s.d_w2 + s.h * s.h)
    fa_exp = np.exp(np.minimum(s.sigma_w2 - g, 0.0) / s.p_j)
    tau_exp = np.exp(np.minimum(floor - g, 0.0) / s.p_j)
    out = np.where(
        g <= s.sigma_w2,
        0.0,
        np.where(g <= floor, -fa_exp / s.p_j, (tau_exp - fa_exp) / s.p_j),
    )
    return _as_float_or_array(out, g.ndim == 0)


def optimal_detection(scenario: Scenario) -> OptimalDetection:
    """Error-minimizing threshold and floor.

    gamma_star = sigma_w^2 + P_u beta / (d_w^2 + h^2)
    zeta_star  = exp(-P_u beta / (P_J (d_w^2 + h^2)))
    """
    s = scenario
    signal = s.p_u * s.beta / (s.d_w2 + s.h * s.h)
    return OptimalDetection(
        gamma_star=s.sigma_w2 + signal,
        zeta_star=math.exp(-signal / s.p_j),
    )


def simulate_detection(scenario: Scenario, gamma: float, n_trials: int,
                       seed) -> DetectionPoint:
    """Monte Carlo mirror of the radiometer test.

    Each trial draws one quasi-static jamming fade |h_bw|^2 ~ Exp(1) and
    applies the threshold rule under both hypotheses (silent and
    transmitting) with that shared draw, so the per-trial combined error
    indicator is Bernoulli(zeta) and the empirical zeta is an unbiased
    binomial estimate.  Ties at the threshold decide "transmission".
    Reproducible for a fixed seed, independent of trial partitioning.
    """
    if not isinstance(n_trials, (int, np.integer)) or n_trials < 1:
        raise ConfigError(f"n_trials must be a positive integer, got {n_trials!r}")
    s = scenario
    rng = np.random.default_rng(seed)
    fade = sample_rayleigh_power(rng, int(n_trials))
    t_silent = s.p_j * fade + s.sigma_w2
    t_active = t_silent + s.p_u * s.gain_uw2()
    p_fa = float(np.count_nonzero(t_silent >= gamma)) / n_trials
    p_md = float(np.count_nonzero(t_active < gamma)) / n_trials
    return DetectionPoint(gamma=float(gamma), p_fa=p_fa, p_md=p_md)
