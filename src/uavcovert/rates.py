"""Rate chain through the untrusted amplify-and-forward relay.

The relay can decode what it forwards, so it doubles as an eavesdropper:
its decodable capacity C_u is subtracted from the destination capacity C_b
to form the secrecy rate C_s = C_b - C_u.  The covert rate objective R_b
equals C_b.  The destination sees the source symbol through the relay's
unit-power scaling, with the relay noise re-amplified and the receiver's
own jamming cancelled (full-duplex self-interference cancellation).

The signal-level oracle :func:`simulate_destination_snr` draws the source
symbols, the jamming, the relay noise and the receiver noise in that order,
and pushes them through the chain in place in three reused buffers, about
40 bytes per symbol.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import Scenario


def capacity(snr: float) -> float:
    """Shannon capacity log2(1 + snr), bits per channel use."""
    return math.log2(1.0 + snr)


def snrs_at(scenario: Scenario, p_u, p_j, h):
    """Relay and destination SNRs ``(gamma_u, gamma_b)`` at forward power
    ``p_u``, jamming power ``p_j`` and altitude ``h``, the other fields
    taken from ``scenario``.

    gamma_u is the SNR of the source signal as decodable by the
    (eavesdropping) relay:

        gamma_u = P_a |h_ua|^2 / (P_J |h_ub|^2 + sigma_u^2)

    gamma_b is the end-to-end SNR at the receiver through the relay:

        gamma_b = P_u P_a |h_ub|^2 |h_ua|^2 /
            ((P_u sigma_u^2 + P_J sigma_b^2) |h_ub|^2
             + P_a |h_ua|^2 sigma_b^2 + sigma_b^2 sigma_u^2)

    which is the post-cancellation signal-to-noise ratio after dividing
    out the relay scaling G.

    The LOS gains are |h_ui|^2 = beta / (d_i^2 + h^2) (a scenario's d^2 > 0
    keeps their denominators positive).  Only plain arithmetic
    operators appear, so floats and broadcast numpy arrays take this one
    path and round identically element by element; ``h`` must be finite
    and >= 0.
    """
    s = scenario
    hh = h * h
    g_ua = s.beta / (s.d_a2 + hh)
    g_ub = s.beta / (s.d_b2 + hh)
    gamma_u = s.p_a * g_ua / (p_j * g_ub + s.sigma_u2)
    num = p_u * s.p_a * g_ub * g_ua
    den = ((p_u * s.sigma_u2 + p_j * s.sigma_b2) * g_ub
           + s.p_a * g_ua * s.sigma_b2 + s.sigma_b2 * s.sigma_u2)
    return gamma_u, num / den


@dataclass(frozen=True)
class DestinationSnrEstimate:
    """Signal-level Monte Carlo summary of the relay chain."""

    snr: float
    forwarded_power: float  # mean |x_u|^2, should be 1 by the scaling choice
    signal_power: float
    noise_power: float


def _draw_complex_normal(rng: np.random.Generator, variance: float,
                         z: np.ndarray, buf: np.ndarray) -> None:
    """Fill ``z`` with CN(0, variance) draws: ``len(z)`` standard normals
    scaled into the real parts, then as many into the imaginary parts."""
    scale = math.sqrt(variance / 2.0)
    rng.standard_normal(out=buf)
    np.multiply(buf, scale, out=z.real)
    rng.standard_normal(out=buf)
    np.multiply(buf, scale, out=z.imag)


def _mean_power(z: np.ndarray, buf: np.ndarray) -> float:
    """mean |z|^2 through ``buf``; bit-equal to ``np.mean(np.abs(z) ** 2)``."""
    np.abs(z, out=buf)
    buf *= buf
    return float(np.mean(buf))


def simulate_destination_snr(scenario: Scenario, n_symbols: int,
                             seed) -> DestinationSnrEstimate:
    """Estimate the destination SNR by pushing symbols through the chain.

    Draws source, jamming, and noise symbols; forms the relay's received
    waveform; scales it by G; and splits the receiver's observation into
    its source-signal and noise components (the receiver's own jamming is
    cancelled).  Independent of the closed forms, so it serves as their
    oracle.

    The stream is consumed in a fixed order, each complex stream as
    ``n_symbols`` real parts then ``n_symbols`` imaginary parts: the source
    symbols x_a, the jamming x_j, the relay noise n_u, the receiver noise
    n_b.  The chain runs in place in two complex buffers and one real one,
    about 40 bytes per symbol (40 MB at 1e6 symbols).
    """
    if (isinstance(n_symbols, bool) or not isinstance(n_symbols, (int, np.integer))
            or n_symbols < 1):
        raise ConfigError(f"n_symbols must be a positive integer, got {n_symbols!r}")
    s = scenario
    n = int(n_symbols)
    rng = np.random.default_rng(seed)
    g_ua = s.beta / (s.d_a2 + s.h * s.h)
    g_ub = s.beta / (s.d_b2 + s.h * s.h)
    amp_ua = math.sqrt(s.p_a * g_ua)
    amp_jam = math.sqrt(s.p_j * g_ub)
    amp_ub = math.sqrt(s.p_u * g_ub)
    g = 1.0 / math.sqrt(s.p_a * g_ua + s.p_j * g_ub + s.sigma_u2)  # unit |x_u|^2

    a = np.empty(n, dtype=complex)
    t = np.empty(n, dtype=complex)
    buf = np.empty(n)
    _draw_complex_normal(rng, 1.0, a, buf)                  # x_a
    np.multiply(a, amp_ub * g * amp_ua, out=t)              # received signal
    signal_power = _mean_power(t, buf)
    a *= amp_ua
    _draw_complex_normal(rng, 1.0, t, buf)                  # x_j
    t *= amp_jam
    a += t
    _draw_complex_normal(rng, s.sigma_u2, t, buf)           # n_u
    a += t                                                  # y_u
    a *= g                                                  # x_u = G y_u
    forwarded_power = _mean_power(a, buf)
    t *= amp_ub * g
    _draw_complex_normal(rng, s.sigma_b2, a, buf)           # n_b
    t += a                                                  # received noise
    noise_power = _mean_power(t, buf)
    return DestinationSnrEstimate(
        snr=signal_power / noise_power,
        forwarded_power=forwarded_power,
        signal_power=signal_power,
        noise_power=noise_power,
    )
