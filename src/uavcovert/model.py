"""Scenario parameterization and physical-layer primitives.

A source transmits to a full-duplex receiver through an amplify-and-forward
UAV relay hovering at altitude ``h`` while a ground warden listens.  All
air-to-ground links are deterministic line-of-sight with squared gain
``beta / (d^2 + h^2)``; the ground-to-ground jamming links fade Rayleigh,
i.e. their squared gains are unit-mean exponential draws, one per
transmission block.

Everything is stored in linear SI units (watts, square meters).  dB-valued
config fields are converted exactly once, at JSON parse time.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x)


@dataclass(frozen=True)
class Scenario:
    """Full system parameterization.

    Distances are stored squared because every closed form consumes d^2.
    Powers and noise variances are linear watts, ``beta`` is the linear
    channel power gain at the 1 m reference distance.
    """

    d_a2: float  # squared horizontal distance source -> relay, m^2
    d_b2: float  # squared horizontal distance receiver -> relay, m^2
    d_w2: float  # squared horizontal distance warden -> relay, m^2
    h: float     # relay hover altitude, m
    beta: float  # reference channel power gain at 1 m, linear
    p_a: float   # source transmit power, W
    p_u: float   # relay forward power, W
    p_j: float   # receiver jamming power, W
    p_max: float  # cap on p_u and p_j (p_a validated against it too), W
    sigma_u2: float  # AWGN variance at the relay, W
    sigma_b2: float  # AWGN variance at the receiver, W
    sigma_w2: float  # AWGN variance at the warden, W
    epsilon: float   # covertness slack, in (0, 1)
    r_s: float       # secrecy-rate threshold, bits per channel use

    def __post_init__(self) -> None:
        positive = {
            "d_a2": self.d_a2, "d_b2": self.d_b2, "d_w2": self.d_w2,
            "beta": self.beta,
            "p_a": self.p_a, "p_u": self.p_u, "p_j": self.p_j,
            "p_max": self.p_max,
            "sigma_u2": self.sigma_u2, "sigma_b2": self.sigma_b2,
            "sigma_w2": self.sigma_w2,
        }
        for name, value in positive.items():
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be finite and > 0, got {value!r}")
        if not (math.isfinite(self.h) and self.h >= 0.0):
            raise ConfigError(f"h must be finite and >= 0, got {self.h!r}")
        if not (0.0 < self.epsilon < 1.0):
            raise ConfigError(f"epsilon must lie in (0, 1), got {self.epsilon!r}")
        if not (math.isfinite(self.r_s) and self.r_s >= 0.0):
            raise ConfigError(f"r_s must be finite and >= 0, got {self.r_s!r}")
        for name in ("p_a", "p_u", "p_j"):
            if getattr(self, name) > self.p_max:
                raise ConfigError(f"{name} exceeds p_max ({getattr(self, name)!r} > {self.p_max!r})")

    # -- per-link LOS gains ------------------------------------------------

    def gain_ua2(self) -> float:
        """Squared LOS gain of the source -> relay link."""
        return los_gain_squared(self.beta, self.d_a2, self.h)

    def gain_ub2(self) -> float:
        """Squared LOS gain of the relay -> receiver link."""
        return los_gain_squared(self.beta, self.d_b2, self.h)

    def gain_uw2(self) -> float:
        """Squared LOS gain of the relay -> warden link."""
        return los_gain_squared(self.beta, self.d_w2, self.h)

    def replace(self, **changes) -> "Scenario":
        """Return a copy with the given fields replaced (and revalidated)."""
        return dataclasses.replace(self, **changes)

    # -- JSON config I/O ---------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        """Parse the unit-suffixed JSON schema; unknown fields are rejected."""
        unknown = set(raw) - set(_JSON_FIELDS)
        if unknown:
            raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
        missing = set(_JSON_FIELDS) - set(raw)
        if missing:
            raise ConfigError(f"missing scenario fields: {sorted(missing)}")
        kwargs = {}
        for key, (attr, decode, _encode) in _JSON_FIELDS.items():
            value = raw[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"scenario field {key} must be a number, got {value!r}")
            try:
                kwargs[attr] = decode(float(value))
            except OverflowError as exc:
                raise ConfigError(f"scenario field {key} overflows a float") from exc
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "Scenario":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
        except ValueError as exc:  # bad JSON or UTF-8, or a too-long integer
            raise ConfigError(f"scenario file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"scenario file {path} must hold a JSON object")
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        """Inverse of :meth:`from_dict` (dB fields re-encoded)."""
        return {key: encode(getattr(self, attr))
                for key, (attr, _decode, encode) in _JSON_FIELDS.items()}

    def canonical_hash(self) -> str:
        """Stable short hash of the linear field values, for CSV provenance."""
        (digest,) = _canonical_hashes(self, "h", (self.h,))
        return digest


def _canonical_hashes(scenario: Scenario, name: str, values) -> list[str]:
    """``scenario.replace(**{name: v}).canonical_hash()`` for each ``v`` in
    ``values``, without building (or validating) those scenarios.

    The hashed payload is what ``json.dumps({field: repr(value)},
    sort_keys=True)`` writes for the fields.  Every value is the ``repr`` of
    a number, which holds nothing JSON escapes, so the payload is one
    template per call with ``repr(v)`` spliced in as field ``name``.
    """
    reprs = {f.name: repr(getattr(scenario, f.name))
             for f in dataclasses.fields(scenario)}
    reprs[name] = "\0"
    head, tail = ("{" + ", ".join(f'"{k}": "{reprs[k]}"' for k in sorted(reprs))
                  + "}").split("\0")
    return [hashlib.sha256(f"{head}{v!r}{tail}".encode("ascii")).hexdigest()[:16]
            for v in values]


def _identity(x: float) -> float:
    return x


# JSON key -> (attribute, decode from file value, encode back to file value)
_JSON_FIELDS = {
    "d_a2_m2": ("d_a2", _identity, _identity),
    "d_b2_m2": ("d_b2", _identity, _identity),
    "d_w2_m2": ("d_w2", _identity, _identity),
    "h_m": ("h", _identity, _identity),
    "beta_db": ("beta", db_to_linear, linear_to_db),
    "p_a_w": ("p_a", _identity, _identity),
    "p_u_w": ("p_u", _identity, _identity),
    "p_j_w": ("p_j", _identity, _identity),
    "p_max_w": ("p_max", _identity, _identity),
    "sigma_u2_dbw": ("sigma_u2", db_to_linear, linear_to_db),
    "sigma_b2_dbw": ("sigma_b2", db_to_linear, linear_to_db),
    "sigma_w2_dbw": ("sigma_w2", db_to_linear, linear_to_db),
    "epsilon": ("epsilon", _identity, _identity),
    "r_s_bpcu": ("r_s", _identity, _identity),
}


def los_gain_squared(beta: float, d_i2: float, h: float) -> float:
    """Squared air-to-ground LOS gain beta / (d_i^2 + h^2).

    Strictly decreasing in both ``h`` and ``d_i2``.  When ``h > 0`` is so
    small that ``d_i2 + h*h`` underflows to 0, the gain overflows: the
    result is ``beta / h / h`` (``inf``), not a zero-range error.
    """
    if beta <= 0.0:
        raise ValueError(f"beta must be > 0, got {beta!r}")
    if d_i2 < 0.0 or h < 0.0:
        raise ValueError("d_i2 and h must be >= 0")
    denom = d_i2 + h * h
    if denom <= 0.0:
        if h > 0.0:
            return beta / h / h
        raise ValueError("d_i2 + h^2 must be > 0 (gain undefined at zero range)")
    return beta / denom


def sample_rayleigh_power(rng: np.random.Generator, size=None):
    """Draw squared Rayleigh-fading gains |h|^2 ~ Exp(1) (unit mean).

    One draw models one quasi-static transmission block.  Deterministic
    given the generator state; callers own stream management.
    """
    return rng.standard_exponential(size)


def relay_scaling(p_a: float, p_j: float, gain_ua2: float, gain_ub2: float,
                  sigma_u2: float) -> float:
    """Amplify-and-forward scaling G = 1 / sqrt(P_a|h_ua|^2 + P_J|h_ub|^2 + sigma_u^2).

    Normalizes the forwarded waveform to unit average power,
    G^2 (P_a|h_ua|^2 + P_J|h_ub|^2 + sigma_u^2) = 1.
    """
    if min(p_a, p_j, gain_ua2, gain_ub2, sigma_u2) < 0.0:
        raise ValueError("relay_scaling inputs must be >= 0")
    denom = p_a * gain_ua2 + p_j * gain_ub2 + sigma_u2
    if denom <= 0.0:
        raise ValueError("relay input power is zero; scaling undefined")
    return 1.0 / math.sqrt(denom)
