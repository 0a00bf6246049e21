"""Scenario parameterization and its JSON schema.

A source transmits to a full-duplex receiver through an amplify-and-forward
UAV relay hovering at altitude ``h`` while a ground warden listens.  All
air-to-ground links are deterministic line-of-sight with squared gain
``beta / (d^2 + h^2)``; the ground-to-ground jamming links fade Rayleigh,
i.e. their squared gains are unit-mean exponential draws, one per
transmission block.  :func:`rates.snrs_at` states the gain formula; the
Monte Carlo kernels write it out the same way.

Everything is stored as linear SI floats (watts, square meters).  dB-valued
config fields are converted exactly once, at JSON parse time.  The schema is
one-way: a scenario is read from JSON and never written back.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

from .errors import ConfigError, _positive, _real
from .rates import snrs_at

def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


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
        # one pass stores every field as a float and checks the ones that
        # must be positive: distances, beta, powers and noises
        for name in self.__dataclass_fields__:
            check = _real if name in ("h", "epsilon", "r_s") else _positive
            object.__setattr__(self, name, check(name, getattr(self, name)))
        for name in ("d_a2", "d_b2", "d_w2"):
            if not math.isfinite(self.beta / getattr(self, name)):
                raise ConfigError(f"LOS gain beta / {name} must be finite, "
                                  f"got {self.beta!r} / {getattr(self, name)!r}")
        if not (math.isfinite(self.h) and self.h >= 0.0):
            raise ConfigError(f"h must be finite and >= 0, got {self.h!r}")
        if not (0.0 < self.epsilon < 1.0):
            raise ConfigError(f"epsilon must lie in (0, 1), got {self.epsilon!r}")
        if not (math.isfinite(self.r_s) and self.r_s >= 0.0):
            raise ConfigError(f"r_s must be finite and >= 0, got {self.r_s!r}")
        for name in ("p_a", "p_u", "p_j"):
            if getattr(self, name) > self.p_max:
                raise ConfigError(f"{name} exceeds p_max ({getattr(self, name)!r} > {self.p_max!r})")
        if not self.sigma_b2 * self.sigma_u2 > 0.0:  # gamma_b's denominator floor
            raise ConfigError(f"sigma_b2 * sigma_u2 must be > 0, but "
                              f"{self.sigma_b2!r} * {self.sigma_u2!r} underflows to 0")
        snrs = snrs_at(self, self.p_u, self.p_j, 0.0)
        if not all(map(math.isfinite, snrs)):
            raise ConfigError(f"SNRs (gamma_u, gamma_b) at h = 0 must be finite, "
                              f"got {snrs!r}")

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
        for key, (attr, decode) in _JSON_FIELDS.items():
            value = _real(f"scenario field {key}", raw[key])
            try:
                kwargs[attr] = decode(value)
            except OverflowError as exc:
                raise ConfigError(f"scenario field {key} overflows a float") from exc
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "Scenario":
        def unique(pairs):  # json.load alone keeps the last of two equal keys
            raw = {}
            for key, value in pairs:
                if key in raw:
                    raise ConfigError(f"scenario file {path} repeats field {key}")
                raw[key] = value
            return raw
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh, object_pairs_hook=unique)
        except OSError as exc:
            raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
        except ConfigError:
            raise
        except ValueError as exc:  # bad JSON or UTF-8, or a too-long integer
            raise ConfigError(f"scenario file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"scenario file {path} must hold a JSON object")
        return cls.from_dict(raw)

    def canonical_hash(self) -> str:
        """Stable short hash of the linear field values, for CSV provenance."""
        (digest,) = _canonical_hashes(self, "h", (repr(self.h),))
        return digest


def _canonical_hashes(scenario: Scenario, name: str, cells) -> list[str]:
    """``scenario.replace(**{name: v}).canonical_hash()`` for each ``v``
    whose ``repr`` is in ``cells``, without building (or validating) those
    scenarios.

    The hashed payload is what ``json.dumps({field: repr(value)},
    sort_keys=True)`` writes for the fields.  Every value is the ``repr`` of
    a number, which holds nothing JSON escapes, so the payload is one
    template per call with each cell spliced in as field ``name``.  The
    head before the cell is hashed once; each cell resumes from a copy of
    that state.  The first 8 digest bytes in hex are the first 16 hex
    digits of the digest.
    """
    reprs = {f.name: repr(getattr(scenario, f.name))
             for f in dataclasses.fields(scenario)}
    reprs[name] = "\0"
    head, tail = ("{" + ", ".join(f'"{k}": "{reprs[k]}"' for k in sorted(reprs))
                  + "}").split("\0")
    prefix, tail = hashlib.sha256(head.encode("ascii")), tail.encode("ascii")
    digests = []
    for cell in cells:
        state = prefix.copy()
        state.update(cell.encode("ascii"))
        state.update(tail)
        digests.append(state.digest()[:8].hex())
    return digests


# JSON key -> (attribute, decode from file value to linear float)
_JSON_FIELDS = {
    "d_a2_m2": ("d_a2", float),
    "d_b2_m2": ("d_b2", float),
    "d_w2_m2": ("d_w2", float),
    "h_m": ("h", float),
    "beta_db": ("beta", db_to_linear),
    "p_a_w": ("p_a", float),
    "p_u_w": ("p_u", float),
    "p_j_w": ("p_j", float),
    "p_max_w": ("p_max", float),
    "sigma_u2_dbw": ("sigma_u2", db_to_linear),
    "sigma_b2_dbw": ("sigma_b2", db_to_linear),
    "sigma_w2_dbw": ("sigma_w2", db_to_linear),
    "epsilon": ("epsilon", float),
    "r_s_bpcu": ("r_s", float),
}
