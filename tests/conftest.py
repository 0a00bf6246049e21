import dataclasses
import hashlib
import json
import math
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from uavcovert import (  # noqa: E402
    ConfigError, DestinationSnrEstimate, DetectionPoint, GridSpec,
    NumericalError, Scenario, capacity, feasible_interval,
    maximize_covert_rate, optimal_detection,
)
from uavcovert.experiments import (  # noqa: E402
    _MONOTONE_SLACK, _RESULT_COLUMNS, _render_cell, scenario_columns,
)
from uavcovert.model import _canonical_hashes  # noqa: E402
from uavcovert.rates import snrs_at  # noqa: E402

SCENARIOS = ROOT / "scenarios"
PRESETS = ("fig2", "fig3", "fig4", "fig5")


@pytest.fixture(scope="session")
def fig2():
    return Scenario.from_file(SCENARIOS / "fig2.json")


@pytest.fixture(scope="session")
def fig3():
    return Scenario.from_file(SCENARIOS / "fig3.json")


@pytest.fixture(scope="session")
def fig4():
    return Scenario.from_file(SCENARIOS / "fig4.json")


@pytest.fixture(scope="session")
def fig5():
    return Scenario.from_file(SCENARIOS / "fig5.json")


def draw_scenario(rng: np.random.Generator, **overrides) -> Scenario:
    """Random but physically sane scenario for randomized oracles."""
    fields = dict(
        d_a2=rng.uniform(100.0, 1e4),
        d_b2=rng.uniform(100.0, 1e4),
        d_w2=rng.uniform(10.0, 2e3),
        h=rng.uniform(0.0, 200.0),
        beta=rng.uniform(1.0, 30.0),
        p_a=rng.uniform(0.5, 5.0),
        p_u=rng.uniform(1.0, 20.0),
        p_j=rng.uniform(1.0, 20.0),
        p_max=30.0,
        sigma_u2=rng.uniform(1e-3, 0.1),
        sigma_b2=rng.uniform(1e-3, 0.1),
        sigma_w2=rng.uniform(1e-3, 0.1),
        epsilon=rng.uniform(0.005, 0.3),
        r_s=rng.uniform(0.0, 0.2),
    )
    fields.update(overrides)
    return Scenario(**fields)


def draw_log_uniform_scenario(rng: np.random.Generator, **overrides) -> Scenario:
    """Random scenario with every positive field log-uniform over decades,
    well beyond the physical ranges of :func:`draw_scenario`, and r_s = 0
    in one draw of five: for claims that hold for any positive fields."""
    def decades(lo, hi):
        return float(10.0 ** rng.uniform(lo, hi))
    fields = dict(
        d_a2=decades(0, 6), d_b2=decades(0, 6), d_w2=decades(0, 6),
        h=decades(-1, 4), beta=decades(-2, 3), p_a=decades(-3, 3),
        p_u=decades(-3, 3), p_j=decades(-3, 3), p_max=1e3,
        sigma_u2=decades(-12, 1), sigma_b2=decades(-12, 1),
        sigma_w2=decades(-12, 1), epsilon=decades(-4, math.log10(0.5)),
        r_s=0.0 if rng.random() < 0.2 else decades(-4, 1),
    )
    fields.update(overrides)
    return Scenario(**fields)


@dataclasses.dataclass(frozen=True)
class RateReport:
    """SNRs and capacities for one scenario; c_s and r_b are derived."""

    gamma_u: float
    gamma_b: float
    c_u: float
    c_b: float
    c_s: float = dataclasses.field(init=False)
    r_b: float = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "c_s", self.c_b - self.c_u)
        object.__setattr__(self, "r_b", self.c_b)


def rate_report(scenario: Scenario) -> RateReport:
    """The full rate chain for one scenario, one scalar at a time: the
    oracle for the array passes of the rate sweep and the optimizer."""
    s = scenario
    g_u, g_b = snrs_at(s, s.p_u, s.p_j, s.h)
    return RateReport(gamma_u=g_u, gamma_b=g_b,
                      c_u=capacity(g_u), c_b=capacity(g_b))


def min_error_at_height(scenario: Scenario, h: float) -> float:
    """zeta_star as a function of altitude, other fields fixed."""
    return optimal_detection(scenario.replace(h=h)).zeta_star


class NoFeasibleHeight(Exception):
    """No hover height satisfies the scenario's constraints."""


def optimal_height_given_powers(scenario: Scenario) -> tuple[float, float]:
    """Best altitude and covert rate for the scenario's own powers.

    The rate falls with altitude, so the maximizer is the interval's lower
    end.  Raises NoFeasibleHeight when the interval is empty.
    """
    interval = feasible_interval(scenario)
    if interval.empty:
        raise NoFeasibleHeight(
            f"no feasible hover height for p_u={scenario.p_u}, p_j={scenario.p_j}")
    h = interval.h_min
    return h, rate_report(scenario.replace(h=h)).r_b


def total_error_derivative(gamma, scenario: Scenario) -> np.ndarray:
    """Analytic d(zeta)/d(gamma) at each threshold in ``gamma``, piecewise.

    Zero below the noise floor, -exp((sigma_w^2 - gamma)/P_J)/P_J on the
    falling branch, and [exp(tau) - exp((sigma_w^2 - gamma)/P_J)] / P_J
    above gamma_star, where it is strictly positive.
    """
    g = np.asarray(gamma, dtype=float)
    s = scenario
    floor = s.sigma_w2 + s.p_u * s.beta / (s.d_w2 + s.h * s.h)
    fa_exp = np.exp(np.minimum(s.sigma_w2 - g, 0.0) / s.p_j)
    tau_exp = np.exp(np.minimum(floor - g, 0.0) / s.p_j)
    return np.where(
        g <= s.sigma_w2,
        0.0,
        np.where(g <= floor, -fa_exp / s.p_j, (tau_exp - fa_exp) / s.p_j),
    )


@dataclasses.dataclass(frozen=True)
class AuxCoefficients:
    """Coefficients of the destination-SNR denominator polynomial in h^2.

    den = sigma_b^2 phi_1 + (q + sigma_b^2 phi_2) h^2 + p + sigma_b^2 sigma_u^2 h^4
    """

    phi_1: float
    phi_2: float
    p: float
    q: float


def aux_coefficients(scenario: Scenario) -> AuxCoefficients:
    """Expand the per-link denominator of gamma_b (``rates.snrs_at``) in h^2.

    phi_1 = P_J beta d_a^2 + sigma_u^2 d_a^2 d_b^2
    phi_2 = P_J beta + sigma_u^2 (d_a^2 + d_b^2)
    p     = P_u sigma_u^2 d_a^2 beta + P_a sigma_b^2 d_b^2 beta
    q     = P_u sigma_u^2 beta + P_a sigma_b^2 beta
    """
    s = scenario
    return AuxCoefficients(
        phi_1=s.p_j * s.beta * s.d_a2 + s.sigma_u2 * s.d_a2 * s.d_b2,
        phi_2=s.p_j * s.beta + s.sigma_u2 * (s.d_a2 + s.d_b2),
        p=s.p_u * s.sigma_u2 * s.d_a2 * s.beta + s.p_a * s.sigma_b2 * s.d_b2 * s.beta,
        q=s.p_u * s.sigma_u2 * s.beta + s.p_a * s.sigma_b2 * s.beta,
    )


def snr_destination_expanded(scenario: Scenario,
                             coefficients: AuxCoefficients | None = None) -> float:
    """Destination SNR via the h-polynomial denominator form.

    gamma_b = P_u P_a beta^2 /
        (sigma_b^2 phi_1 + sigma_b^2 h^2 phi_2 + h^2 q + p
         + sigma_b^2 sigma_u^2 h^4)

    Algebraically identical to the per-link gamma_b of ``rates.snrs_at``
    with the default coefficients; an explicit ``coefficients`` argument
    lets diagnostics probe variant coefficient sets.
    """
    s = scenario
    c = coefficients if coefficients is not None else aux_coefficients(s)
    h2 = s.h * s.h
    den = (s.sigma_b2 * c.phi_1 + s.sigma_b2 * h2 * c.phi_2
           + h2 * c.q + c.p + s.sigma_b2 * s.sigma_u2 * h2 * h2)
    return s.p_u * s.p_a * s.beta * s.beta / den


def monotone_by_overlay(records: list[dict], y: str, group: str = "p_u",
                        x: str = "h", decreasing: bool = True) -> dict:
    """Per-overlay strict monotonicity flags of column y along column x."""
    flags = {}
    for key in sorted({r[group] for r in records}):
        series = sorted((r[x], r[y]) for r in records if r[group] == key)
        values = [v for _, v in series]
        if decreasing:
            flags[key] = all(b < a for a, b in zip(values, values[1:]))
        else:
            flags[key] = all(b > a for a, b in zip(values, values[1:]))
    return flags


def json_canonical_hash(scenario: Scenario) -> str:
    """The scenario hash as first defined: a JSON dump of the repr-rendered
    fields with sorted keys, then sha256."""
    payload = json.dumps(
        {f.name: repr(getattr(scenario, f.name)) for f in dataclasses.fields(scenario)},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def per_row_rate_oracle(scenario: Scenario, sweep, seed: int = 0) -> list[dict]:
    """The rate sweep as one validated scenario, scalar rate_report and JSON
    hash per row: the reference for the array pass of run_rate_sweep."""
    records = []
    for p_u in sorted(sweep.overlay_values):
        for h in sweep.points():
            sc = scenario.replace(p_u=p_u, h=float(h))
            report = rate_report(sc)
            record = scenario_columns(sc)
            record.update(
                gamma_u=report.gamma_u, gamma_b=report.gamma_b,
                c_u=report.c_u, c_b=report.c_b, c_s=report.c_s, r_b=report.r_b,
                seed=int(seed), scenario_hash=json_canonical_hash(sc),
            )
            records.append(record)
    return records


def per_epsilon_covertness_oracle(scenario: Scenario, sweep, p_u_values,
                                  seed: int = 0) -> list[dict]:
    """The covertness sweep as first written, one validated scenario and
    one maximize_covert_rate call per (overlay, epsilon): the reference for
    the one-kernel-call-per-overlay run_covertness_sweep."""
    if not (0.0 < sweep.start and sweep.stop < 1.0):
        raise ConfigError("epsilon sweep must stay inside (0, 1)")
    epsilons = sweep.points().tolist()
    epsilon_cells = list(map(float.__repr__, epsilons))
    blocks = []
    for p_j in sorted(sweep.overlay_values):
        point_grid = GridSpec(p_u_values=p_u_values, p_j_values=(p_j,))
        results = [maximize_covert_rate(scenario.replace(p_j=p_j, epsilon=eps),
                                        point_grid)
                   for eps in epsilons]
        rates = [r.r_b_star for r in results if r.feasible]
        if any(b < a - _MONOTONE_SLACK for a, b in zip(rates, rates[1:])):
            raise NumericalError(
                f"optimized covert rate not nondecreasing in epsilon at p_j={p_j}")
        base = scenario.replace(p_j=p_j)
        block = scenario_columns(base)
        block.update({name: [getattr(r, name) for r in results]
                      for name in _RESULT_COLUMNS})
        block.update(epsilon=epsilons, h_min=block["h_star"], seed=int(seed),
                     scenario_hash=_canonical_hashes(base, "epsilon", epsilon_cells))
        blocks.append(block)
    return blocks


def expand_rows(blocks: list[dict]) -> list[dict]:
    """The rows of a list of column blocks, one dict per row: a block's
    list columns give one value per row, its other columns the same value
    in every row, and a block without lists is one row."""
    rows = []
    for block in blocks:
        lengths = [len(v) for v in block.values() if type(v) is list]
        for i in range(lengths[0] if lengths else 1):
            rows.append({k: v[i] if type(v) is list else v
                         for k, v in block.items()})
    return rows


def reference_render_csv(records: list[dict], columns: tuple[str, ...]) -> str:
    """The CSV renderer as first written, one row at a time: the reference
    for render_csv, fed the rows of :func:`expand_rows`."""
    lines = [",".join(columns)]
    for record in records:
        lines.append(",".join(_render_cell(record[c]) for c in columns))
    return "\n".join(lines) + "\n"


def los_gain(scenario: Scenario, d_i2: float) -> float:
    """Squared LOS gain beta / (d_i^2 + h^2) at the scenario's altitude,
    associated as the Monte Carlo kernels write it."""
    return scenario.beta / (d_i2 + scenario.h * scenario.h)


def _complex_normal(rng: np.random.Generator, variance: float, n: int) -> np.ndarray:
    scale = math.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def reference_destination_snr(scenario: Scenario, n_symbols: int,
                              seed) -> DestinationSnrEstimate:
    """The signal-level oracle as first written, one fresh array per
    expression: the reference for the in-place simulate_destination_snr."""
    s = scenario
    n = int(n_symbols)
    rng = np.random.default_rng(seed)

    x_a = _complex_normal(rng, 1.0, n)
    x_j = _complex_normal(rng, 1.0, n)
    n_u = _complex_normal(rng, s.sigma_u2, n)
    n_b = _complex_normal(rng, s.sigma_b2, n)

    g_ua, g_ub = los_gain(s, s.d_a2), los_gain(s, s.d_b2)
    amp_ua = math.sqrt(s.p_a * g_ua)
    amp_jam = math.sqrt(s.p_j * g_ub)
    y_u = amp_ua * x_a + amp_jam * x_j + n_u

    g = 1.0 / math.sqrt(s.p_a * g_ua + s.p_j * g_ub + s.sigma_u2)
    x_u = g * y_u
    forwarded_power = float(np.mean(np.abs(x_u) ** 2))

    amp_ub = math.sqrt(s.p_u * g_ub)
    signal = amp_ub * g * amp_ua * x_a
    noise = amp_ub * g * n_u + n_b

    signal_power = float(np.mean(np.abs(signal) ** 2))
    noise_power = float(np.mean(np.abs(noise) ** 2))
    return DestinationSnrEstimate(
        snr=signal_power / noise_power,
        forwarded_power=forwarded_power,
        signal_power=signal_power,
        noise_power=noise_power,
    )


def reference_relay_snr(scenario: Scenario, n_symbols: int,
                        seed) -> tuple[float, float]:
    """Signal-level estimate of the relay SNR gamma_u, and its standard
    error, on a stream of its own: the power of the source term of
    y_u = amp_ua x_a + amp_jam x_j + n_u over the power of the other two.
    The oracle for the closed form of ``rates.snrs_at``; the two means are
    independent, so the error is the delta method's."""
    s = scenario
    n = int(n_symbols)
    rng = np.random.default_rng(seed)
    x_a = _complex_normal(rng, 1.0, n)
    x_j = _complex_normal(rng, 1.0, n)
    n_u = _complex_normal(rng, s.sigma_u2, n)
    amp_ua = math.sqrt(s.p_a * los_gain(s, s.d_a2))
    amp_jam = math.sqrt(s.p_j * los_gain(s, s.d_b2))
    signal = np.abs(amp_ua * x_a) ** 2
    rest = np.abs(amp_jam * x_j + n_u) ** 2
    snr = float(signal.mean() / rest.mean())
    relative_variance = (signal.var() / signal.mean() ** 2
                         + rest.var() / rest.mean() ** 2)
    return snr, snr * math.sqrt(relative_variance / n)


def reference_detection(scenario: Scenario, gamma: float, n_trials: int,
                        seed) -> DetectionPoint:
    """The radiometer Monte Carlo as first written, with a fresh array per
    hypothesis: the reference for the in-place simulate_detection."""
    s = scenario
    rng = np.random.default_rng(seed)
    fade = rng.exponential(1.0, int(n_trials))
    t_silent = s.p_j * fade + s.sigma_w2
    t_active = t_silent + s.p_u * los_gain(s, s.d_w2)
    p_fa = float(np.count_nonzero(t_silent >= gamma)) / n_trials
    p_md = float(np.count_nonzero(t_active < gamma)) / n_trials
    return DetectionPoint(gamma=float(gamma), p_fa=p_fa, p_md=p_md)


def traced_peak_bytes(fn, *args) -> int:
    """Peak bytes allocated under tracemalloc while ``fn(*args)`` runs,
    above what was allocated before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
