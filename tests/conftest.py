import dataclasses
import decimal
import hashlib
import json
import math
import pathlib
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from uavcovert import (  # noqa: E402
    ConfigError, NumericalError, OptimizationResult, Scenario,
)
from uavcovert import experiments  # noqa: E402
from uavcovert.detection import optimal_detection  # noqa: E402
from uavcovert.constraints import SEARCH_CEILING_M, feasibility_grid  # noqa: E402
from uavcovert.experiments import _MONOTONE_SLACK, _RESULT_COLUMNS  # noqa: E402
from uavcovert.model import _canonical_hashes  # noqa: E402
from uavcovert.optimizer import _maximize_over_epsilons  # noqa: E402
from uavcovert.rates import snrs_at  # noqa: E402

SCENARIOS = ROOT / "scenarios"
PRESETS = ("fig2", "fig3", "fig4", "fig5")

# Every property draws the same examples on every run and keeps no example
# database, so tier-1 passes or fails the same way each time.
settings.register_profile("derandomized", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("derandomized")


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


@pytest.fixture
def busy_switching():
    """Switch threads every microsecond while the test runs, so that a
    result that depended on scheduling would show it."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def forbid_work(monkeypatch) -> None:
    """Make the runners' work functions raise, so a test sees the argument
    checks that run first and no bad count reaches an allocation."""
    def work(*args, **kwargs):
        raise AssertionError("work ran before the argument checks")
    for name in ("error_curve", "simulate_detection", "simulate_destination_snr",
                 "_maximize_over_epsilons", "snrs_at"):
        monkeypatch.setattr(experiments, name, work)


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


def draw_low_noise_scenario(rng: np.random.Generator, **overrides) -> Scenario:
    """Random scenario with high gains, faint noise and covertness so tight
    that the covert floor nearly always lies far above the 1e6 m search
    ceiling: beta 30-60 dB, each noise -110 to -80 dBW, epsilon 1e-15 to
    1e-9, r_s 1e-9 to 1e-3, each d^2 10 to 1e4 m^2 and p_max 0.1 to 31.6 W,
    all log-uniform, with each power a U(0.05, 1) share of p_max."""
    def decades(lo, hi):
        return float(10.0 ** rng.uniform(lo, hi))
    p_max = decades(-1, 1.5)
    fields = dict(
        d_a2=decades(1, 4), d_b2=decades(1, 4), d_w2=decades(1, 4), h=0.0,
        beta=decades(3, 6), p_a=p_max * rng.uniform(0.05, 1.0),
        p_u=p_max * rng.uniform(0.05, 1.0), p_j=p_max * rng.uniform(0.05, 1.0),
        p_max=p_max, sigma_u2=decades(-11, -8), sigma_b2=decades(-11, -8),
        sigma_w2=decades(-11, -8), epsilon=decades(-15, -9),
        r_s=decades(-9, -3),
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
    """The full rate chain for one scenario, one scalar at a time, each
    capacity ``math.log2(1.0 + g)``: the oracle for the array passes of the
    rate sweep and the optimizer."""
    s = scenario
    g_u, g_b = snrs_at(s, s.p_u, s.p_j, s.h)
    return RateReport(gamma_u=g_u, gamma_b=g_b,
                      c_u=math.log2(1.0 + g_u), c_b=math.log2(1.0 + g_b))


_EXACT = decimal.Context(prec=60)


def exact_exp(x: float) -> decimal.Decimal:
    """e**x of the float ``x`` to 60 significant digits, correctly rounded
    (decimal's exp is): the truth the detection closed forms' ``math.exp``
    is measured against.  ``float()`` of it is the correctly rounded
    double, since the two roundings could disagree only if e**x lay within
    1e-59 relative of a half-way point between two doubles."""
    return _EXACT.exp(decimal.Decimal(x))


def exact_log2(x: float) -> decimal.Decimal:
    """log2 of the float ``x`` > 0 as ln(x) / ln(2) in 60-digit
    ``decimal``: the truth the capacities' ``math.log2`` is measured
    against.  Both logarithms and the quotient carry a relative error near
    1e-59, so ``float()`` of it is the correctly rounded double but where
    log2(x) lies that close to a half-way point between two doubles."""
    return _EXACT.divide(_EXACT.ln(decimal.Decimal(x)),
                         _EXACT.ln(decimal.Decimal(2)))


def exact_log1p(x: float) -> decimal.Decimal:
    """ln(1 + x) of the float -1 < ``x`` < 1 in 60-digit ``decimal``: the
    truth the covert floor's ``math.log1p(-epsilon)`` is measured against.
    1 + x rounds to 60 digits, an absolute error below 1e-59, so where
    |x| >= 1e-30 the logarithm's relative error stays below 1e-28 and
    ``float()`` of it is the correctly rounded double but where ln(1 + x)
    lies that close to a half-way point between two doubles."""
    return _EXACT.ln(_EXACT.add(1, decimal.Decimal(x)))


def exact_pow10(q: float) -> decimal.Decimal:
    """10**q of the float ``q`` to 60 significant digits: the truth
    ``db_to_linear(x)`` is measured against, with ``q`` the float quotient
    x / 10.0 that it raises 10 to."""
    return _EXACT.power(decimal.Decimal(10), decimal.Decimal(q))


def covert_floor(p_u: float, p_j: float, beta: float, epsilon: float,
                 d_w2: float) -> float:
    """Covert floor h_min = sqrt(max(-P_u beta / (P_J ln(1 - epsilon)) -
    d_w^2, 0)) in plain floats, one ``math`` call or operator at a time:
    the oracle for the h_min of :func:`feasibility_grid`.  inf where
    P_J ln(1 - epsilon) underflows to 0 or the quotient overflows; raises
    NumericalError where P_u beta and P_J ln(1 - epsilon) both overflow,
    since inf / inf is undefined."""
    numerator, denominator = -p_u * beta, p_j * math.log1p(-epsilon)
    if math.isinf(numerator) and math.isinf(denominator):
        raise NumericalError("covert floor undefined: inf / inf")
    if denominator == 0.0:
        return math.inf
    return math.sqrt(max(numerator / denominator - d_w2, 0.0))


def one_point_verdict(scenario: Scenario) -> tuple[float, bool]:
    """``(h_min, feasible)`` of :func:`feasibility_grid` at the scenario's
    own powers and epsilon: the grid the optimizer runs, on one point."""
    s = scenario
    h_min, _, _, feasible = feasibility_grid(s, (s.p_u,), (s.p_j,), (s.epsilon,))
    return h_min.item(), feasible.item()


def exact_snrs(s, p_u, p_j, x):
    """``rates.snrs_at``'s ``(gamma_u, gamma_b)`` at x = h^2, written out in
    Fractions of the scenario's float fields and of the given powers."""
    a, b, beta, p_a, s_u, s_b = map(Fraction, (
        s.d_a2, s.d_b2, s.beta, s.p_a, s.sigma_u2, s.sigma_b2))
    g_a, g_b = beta / (a + x), beta / (b + x)
    gamma_u = p_a * g_a / (p_j * g_b + s_u)
    gamma_b = p_u * p_a * g_b * g_a / ((p_u * s_u + p_j * s_b) * g_b
                                       + p_a * g_a * s_b + s_b * s_u)
    return gamma_u, gamma_b


def exact_detection(s) -> tuple[Fraction, Fraction, Fraction]:
    """``detection.optimal_detection``'s ``(gamma_star, zeta_star)`` and its
    exponent x = P_u beta / (P_J (d_w^2 + h^2)), written out in Fractions of
    the scenario's float fields: gamma_star and x exact, zeta_star = e**-x
    to 60 significant digits."""
    p_u, p_j, beta, d_w2, h, sigma_w2 = map(Fraction, (
        s.p_u, s.p_j, s.beta, s.d_w2, s.h, s.sigma_w2))
    signal = p_u * beta / (d_w2 + h * h)
    x = signal / p_j
    exponent = _EXACT.divide(-decimal.Decimal(x.numerator), decimal.Decimal(x.denominator))
    return sigma_w2 + signal, Fraction(_EXACT.exp(exponent)), x


def ulps(got: float, exact: Fraction) -> float:
    """|got - exact| in units in the last place of exact rounded to a float."""
    return float(abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact))))


def box_axis(p_max: float, steps: int) -> tuple[float, ...]:
    """The power axis maximize_covert_rate searches: ``steps`` values from
    p_max / steps up to p_max, as Python floats."""
    return tuple(np.linspace(p_max / steps, p_max, steps).tolist())


def search(scenario: Scenario, p_u_values, p_j_values) -> OptimizationResult:
    """maximize_covert_rate's search over the given power axes, each
    ascending inside (0, p_max]: the one-point, edge and sub-box grids
    that no public call takes."""
    for axis in (p_u_values, p_j_values):
        assert axis and 0.0 < axis[0] and axis[-1] <= scenario.p_max, axis
        assert all(a < b for a, b in zip(axis, axis[1:])), axis
    (result,) = _maximize_over_epsilons(scenario, tuple(p_u_values), tuple(p_j_values),
                                        (scenario.epsilon,))
    return result


# Heights above an edge point's covert floor that cap_edge_supremum scans
# when the floor itself is insecure: 1 cm up to the 1e6 m search ceiling.
_EDGE_SCAN_OFFSETS = np.geomspace(1e-2, 1e6, 64)


def cap_edge_supremum(scenario: Scenario, steps: int = 500) -> float:
    """Best covert rate R_b = C_b on the power-cap edges p_u = p_max and
    p_j = p_max, each sampled at p_max k / steps for k = 1..steps: the
    upper oracle for the optimizer's grid argmax; -inf if no sampled edge
    point has a secure altitude above its covert floor.

    Scaling both powers by t >= 1 keeps the covert floor, a function of
    p_u / p_j, and raises gamma_b and lowers gamma_u at every altitude.  So
    a feasible point stays feasible at its altitude with a higher rate,
    and the best rate over [0, p_max]^2 lies on the two cap edges.  Each
    edge point's covert floor h_min is written out here; its best altitude
    is h_min where C_s(h_min) >= r_s, and otherwise the lowest secure
    height of a dense scan above h_min.  Neither the one-crossing lemma
    nor feasibility_grid is used.
    """
    s = scenario
    other = np.arange(1, steps + 1) * (s.p_max / steps)
    cap = np.full(steps, s.p_max)
    p_u, p_j = np.concatenate([cap, other]), np.concatenate([other, cap])
    with np.errstate(over="ignore", divide="ignore"):
        radicand = -p_u * s.beta / (p_j * math.log1p(-s.epsilon)) - s.d_w2
    h_min = np.sqrt(np.maximum(radicand, 0.0))
    covert = np.isfinite(h_min)
    p_u, p_j, h_min = p_u[covert], p_j[covert], h_min[covert]

    def margin_and_gamma_b(p_u, p_j, h):
        gamma_u, gamma_b = snrs_at(s, p_u, p_j, h)
        return np.log2(1.0 + gamma_b) - np.log2(1.0 + gamma_u) - s.r_s, gamma_b

    margin, gamma_b = margin_and_gamma_b(p_u, p_j, h_min)
    best = gamma_b[margin >= 0.0].tolist()
    low = margin < 0.0
    margin, gamma_b = margin_and_gamma_b(p_u[low, None], p_j[low, None],
                                         h_min[low, None] + _EDGE_SCAN_OFFSETS)
    secure = margin >= 0.0
    rows = np.flatnonzero(secure.any(axis=1))
    best += gamma_b[rows, secure[rows].argmax(axis=1)].tolist()
    return max((math.log2(1.0 + g) for g in best), default=-math.inf)


# Heights above a covert floor that scan_feasibility samples: the floor
# itself, then 1 mm up to 1e6 m above it, log-spaced.
_FLOOR_SCAN_OFFSETS = np.concatenate(([0.0], np.geomspace(1e-3, 1e6, 2000)))


def scan_feasibility(scenario: Scenario) -> tuple[bool | None, bool | None]:
    """``(ground secure, feasible)`` of the scenario's own powers by a dense
    altitude scan: the oracle for :func:`feasibility_grid`'s verdict.

    The security margin C_b - C_u - r_s is taken with ``math.log2`` on
    each 1 + gamma on the ground and at the :func:`covert_floor` h_min
    plus each of ``_FLOOR_SCAN_OFFSETS`` up to SEARCH_CEILING_M (h_min
    alone when it lies above).  A margin within the rounding guard
    1e-12 (C_b + C_u + r_s) + 1e-14 of 0 decides nothing.  The ground is
    secure where its margin is above the guard, and the point is feasible
    where some scanned margin above h_min is; either is None where the
    guard leaves it open.  An infinite h_min is infeasible.  Neither the
    one-crossing lemma nor the security ratio nor feasibility_grid is used.
    """
    s = scenario
    h_min = covert_floor(s.p_u, s.p_j, s.beta, s.epsilon, s.d_w2)
    heights = [0.0]
    if math.isfinite(h_min):
        heights += [h for h in (h_min + _FLOOR_SCAN_OFFSETS).tolist()
                    if h <= max(h_min, SEARCH_CEILING_M)]
    signs = []
    for g_u, g_b in zip(*(g.tolist() for g in snrs_at(
            s, s.p_u, s.p_j, np.array(heights)))):
        c_u, c_b = math.log2(1.0 + g_u), math.log2(1.0 + g_b)
        margin = c_b - c_u - s.r_s
        sure = abs(margin) > 1e-12 * (c_b + c_u + s.r_s) + 1e-14
        signs.append(margin > 0.0 if sure else None)
    above = signs[1:]
    feasible = True if True in above else (None if None in above else False)
    return signs[0], feasible


def min_error_at_height(scenario: Scenario, h: float) -> float:
    """zeta_star as a function of altitude, other fields fixed."""
    return optimal_detection(scenario.replace(h=h))[1]


class NoFeasibleHeight(Exception):
    """No hover height satisfies the scenario's constraints."""


def optimal_height_given_powers(scenario: Scenario) -> tuple[float, float]:
    """Best altitude and covert rate for the scenario's own powers.

    The rate falls with altitude, so the maximizer is the feasible
    interval's lower end, the covert floor.  Raises NoFeasibleHeight when
    the one-point grid verdict is infeasible.
    """
    h, feasible = one_point_verdict(scenario)
    if not feasible:
        raise NoFeasibleHeight(
            f"no feasible hover height for p_u={scenario.p_u}, p_j={scenario.p_j}")
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


def leading_scenario_columns(scenario: Scenario) -> dict:
    """Every CSV row's leading columns, the full scenario in field order,
    stated here so the oracles check the runners' layout independently."""
    return {f.name: getattr(scenario, f.name) for f in dataclasses.fields(Scenario)}


def per_row_rate_oracle(scenario: Scenario, sweep, seed: int = 0) -> list[dict]:
    """The rate sweep as one validated scenario, scalar rate_report and JSON
    hash per row: the reference for the array pass of run_rate_sweep."""
    records = []
    for p_u in sorted(sweep.overlay_values):
        for h in sweep.points():
            sc = scenario.replace(p_u=p_u, h=float(h))
            report = rate_report(sc)
            record = leading_scenario_columns(sc)
            record.update(
                gamma_u=report.gamma_u, gamma_b=report.gamma_b,
                c_u=report.c_u, c_b=report.c_b, c_s=report.c_s, r_b=report.r_b,
                seed=int(seed), scenario_hash=json_canonical_hash(sc),
            )
            records.append(record)
    return records


def per_epsilon_covertness_oracle(scenario: Scenario, sweep, p_u_steps: int,
                                  seed: int = 0) -> list[dict]:
    """The covertness sweep as first written, one validated scenario and
    one one-epsilon search per (overlay, epsilon): the reference for the
    one-kernel-call-per-overlay run_covertness_sweep."""
    if not (0.0 < sweep.start and sweep.stop < 1.0):
        raise ConfigError("epsilon sweep must stay inside (0, 1)")
    p_u_values = box_axis(scenario.p_max, p_u_steps)
    epsilons = sweep.points().tolist()
    epsilon_cells = list(map(float.__repr__, epsilons))
    blocks = []
    for p_j in sorted(sweep.overlay_values):
        results = [search(scenario.replace(p_j=p_j, epsilon=eps), p_u_values, (p_j,))
                   for eps in epsilons]
        rates = [r.r_b_star for r in results if r.feasible]
        if any(b < a - _MONOTONE_SLACK for a, b in zip(rates, rates[1:])):
            raise NumericalError(
                f"optimized covert rate not nondecreasing in epsilon at p_j={p_j}")
        base = scenario.replace(p_j=p_j)
        cells = {name: [getattr(r, name) for r in results] for name in _RESULT_COLUMNS}
        block = leading_scenario_columns(base)
        block.update(epsilon=epsilons, feasible=cells["feasible"], h_min=cells["h_star"])
        block.update(cells, seed=int(seed),
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


def reference_cell(value) -> str:
    """One CSV cell by README's rule, stated here apart from the package's:
    a bool, numpy's too, as true/false, any other float as the repr of the
    Python float it holds, an int, numpy's too, or a str as its str, which
    must hold none of , " CR LF; anything else is a ValueError."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    text = str(value)
    if isinstance(value, (int, np.integer)) or (
            isinstance(value, str) and not set(text) & set(',"\r\n')):
        return text
    raise ValueError(f"not a CSV cell: {value!r}")


def reference_render_csv(records: list[dict], columns: tuple[str, ...]) -> str:
    """The CSV renderer as first written, one row at a time: the reference
    for render_csv, fed the rows of :func:`expand_rows`."""
    lines = [",".join(columns)]
    for record in records:
        lines.append(",".join(reference_cell(record[c]) for c in columns))
    return "\n".join(lines) + "\n"


def los_gain(scenario: Scenario, d_i2: float) -> float:
    """Squared LOS gain beta / (d_i^2 + h^2) at the scenario's altitude,
    associated as the Monte Carlo kernels write it."""
    return scenario.beta / (d_i2 + scenario.h * scenario.h)


def _complex_normal(rng: np.random.Generator, variance: float, n: int) -> np.ndarray:
    scale = math.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def reference_destination_snr(scenario: Scenario, n_symbols: int,
                              seed) -> tuple[float, float]:
    """The signal-level oracle as first written, one fresh array per
    expression: the reference ``(snr, forwarded_power)`` for the in-place
    simulate_destination_snr."""
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
    return signal_power / noise_power, forwarded_power


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


def reference_detection(scenario: Scenario, gamma: float, n_trials: int, seed):
    """The radiometer Monte Carlo as first written, with a fresh array per
    hypothesis: the reference for the in-place simulate_detection, as its
    (p_fa, p_md, zeta) triple."""
    s = scenario
    rng = np.random.default_rng(seed)
    fade = rng.exponential(1.0, int(n_trials))
    t_silent = s.p_j * fade + s.sigma_w2
    t_active = t_silent + s.p_u * los_gain(s, s.d_w2)
    p_fa = float(np.count_nonzero(t_silent >= gamma)) / n_trials
    p_md = float(np.count_nonzero(t_active < gamma)) / n_trials
    return p_fa, p_md, p_fa + p_md


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
