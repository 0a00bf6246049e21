import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import uavcovert.detection
from uavcovert import (
    ConfigError, DetectionPoint, NumericalError, Scenario, SweepSpec, error_curve,
    optimal_detection, run_detection_sweep, simulate_detection,
)
from uavcovert.cli import main
from uavcovert.detection import p_false_alarm, p_missed_detection

from conftest import (
    PRESETS, SCENARIOS, draw_scenario, reference_detection, total_error_derivative,
    traced_peak_bytes,
)

finite = dict(allow_nan=False, allow_infinity=False)


def piecewise_zeta(gamma, s):
    """Independent three-branch oracle for the total error probability."""
    peak = s.sigma_w2 + s.p_u * s.beta / (s.d_w2 + s.h * s.h)
    if gamma <= s.sigma_w2:
        return 1.0
    if gamma <= peak:
        return math.exp((s.sigma_w2 - gamma) / s.p_j)
    tau = (peak - gamma) / s.p_j
    return 1.0 - math.exp(tau) + math.exp((s.sigma_w2 - gamma) / s.p_j)


def piecewise_columns(gamma, s):
    """Independent branch-by-branch oracle for (P_FA, P_MD) at one threshold."""
    peak = s.sigma_w2 + s.p_u * s.beta / (s.d_w2 + s.h * s.h)
    p_fa = 1.0 if gamma <= s.sigma_w2 else math.exp((s.sigma_w2 - gamma) / s.p_j)
    p_md = 0.0 if gamma <= peak else 1.0 - math.exp((peak - gamma) / s.p_j)
    return p_fa, p_md


# -- false alarm -------------------------------------------------------------

def test_p_false_alarm_boundary_and_tail():
    assert p_false_alarm(0.01, 5.0, 0.01) == 1.0
    assert p_false_alarm(0.005, 5.0, 0.01) == 1.0
    assert p_false_alarm(1e6, 5.0, 0.01) < 1e-12


def test_p_false_alarm_value():
    # exp((0.01 - 0.5) / 5) = exp(-0.098)
    assert math.isclose(p_false_alarm(0.5, 5.0, 0.01), 0.9066489037539209,
                        rel_tol=1e-14)


def test_p_false_alarm_monte_carlo_oracle():
    # empirical frequency of P_J |h_bw|^2 + sigma_w^2 > gamma
    n = 100_000
    rng = np.random.default_rng(31)
    fades = rng.exponential(1.0, n)
    empirical = float(np.mean(5.0 * fades + 0.01 > 0.5))
    closed = p_false_alarm(0.5, 5.0, 0.01)
    assert abs(empirical - closed) <= 3.0 * math.sqrt(closed * (1 - closed) / n)


def test_p_false_alarm_vectorized_matches_scalar():
    gammas = np.linspace(0.0, 1.0, 17)
    curve = p_false_alarm(gammas, 5.0, 0.01)
    assert np.array_equal(curve, [p_false_alarm(float(g), 5.0, 0.01) for g in gammas])


# -- missed detection --------------------------------------------------------

def test_p_missed_detection_branches():
    h = math.sqrt(1000.0)
    peak = 0.01 + 2.0 * 10.0 / (300.0 + 1000.0)
    assert p_missed_detection(peak, 2.0, 5.0, 10.0, 300.0, h, 0.01) == 0.0
    assert p_missed_detection(0.005, 2.0, 5.0, 10.0, 300.0, h, 0.01) == 0.0
    assert math.isclose(
        p_missed_detection(0.1, 2.0, 5.0, 10.0, 300.0, h, 0.01),
        0.014812279640822323, rel_tol=1e-13)


def test_p_missed_detection_monte_carlo_oracle(fig2):
    n = 100_000
    s = fig2
    rng = np.random.default_rng(32)
    fades = rng.exponential(1.0, n)
    statistic = s.p_u * s.gain_uw2() + s.p_j * fades + s.sigma_w2
    empirical = float(np.mean(statistic < 0.1))
    closed = p_missed_detection(0.1, s.p_u, s.p_j, s.beta, s.d_w2, s.h, s.sigma_w2)
    assert abs(empirical - closed) <= max(
        0.002, 3.0 * math.sqrt(closed * (1 - closed) / n))


# -- total error -------------------------------------------------------------

def test_total_error_equals_piecewise_oracle(fig2):
    opt = optimal_detection(fig2)
    grid = np.concatenate([
        np.linspace(0.0, fig2.sigma_w2, 7),
        np.linspace(fig2.sigma_w2, opt.gamma_star, 7),
        np.linspace(opt.gamma_star, 10 * opt.gamma_star, 23),
    ])
    p_fa, p_md, zeta = error_curve(fig2, grid)
    for gamma, fa, md, z in zip(grid, p_fa, p_md, zeta):
        assert z == pytest.approx(piecewise_zeta(float(gamma), fig2), rel=1e-14)
        assert z == fa + md


def test_total_error_trivial_points(fig2):
    assert error_curve(fig2, [0.0])[2][0] == 1.0
    opt = optimal_detection(fig2)
    assert error_curve(fig2, [opt.gamma_star])[2][0] == pytest.approx(
        opt.zeta_star, rel=1e-14)


def test_total_error_curve_matches_pointwise(fig2):
    gammas = np.linspace(0.0, 0.5, 101)
    curve = error_curve(fig2, gammas)[2]
    assert np.array_equal(curve, [error_curve(fig2, [float(g)])[2][0] for g in gammas])


def exactness_cases():
    """(scenario, thresholds): the fig2 sweep grid on each forward-power
    overlay, and per preset a few thousand random thresholds up to
    12 gamma_star plus the branch edges and their float neighbours."""
    rng = np.random.default_rng(2024)
    fig2_grid = np.linspace(0.0, 1.0, 50)
    fig2 = Scenario.from_file(SCENARIOS / "fig2.json")
    cases = [(fig2.replace(p_u=p_u), fig2_grid) for p_u in (2.0, 3.0, 4.0)]
    for preset in ("fig2", "fig3", "fig4", "fig5"):
        s = Scenario.from_file(SCENARIOS / f"{preset}.json")
        star = optimal_detection(s).gamma_star
        edges = [s.sigma_w2, star]
        edges += [np.nextafter(e, d) for e in edges for d in (0.0, np.inf)]
        cases.append((s, np.concatenate([rng.uniform(0.0, 12.0 * star, 3000),
                                         edges])))
    return cases


def test_error_curve_is_per_element_exact():
    # the detection CSV's bytes rely on one-element and whole-grid calls
    # rounding alike; the oracle's math.exp may differ from np.exp by 1 ULP,
    # so columns in [0, 1] may differ from it by a few 1e-16
    for s, gammas in exactness_cases():
        whole = error_curve(s, gammas)
        assert all(type(c) is np.ndarray and c.shape == gammas.shape for c in whole)
        for i, gamma in enumerate(gammas.tolist()):
            single = error_curve(s, np.asarray([gamma]))
            for column, one in zip(whole, single):
                assert column[i] == one[0]
            fa, md = piecewise_columns(gamma, s)
            assert whole[0][i] == pytest.approx(fa, rel=1e-14, abs=1e-15)
            assert whole[1][i] == pytest.approx(md, rel=1e-14, abs=1e-15)
            assert whole[2][i] == pytest.approx(piecewise_zeta(gamma, s),
                                                rel=1e-14, abs=1e-15)
            assert whole[2][i] == whole[0][i] + whole[1][i]


def test_error_curve_out_of_range_is_numerical_error(fig2, tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.setattr(uavcovert.detection, "p_false_alarm",
                        lambda g, p_j, sigma_w2: np.full(np.shape(g), 0.9))
    monkeypatch.setattr(uavcovert.detection, "p_missed_detection",
                        lambda g, *args: np.full(np.shape(g), 0.9))
    with pytest.raises(NumericalError):
        error_curve(fig2, [0.1, 0.2])
    sweep = SweepSpec(0.0, 1.0, 3, (2.0,))
    with pytest.raises(NumericalError):
        run_detection_sweep(fig2, sweep, n_trials=10, seed=0)
    code = main(["detect-sweep", "--scenario", str(SCENARIOS / "fig2.json"),
                 "--out", str(tmp_path / "x.csv"), "--trials", "10", "--steps", "3"])
    assert code == 4
    assert capsys.readouterr().err.startswith("numerical failure: ")


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frac=st.floats(0.0, 12.0, **finite))
def test_total_error_decomposition_random(seed, frac):
    s = draw_scenario(np.random.default_rng(seed))
    gamma = frac * optimal_detection(s).gamma_star
    p_fa, p_md, zeta = (float(c[0]) for c in error_curve(s, [gamma]))
    assert zeta == p_fa + p_md
    assert 0.0 <= zeta <= 1.0 + 1e-12
    assert zeta == pytest.approx(piecewise_zeta(gamma, s), rel=1e-12)


# -- error-minimizing threshold ------------------------------------------------

def test_optimal_detection_values(fig2):
    opt = optimal_detection(fig2)
    assert math.isclose(opt.gamma_star, 0.025384615384615387, rel_tol=1e-15)
    assert math.isclose(opt.zeta_star, 0.9969278057995146, rel_tol=1e-15)


def test_optimal_detection_grid_search_oracle(fig2):
    opt = optimal_detection(fig2)
    grid = np.linspace(0.0, 10.0 * opt.gamma_star, 100_000)
    zeta = error_curve(fig2, grid)[2]
    best = int(np.argmin(zeta))
    step = grid[1] - grid[0]
    assert abs(grid[best] - opt.gamma_star) <= step + 1e-15
    assert abs(float(zeta[best]) - opt.zeta_star) <= 1e-9


def test_error_curve_has_unique_minimum_on_threshold_grid(fig2):
    grid = np.linspace(0.0, 1.0, 2_000)
    zeta = error_curve(fig2, grid)[2]
    assert int(np.count_nonzero(zeta == zeta.min())) == 1


def test_optimal_detection_limits(fig2):
    weak = optimal_detection(fig2.replace(p_u=1e-9))
    assert math.isclose(weak.gamma_star, fig2.sigma_w2, rel_tol=1e-6)
    assert weak.zeta_star == pytest.approx(1.0, abs=1e-9)
    blinded = optimal_detection(fig2.replace(p_j=1e9, p_max=1e9))
    assert blinded.zeta_star == pytest.approx(1.0, abs=1e-9)


def test_derivative_signs(fig2):
    s = fig2
    opt = optimal_detection(s)
    below = np.linspace(0.0, s.sigma_w2 * (1 - 1e-9), 50)
    assert np.all(total_error_derivative(below, s) == 0.0)
    falling = np.linspace(s.sigma_w2 * (1 + 1e-9), opt.gamma_star, 200)
    assert np.all(total_error_derivative(falling, s) < 0.0)
    rising = np.linspace(opt.gamma_star * (1 + 1e-9), 20 * opt.gamma_star, 500)
    assert np.all(total_error_derivative(rising, s) > 0.0)


def test_derivative_matches_finite_differences(fig2):
    s = fig2
    opt = optimal_detection(s)
    for gamma in np.linspace(1.5 * opt.gamma_star, 8 * opt.gamma_star, 9):
        eps = 1e-7
        numeric = (piecewise_zeta(gamma + eps, s) - piecewise_zeta(gamma - eps, s)) / (2 * eps)
        assert float(total_error_derivative(gamma, s)) == pytest.approx(
            numeric, rel=1e-5, abs=1e-12)


# -- Monte Carlo mirror ------------------------------------------------------

def test_simulate_detection_gamma_zero(fig2):
    point = simulate_detection(fig2, 0.0, 2000, seed=5)
    assert point.p_fa == 1.0
    assert point.p_md == 0.0
    assert point.zeta == 1.0


def test_simulate_detection_deterministic(fig2):
    a = simulate_detection(fig2, 0.05, 50_000, seed=17)
    b = simulate_detection(fig2, 0.05, 50_000, seed=17)
    assert (a.p_fa, a.p_md, a.zeta) == (b.p_fa, b.p_md, b.zeta)
    c = simulate_detection(fig2, 0.05, 50_000, seed=18)
    assert (a.p_fa, a.p_md) != (c.p_fa, c.p_md)


def test_simulate_detection_tracks_closed_form(fig2):
    n = 100_000
    for gamma, seed in ((0.02, 1), (0.05, 2), (0.3, 3)):
        p_fa, p_md, zeta = (float(c[0]) for c in error_curve(fig2, [gamma]))
        mc = simulate_detection(fig2, gamma, n, seed=seed)
        tol = max(0.005, 3.0 * math.sqrt(zeta * (1 - zeta) / n))
        assert abs(mc.zeta - zeta) <= tol
        # conditional rates are validated separately, not only their sum
        assert abs(mc.p_fa - p_fa) <= 0.005 + 3.0 * math.sqrt(p_fa * (1 - p_fa) / n)
        assert abs(mc.p_md - p_md) <= 0.005 + 3.0 * math.sqrt(p_md * (1 - p_md) / n)


def test_simulate_detection_invalid_trials(fig2):
    with pytest.raises(ConfigError):
        simulate_detection(fig2, 0.1, 0, seed=1)
    with pytest.raises(ConfigError):
        simulate_detection(fig2, 0.1, -5, seed=1)


def test_simulate_detection_rejects_bool(fig2):
    with pytest.raises(ConfigError):
        simulate_detection(fig2, 0.1, True, seed=1)


@pytest.mark.parametrize("preset", PRESETS)
def test_simulate_detection_matches_reference(preset):
    # thresholds at the noise floor and gamma_star, and their neighbours,
    # where one rounding difference would flip a count
    s = Scenario.from_file(SCENARIOS / f"{preset}.json")
    gammas = []
    for edge in (0.0, s.sigma_w2, optimal_detection(s).gamma_star):
        gammas += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
    for entropy in (0, 4, 11):
        for n in (1, 2, 7, 1000):
            for gi, gamma in enumerate(gammas):
                seed = [entropy, 0, gi]
                got = simulate_detection(s, gamma, n, np.random.SeedSequence(seed))
                want = reference_detection(s, gamma, n, np.random.SeedSequence(seed))
                assert got == want, (entropy, n, gamma)


def test_simulate_detection_footprint(fig2):
    # one float array plus a boolean mask per count
    n = 100_000
    gamma = optimal_detection(fig2).gamma_star
    peak = traced_peak_bytes(simulate_detection, fig2, gamma, n, 3)
    assert peak <= 2 * 8 * n


def test_detection_point_guards():
    with pytest.raises(ValueError):
        DetectionPoint(gamma=0.1, p_fa=1.2, p_md=0.0)
    with pytest.raises(ValueError):
        DetectionPoint(gamma=0.1, p_fa=0.9, p_md=0.9)
    point = DetectionPoint(gamma=0.1, p_fa=0.25, p_md=0.5)
    assert point.zeta == 0.75
