import dataclasses
import itertools
import math

import numpy as np
import pytest

import uavcovert.constraints
import uavcovert.optimizer
from uavcovert.constraints import SEARCH_CEILING_M
from uavcovert import (
    ConfigError, GridSpec, NumericalError,
    OptimizationResult, Scenario, covert_height_bound, feasible_interval,
    maximize_covert_rate, secrecy_rate_at_height,
)

from conftest import (
    NoFeasibleHeight, draw_log_uniform_scenario, draw_scenario,
    min_error_at_height, optimal_height_given_powers, rate_report,
)


# -- grid spec ---------------------------------------------------------------

def test_gridspec_validation():
    with pytest.raises(ConfigError):
        GridSpec(p_u_values=(), p_j_values=(1.0,))
    with pytest.raises(ConfigError):
        GridSpec(p_u_values=(1.0, 1.0), p_j_values=(1.0,))
    with pytest.raises(ConfigError):
        GridSpec(p_u_values=(2.0, 1.0), p_j_values=(1.0,))
    with pytest.raises(ConfigError):
        GridSpec(p_u_values=(0.0, 1.0), p_j_values=(1.0,))
    with pytest.raises(ConfigError):
        GridSpec.linear(10.0, 10.0, p_u_steps=0)


def test_gridspec_linear():
    grid = GridSpec.linear(10.0, 30.0, p_u_steps=5, p_j_steps=1)
    assert grid.p_u_values == (2.0, 4.0, 6.0, 8.0, 10.0)
    assert grid.p_j_values == (30.0,)


# -- height closure ----------------------------------------------------------

def test_optimal_height_is_interval_left_end(fig5):
    s = fig5.replace(p_u=10.0, p_j=5.0)
    h_star, r_b = optimal_height_given_powers(s)
    interval = feasible_interval(s)
    assert h_star == interval.h_min
    assert r_b == rate_report(s.replace(h=h_star)).r_b


def test_optimal_height_beats_interior_grid(fig5):
    s = fig5.replace(p_u=10.0, p_j=5.0)
    h_star, r_b = optimal_height_given_powers(s)
    interval = feasible_interval(s)
    for h in np.linspace(interval.h_min, interval.h_max, 40):
        assert rate_report(s.replace(h=float(h))).r_b <= r_b + 1e-12


def test_optimal_height_infeasible_raises(fig4):
    with pytest.raises(NoFeasibleHeight):
        optimal_height_given_powers(fig4)


def test_relaxing_covertness_lowers_height_and_raises_rate(fig5):
    s_tight = fig5.replace(p_u=10.0, p_j=5.0, epsilon=0.01)
    s_slack = fig5.replace(p_u=10.0, p_j=5.0, epsilon=0.02)
    h_tight, rb_tight = optimal_height_given_powers(s_tight)
    h_slack, rb_slack = optimal_height_given_powers(s_slack)
    assert h_slack < h_tight
    assert rb_slack > rb_tight


# -- grid search -------------------------------------------------------------

def test_maximize_single_point_grid_composition(fig5):
    s = fig5.replace(p_u=10.0, p_j=5.0)
    grid = GridSpec(p_u_values=(10.0,), p_j_values=(5.0,))
    result = maximize_covert_rate(s, grid)
    h_star, r_b = optimal_height_given_powers(s)
    assert result.feasible
    assert result.p_u_star == 10.0 and result.p_j_star == 5.0
    assert result.h_star == h_star
    assert result.r_b_star == r_b
    assert result.c_s_star == rate_report(s.replace(h=h_star)).c_s


def test_maximize_refined_grid_never_worse(fig5):
    fine_pu = tuple(float(v) for v in np.linspace(5.0, 30.0, 11))
    fine_pj = tuple(float(v) for v in np.linspace(5.0, 15.0, 5))
    coarse = GridSpec(p_u_values=fine_pu[::2], p_j_values=fine_pj[::2])
    fine = GridSpec(p_u_values=fine_pu, p_j_values=fine_pj)
    r_coarse = maximize_covert_rate(fig5, coarse)
    r_fine = maximize_covert_rate(fig5, fine)
    assert r_fine.r_b_star >= r_coarse.r_b_star


def test_maximize_jamming_helps_at_fixed_forward_power(fig5):
    # with the forward power pinned, more jamming lowers the covert height
    # floor and suppresses the relay's eavesdropping, so the optimized rate
    # climbs across the jamming overlays
    rates = []
    for p_j in (5.0, 10.0, 15.0):
        result = maximize_covert_rate(
            fig5, GridSpec(p_u_values=(20.0,), p_j_values=(p_j,)))
        assert result.feasible
        rates.append(result.r_b_star)
    assert rates[0] < rates[1] < rates[2]


def test_maximize_infeasible_everywhere(fig4):
    # at 1-2 W forward power the relay out-hears the receiver everywhere,
    # so the security constraint kills every grid point
    grid = GridSpec(p_u_values=(1.0, 2.0), p_j_values=(2.0, 5.0))
    for p_u in grid.p_u_values:
        for p_j in grid.p_j_values:
            assert feasible_interval(fig4.replace(p_u=p_u, p_j=p_j)).empty
    result = maximize_covert_rate(fig4, grid)
    assert not result.feasible
    assert math.isnan(result.r_b_star)
    assert result.active_constraints == ()


def test_maximize_infinite_covert_floor_is_infeasible(fig5):
    # no altitude is covert enough although C_s never drops under r_s; this
    # was once reported feasible at h_star = inf with r_b_star = 0
    s = fig5.replace(sigma_u2=1e-12, sigma_b2=1e-12, d_a2=100.0, d_b2=100.0,
                     d_w2=10.0, r_s=0.0, epsilon=1e-320)
    result = maximize_covert_rate(s, GridSpec.linear(30.0, 30.0, 3, 3))
    assert not result.feasible and math.isnan(result.h_star)


def test_maximize_skips_grid_points_above_cap(fig5):
    capped = fig5.replace(p_max=10.0, p_u=2.0, p_j=5.0)
    grid = GridSpec(p_u_values=(5.0, 10.0, 25.0), p_j_values=(5.0,))
    result = maximize_covert_rate(capped, grid)
    assert result.feasible
    assert result.p_u_star <= 10.0


def test_maximize_result_satisfies_constraints(fig5):
    grid = GridSpec.linear(fig5.p_max, 15.0, p_u_steps=8, p_j_steps=3)
    result = maximize_covert_rate(fig5, grid)
    assert result.feasible
    s = fig5.replace(p_u=result.p_u_star, p_j=result.p_j_star)
    assert min_error_at_height(s, result.h_star) >= 1.0 - s.epsilon - 1e-12
    assert secrecy_rate_at_height(s, result.h_star) >= s.r_s - 1e-8
    assert result.p_u_star <= fig5.p_max and result.p_j_star <= fig5.p_max
    assert result.r_b_star == rate_report(
        s.replace(h=result.h_star)).r_b


def test_maximize_active_constraint_flags(fig5):
    grid = GridSpec.linear(fig5.p_max, 15.0, p_u_steps=6, p_j_steps=3)
    result = maximize_covert_rate(fig5, grid)
    assert result.feasible
    if result.h_star > 0.0:
        assert "covert" in result.active_constraints
        s = fig5.replace(p_u=result.p_u_star, p_j=result.p_j_star)
        assert min_error_at_height(s, result.h_star) == pytest.approx(
            1.0 - fig5.epsilon, abs=1e-9)
    if result.p_u_star == fig5.p_max:
        assert "p_u_cap" in result.active_constraints
    else:
        assert "p_u_cap" not in result.active_constraints


def test_maximize_deterministic(fig5):
    grid = GridSpec.linear(fig5.p_max, 15.0, p_u_steps=7, p_j_steps=3)
    a = maximize_covert_rate(fig5, grid)
    b = maximize_covert_rate(fig5, grid)
    assert a == b


def test_endpoint_optimality_randomized():
    # the interval's lower end is never beaten by an interior altitude
    rng = np.random.default_rng(424242)
    done = 0
    while done < 100:
        s = draw_scenario(rng, d_w2=float(rng.uniform(5.0, 300.0)),
                          epsilon=float(rng.uniform(0.005, 0.1)),
                          r_s=float(rng.uniform(0.0, 0.05)))
        interval = feasible_interval(s)
        if interval.empty:
            continue
        h_star, r_b = optimal_height_given_powers(s)
        assert h_star == interval.h_min
        top = interval.h_max if math.isfinite(interval.h_max) \
            else interval.h_min + 500.0
        for h in np.linspace(interval.h_min, top, 25):
            assert rate_report(s.replace(h=float(h))).r_b <= r_b + 1e-12
        done += 1


# -- array grid pass vs the per-point scalar solver --------------------------

def per_point_oracle(scenario, grid):
    """The optimizer as a plain loop: feasible_interval and rate_report on
    every in-cap grid point, in scan order, with strict improvement."""
    best = None
    for p_u in grid.p_u_values:
        if p_u > scenario.p_max:
            continue
        for p_j in grid.p_j_values:
            if p_j > scenario.p_max:
                continue
            candidate = scenario.replace(p_u=p_u, p_j=p_j)
            interval = feasible_interval(candidate)
            if interval.empty:
                continue
            h = interval.h_min
            report = rate_report(candidate.replace(h=h))
            if best is None or report.r_b > best[0]:
                best = (report.r_b, p_u, p_j, h, report.c_s, interval.h_max)

    if best is None:
        return OptimizationResult(
            p_u_star=math.nan, p_j_star=math.nan, h_star=math.nan,
            r_b_star=math.nan, c_s_star=math.nan, feasible=False,
            active_constraints=(), h_max=math.nan)
    r_b, p_u, p_j, h, c_s, h_max = best
    tol, cap = 1e-9, scenario.p_max
    active = []
    if h > 0.0:
        active.append("covert")
    if math.isfinite(h_max) and h >= h_max - tol * max(1.0, h_max):
        active.append("security")
    if p_u >= cap - tol * cap:
        active.append("p_u_cap")
    if p_j >= cap - tol * cap:
        active.append("p_j_cap")
    return OptimizationResult(
        p_u_star=p_u, p_j_star=p_j, h_star=h, r_b_star=r_b, c_s_star=c_s,
        feasible=True, active_constraints=tuple(active), h_max=h_max)


def assert_same_result(got, want):
    """== on every field, NaN matching NaN."""
    for field in dataclasses.fields(OptimizationResult):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, float) and math.isnan(b):
            assert math.isnan(a), field.name
        else:
            assert a == b, (field.name, a, b)


def count_scalar_solves(monkeypatch):
    """Count the optimizer's feasible_interval calls: one per uncertain
    point (the argmax is checked without it)."""
    calls = []

    def counted(scenario):
        calls.append((scenario.p_u, scenario.p_j))
        return feasible_interval(scenario)
    monkeypatch.setattr(uavcovert.optimizer, "feasible_interval", counted)
    return calls


@pytest.mark.parametrize("log2_skew", [0.0, math.inf, -math.inf])
def test_grid_pass_matches_per_point_oracle(monkeypatch, log2_skew):
    # a skew moves np.log2 results one ULP, alternately up and down, as
    # another libm may: the guard band must still keep every verdict equal
    # to the scalar solver's
    if log2_skew:
        log2, turn = np.log2, itertools.count()
        monkeypatch.setattr(np, "log2", lambda x: np.nextafter(
            log2(x), log2_skew if next(turn) % 2 else -log2_skew))
    calls = count_scalar_solves(monkeypatch)
    rng = np.random.default_rng(20240309)
    kinds = {"random": 0, "r_s=0": 0, "guard": 0, "feasible": 0}
    fallbacks = {"random": 0, "r_s=0": 0, "guard": 0}
    for trial in range(240):
        s = draw_scenario(rng, d_w2=float(rng.uniform(5.0, 300.0)),
                          epsilon=float(rng.uniform(0.002, 0.1)),
                          r_s=float(rng.uniform(0.0, 0.05)))
        grid = GridSpec.linear(
            float(rng.uniform(5.0, 40.0)), float(rng.uniform(5.0, 40.0)),
            p_u_steps=int(rng.integers(1, 8)), p_j_steps=int(rng.integers(1, 8)))
        kind = ("random", "r_s=0", "guard")[trial % 3]
        if kind == "r_s=0":
            s = s.replace(r_s=0.0)
        elif kind == "guard":
            # put r_s on C_s at h_min or at the ground for one grid point,
            # or 1e-12 either side
            p_u = float(rng.choice([v for v in grid.p_u_values if v <= s.p_max]
                                   or [s.p_max]))
            p_j = float(rng.choice([v for v in grid.p_j_values if v <= s.p_max]
                                   or [s.p_max]))
            h = float(rng.choice(
                [covert_height_bound(p_u, p_j, s.beta, s.epsilon, s.d_w2), 0.0]))
            c_s = secrecy_rate_at_height(s.replace(p_u=p_u, p_j=p_j), h)
            r_s = c_s + float(rng.choice([-1e-12, 0.0, 1e-12]))
            if r_s >= 0.0:
                s = s.replace(r_s=r_s)
        calls.clear()
        got = maximize_covert_rate(s, grid)
        want = per_point_oracle(s, grid)
        assert_same_result(got, want)
        kinds[kind] += 1
        kinds["feasible"] += want.feasible
        fallbacks[kind] += len(calls)
    # fields log-uniform over decades, far outside the ranges above, on a
    # stream of their own
    rng = np.random.default_rng(20261019)
    wide_feasible = 0
    for _ in range(60):
        s = draw_log_uniform_scenario(rng)
        grid = GridSpec.linear(
            float(10.0 ** rng.uniform(-2, 3)), float(10.0 ** rng.uniform(-2, 3)),
            p_u_steps=int(rng.integers(1, 8)), p_j_steps=int(rng.integers(1, 8)))
        want = per_point_oracle(s, grid)
        assert_same_result(maximize_covert_rate(s, grid), want)
        wide_feasible += want.feasible
    assert wide_feasible >= 10
    assert kinds["feasible"] >= 50
    assert fallbacks["guard"] >= 10      # the guard band routes to the solver
    assert fallbacks["random"] == fallbacks["r_s=0"] == 0


@pytest.mark.parametrize("changes", [
    # near-noiseless receivers: C_s never drops under r_s, h_max = inf
    dict(sigma_u2=1e-12, sigma_b2=1e-12, d_a2=100.0, d_b2=100.0, d_w2=10.0,
         r_s=0.0),
    # covertness so tight that h_min lies above the solver's search ceiling
    dict(epsilon=1e-13),
    dict(epsilon=1e-13, sigma_u2=1e-12, sigma_b2=1e-12, d_a2=100.0,
         d_b2=100.0, r_s=0.0),
    dict(),
    dict(r_s=0.0, epsilon=0.3),
])
def test_grid_pass_matches_oracle_on_edge_scenarios(fig5, changes):
    s = fig5.replace(**changes)
    grid = GridSpec.linear(s.p_max, s.p_max, p_u_steps=9, p_j_steps=7)
    assert_same_result(maximize_covert_rate(s, grid), per_point_oracle(s, grid))


def test_grid_pass_decides_a_crossing_in_the_last_scan_bracket(fig5):
    # C_s crosses r_s near 650 km, inside the scan's last bracket
    # [2^19 m, 1e6 m], above a covert floor near 600 km: feasible
    s = fig5.replace(sigma_u2=1e-12, sigma_b2=1e-12, d_a2=100.0, d_b2=100.0,
                     d_w2=10.0, r_s=3.612, epsilon=2.78e-11)
    grid = GridSpec(p_u_values=(30.0,), p_j_values=(30.0,))
    want = per_point_oracle(s, grid)
    assert want.feasible and 2.0 ** 19 < want.h_star < want.h_max < 1e6
    assert_same_result(maximize_covert_rate(s, grid), want)


@pytest.mark.parametrize("offset", [-1e-6, -1e-8, 1e-8, 1e-6])
def test_grid_pass_decides_a_margin_just_outside_the_guard(fig5, monkeypatch,
                                                           offset):
    # r_s a little off C_s(h_min), beyond RESIDUAL_GUARD: the grid pass
    # decides the point itself, and as the solver does
    h_min = covert_height_bound(10.0, 15.0, fig5.beta, fig5.epsilon, fig5.d_w2)
    s = fig5.replace(r_s=secrecy_rate_at_height(
        fig5.replace(p_u=10.0, p_j=15.0), h_min) + offset)
    grid = GridSpec(p_u_values=(10.0,), p_j_values=(15.0,))
    calls = count_scalar_solves(monkeypatch)
    want = per_point_oracle(s, grid)
    assert want.feasible == (offset < 0.0)
    assert_same_result(maximize_covert_rate(s, grid), want)
    assert calls == []


@pytest.mark.parametrize("scale", [1.0 - 1e-13, 1.0, 1.0 + 1e-13])
def test_ceiling_on_the_threshold_goes_to_the_solver(fig5, monkeypatch, scale):
    # near-noiseless receivers keep C_s near 2.5 at the search ceiling; an
    # r_s within the sign guard of that value leaves h_max = inf unsure
    s = fig5.replace(sigma_u2=1e-12, sigma_b2=1e-12, d_a2=100.0, d_b2=100.0,
                     d_w2=10.0, epsilon=0.3)
    s = s.replace(r_s=scale * secrecy_rate_at_height(
        s.replace(p_u=30.0, p_j=30.0), SEARCH_CEILING_M))
    grid = GridSpec(p_u_values=(30.0,), p_j_values=(30.0,))
    calls = count_scalar_solves(monkeypatch)
    got = maximize_covert_rate(s, grid)
    assert calls == [(30.0, 30.0)]
    assert_same_result(got, per_point_oracle(s, grid))


def test_uncertain_point_keeps_its_numerical_error(fig5, monkeypatch):
    grid = GridSpec(p_u_values=(10.0, 20.0, 30.0), p_j_values=(15.0,))
    h_min = covert_height_bound(10.0, 15.0, fig5.beta, fig5.epsilon, fig5.d_w2)
    on_guard = fig5.replace(
        r_s=secrecy_rate_at_height(fig5.replace(p_u=10.0, p_j=15.0), h_min))
    assert maximize_covert_rate(on_guard, grid).p_u_star != 10.0

    solve = uavcovert.constraints.security_height_bound

    def not_an_interval(scenario):
        if scenario.p_u == 10.0:
            raise NumericalError("secrecy rate re-crosses the threshold")
        return solve(scenario)
    monkeypatch.setattr(uavcovert.constraints, "security_height_bound",
                        not_an_interval)
    with pytest.raises(NumericalError):
        maximize_covert_rate(on_guard, grid)
    # off the guard band the grid pass decides p_u=10 without the solver
    off_guard = fig5.replace(r_s=on_guard.r_s - 1e-3)
    assert maximize_covert_rate(off_guard, grid).feasible


def test_reported_rates_are_math_log2_capacities(fig5):
    # np.log2 differs from math.log2 in the last bit on some inputs, which
    # would move r_b_star off the rate_report value
    rng = np.random.default_rng(77)
    checked = 0
    for p_u, p_j, epsilon in zip(rng.uniform(1.0, 30.0, 1500),
                                 rng.uniform(1.0, 30.0, 1500),
                                 rng.uniform(0.005, 0.05, 1500)):
        s = fig5.replace(p_u=float(p_u), p_j=float(p_j), epsilon=float(epsilon))
        result = maximize_covert_rate(
            s, GridSpec(p_u_values=(s.p_u,), p_j_values=(s.p_j,)))
        if not result.feasible:
            continue
        report = rate_report(s.replace(h=result.h_star))
        assert result.r_b_star == report.r_b
        assert result.c_s_star == report.c_s
        checked += 1
    assert checked >= 1000


def test_ties_break_toward_first_point_in_scan_order(fig5, monkeypatch):
    # every feasible point rates the same, so the first one in scan order
    # (p_u outer, p_j inner) wins, also across row blocks
    monkeypatch.setattr(uavcovert.optimizer, "capacity", lambda snr: 1.0)
    monkeypatch.setattr(uavcovert.optimizer, "_BLOCK_POINTS", 4)
    grid = GridSpec.linear(fig5.p_max, fig5.p_max, p_u_steps=6, p_j_steps=5)
    first = next((p_u, p_j) for p_u in grid.p_u_values for p_j in grid.p_j_values
                 if not feasible_interval(fig5.replace(p_u=p_u, p_j=p_j)).empty)
    result = maximize_covert_rate(fig5, grid)
    assert (result.p_u_star, result.p_j_star) == first


def test_noise_level_far_scan_follows_the_solver(monkeypatch):
    # found by random search: at r_s = 0 the far end of the scan hovers
    # around 0 at rounding level and comes back to 0 after a drop for p_u
    # near 5.8e4; the solver brackets the first drop, and the grid pass
    # decides every point as the solver does, without it
    s = Scenario(d_a2=2.0720582959461726, d_b2=254.2324082263717, d_w2=1.0,
                 h=0.0, beta=176.32932143498837, p_a=0.009886590725721985,
                 p_u=1.0, p_j=1.0, p_max=1e6, sigma_u2=1.3142905344791695,
                 sigma_b2=8.421854256367805e-10, sigma_w2=0.01, epsilon=0.05,
                 r_s=0.0)
    grid = GridSpec(p_u_values=(5e4, 57951.730594944325, 6e4),
                    p_j_values=(2505.31356725798,))
    calls = count_scalar_solves(monkeypatch)
    got = maximize_covert_rate(s, grid)
    assert got.feasible and calls == []
    assert_same_result(got, per_point_oracle(s, grid))
