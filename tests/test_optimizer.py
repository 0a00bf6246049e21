import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import uavcovert.optimizer
from uavcovert.constraints import SEARCH_CEILING_M, security_height_bound
from uavcovert.rates import snrs_at
from uavcovert import (
    ConfigError, GridSpec, OptimizationResult, Scenario, maximize_covert_rate,
)

from conftest import (
    NoFeasibleHeight, cap_edge_supremum, covert_floor,
    draw_log_uniform_scenario, draw_scenario, min_error_at_height,
    one_point_verdict, optimal_height_given_powers, rate_report,
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
    for values in (("1.0",), (True,), (1j,)):  # float() would take the first two
        with pytest.raises(ConfigError, match="must be a real number"):
            GridSpec(p_u_values=(1.0,), p_j_values=values)
    grid = GridSpec(p_u_values=[np.float64(1.0), 2], p_j_values=np.array([3.0]))
    assert grid == GridSpec((1.0, 2.0), (3.0,))
    assert [type(v) for v in grid.p_u_values + grid.p_j_values] == [float] * 3
    with pytest.raises(ConfigError):
        GridSpec.linear(10.0, 10.0, p_u_steps=0)
    for steps in (2.5, True):  # not an int, or a bool taken as one step
        with pytest.raises(ConfigError, match="p_u_steps must be a positive integer"):
            GridSpec.linear(10.0, 10.0, p_u_steps=steps)
        with pytest.raises(ConfigError, match="p_j_steps must be a positive integer"):
            GridSpec.linear(10.0, 10.0, p_j_steps=steps)


def test_gridspec_linear():
    grid = GridSpec.linear(10.0, 30.0, p_u_steps=5, p_j_steps=1)
    assert grid.p_u_values == (2.0, 4.0, 6.0, 8.0, 10.0)
    assert grid.p_j_values == (30.0,)


@pytest.mark.parametrize("stop", [math.inf, -math.inf, math.nan, 0.0])
@pytest.mark.parametrize("name", ["p_u_stop", "p_j_stop"])
def test_gridspec_linear_rejects_a_stop_outside_its_domain(name, stop):
    with pytest.raises(ConfigError) as info:
        GridSpec.linear(**{"p_u_stop": 10.0, "p_j_stop": 10.0, name: stop})
    assert str(info.value) == f"{name} must be finite and > 0, got {stop!r}"


# -- height closure ----------------------------------------------------------

def test_optimal_height_is_interval_left_end(fig5):
    s = fig5.replace(p_u=10.0, p_j=5.0)
    h_star, r_b = optimal_height_given_powers(s)
    assert h_star == covert_floor(s.p_u, s.p_j, s.beta, s.epsilon, s.d_w2)
    assert r_b == rate_report(s.replace(h=h_star)).r_b


def test_optimal_height_beats_interior_grid(fig5):
    s = fig5.replace(p_u=10.0, p_j=5.0)
    h_star, r_b = optimal_height_given_powers(s)
    for h in np.linspace(h_star, security_height_bound(s, s.p_u, s.p_j), 40):
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
            assert not one_point_verdict(fig4.replace(p_u=p_u, p_j=p_j))[1]
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
    assert rate_report(s.replace(h=result.h_star)).c_s >= s.r_s - 1e-8
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


def test_maximize_builds_no_scenario(fig5, monkeypatch):
    # the grid and the argmax's security ceiling both take the grid's own
    # float powers: no Scenario is rebuilt and revalidated per point
    replaces = []
    replace = Scenario.replace

    def counted(self, **changes):
        replaces.append(changes)
        return replace(self, **changes)
    monkeypatch.setattr(Scenario, "replace", counted)
    result = maximize_covert_rate(fig5, GridSpec.linear(30.0, 30.0, 50, 50))
    assert result.feasible and result.h_max > result.h_star
    assert replaces == []


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
        try:
            h_star, r_b = optimal_height_given_powers(s)
        except NoFeasibleHeight:
            continue
        h_max = security_height_bound(s, s.p_u, s.p_j)
        top = h_max if math.isfinite(h_max) else h_star + 500.0
        for h in np.linspace(h_star, top, 25):
            assert rate_report(s.replace(h=float(h))).r_b <= r_b + 1e-12
        done += 1


# -- grid argmax vs the cap-edge oracle ---------------------------------------

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


def test_scaling_both_powers_up_keeps_the_floor_and_only_helps():
    # the ray lemma behind cap_edge_supremum: at t >= 1 the covert margin
    # P_u beta / (P_J (d_w^2 + h^2)) is unchanged, gamma_b = tA / (tB + C)
    # with C > 0 rises and gamma_u, decreasing in P_J, falls, at every
    # altitude; so a feasible point stays feasible with a higher rate
    scales = [Fraction(t) for t in (1.0, 1.0 + 2.0 ** -40, 1.5, 2.0, 10.0, 1e3)]
    for draw, seed in ((draw_scenario, 29), (draw_log_uniform_scenario, 30)):
        rng = np.random.default_rng(seed)
        for _ in range(150):
            s = draw(rng)
            p_u, p_j, w, beta = map(Fraction, (s.p_u, s.p_j, s.d_w2, s.beta))
            for h in (0.0, s.h, 10.0 * s.h + 1.0, 1e4):
                x = Fraction(h) ** 2
                gamma_u, gamma_b = snrs_at(s, s.p_u, s.p_j, h)
                assert [float(v) for v in exact_snrs(s, p_u, p_j, x)] == pytest.approx(
                    [gamma_u, gamma_b], rel=1e-12)
                margins, rays = [], []
                for t in scales:
                    margins.append(t * p_u * beta / (t * p_j * (w + x)))
                    rays.append(exact_snrs(s, t * p_u, t * p_j, x))
                assert len(set(margins)) == 1
                for (u0, b0), (u1, b1) in zip(rays, rays[1:]):
                    assert u1 < u0 and b1 > b0, (s, h)


def test_grid_argmax_is_at_most_the_cap_edge_supremum(fig5):
    # the best rate lies on a power-cap edge, so no grid point beats the
    # edge supremum.  The oracle samples each edge at 500 steps, a multiple
    # of the grids' 50 and 20, so it holds their cap-edge points up to
    # rounding (the corner exactly); the slack is for that rounding.
    # Measured: fig5 0.15706492 against 0.15707184, and the 74 feasible
    # draws of 300 sit 0 ULP (2 of them) or more below their supremum.
    # Where the argmax lies on a cap edge, the 1-D grid of that edge alone
    # returns the same result: every earlier point in scan order rates
    # strictly lower, and ties break to the first, in either grid
    edge_grids = 0

    def assert_bounded(s, steps):
        nonlocal edge_grids
        grid = GridSpec.linear(s.p_max, s.p_max, steps, steps)
        result = maximize_covert_rate(s, grid)
        if not result.feasible:
            return False
        assert result.r_b_star <= (cap_edge_supremum(s)
                                   + 4 * math.ulp(result.r_b_star))
        edges = []
        if result.p_u_star == s.p_max:
            edges.append(GridSpec((s.p_max,), grid.p_j_values))
        if result.p_j_star == s.p_max:
            edges.append(GridSpec(grid.p_u_values, (s.p_max,)))
        for edge in edges:
            assert repr(maximize_covert_rate(s, edge)) == repr(result)
        edge_grids += len(edges)
        return True

    assert assert_bounded(fig5, 50)
    rng = np.random.default_rng(0)
    assert sum(assert_bounded(draw_scenario(rng), 20) for _ in range(300)) >= 70
    # measured: 64 edge grids, fig5's p_u = p_max row among them
    assert edge_grids >= 60


# -- power-of-two rescaling -------------------------------------------------

@pytest.mark.parametrize("m", [-7, 5])
def test_argmax_is_equivariant_under_power_of_two_power_scaling(fig5, m):
    # scaling every power and noise by 2^m is exact in binary floating
    # point and leaves every SNR, covert floor and capacity unchanged: the
    # result is bit-equal, with the argmax powers scaled by 2^m
    scale = 2.0 ** m
    rng = np.random.default_rng(21)
    feasible = 0
    for s in [fig5, *(draw_scenario(rng) for _ in range(299))]:
        grid = GridSpec.linear(s.p_max, s.p_max, 12, 12)
        scaled = s.replace(**{f: getattr(s, f) * scale for f in (
            "p_a", "p_u", "p_j", "p_max", "sigma_u2", "sigma_b2", "sigma_w2")})
        got = maximize_covert_rate(scaled, GridSpec(
            p_u_values=tuple(v * scale for v in grid.p_u_values),
            p_j_values=tuple(v * scale for v in grid.p_j_values)))
        want = maximize_covert_rate(s, grid)
        assert_same_result(got, dataclasses.replace(
            want, p_u_star=want.p_u_star * scale,
            p_j_star=want.p_j_star * scale))
        feasible += want.feasible
    assert feasible >= 70


# -- array grid pass vs the per-point loop ----------------------------------
# the loop asks feasibility_grid one point at a time, so these tests check
# the optimizer's blocks, epsilon chunks, argmax and h_max, not the verdict
# itself: its independent oracle is the dense altitude scan of
# test_constraints.py::test_feasible_interval_agrees_with_a_dense_altitude_scan

def per_point_oracle(scenario, grid):
    """The optimizer as a plain loop: the one-point grid verdict,
    security_height_bound and rate_report on every in-cap grid point, in
    scan order, with strict improvement."""
    best = None
    for p_u in grid.p_u_values:
        if p_u > scenario.p_max:
            continue
        for p_j in grid.p_j_values:
            if p_j > scenario.p_max:
                continue
            candidate = scenario.replace(p_u=p_u, p_j=p_j)
            h, feasible = one_point_verdict(candidate)
            if not feasible:
                continue
            report = rate_report(candidate.replace(h=h))
            if best is None or report.r_b > best[0]:
                best = (report.r_b, p_u, p_j, h, report.c_s,
                        security_height_bound(scenario, p_u, p_j))

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


@pytest.mark.parametrize("log2_skew", [0.0, math.inf, -math.inf])
def test_grid_pass_matches_per_point_oracle(monkeypatch, log2_skew):
    # a skew moves np.log2 results one ULP, alternately up and down, as
    # another libm may: no verdict reads np.log2, so every result still
    # equals the per-point loop's
    if log2_skew:
        log2, turn = np.log2, itertools.count()
        monkeypatch.setattr(np, "log2", lambda x: np.nextafter(
            log2(x), log2_skew if next(turn) % 2 else -log2_skew))
    rng = np.random.default_rng(20240309)
    kinds = {"random": 0, "r_s=0": 0, "guard": 0, "feasible": 0}
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
                [covert_floor(p_u, p_j, s.beta, s.epsilon, s.d_w2), 0.0]))
            c_s = rate_report(s.replace(p_u=p_u, p_j=p_j, h=h)).c_s
            r_s = c_s + float(rng.choice([-1e-12, 0.0, 1e-12]))
            if r_s >= 0.0:
                s = s.replace(r_s=r_s)
        got = maximize_covert_rate(s, grid)
        want = per_point_oracle(s, grid)
        assert_same_result(got, want)
        kinds[kind] += 1
        kinds["feasible"] += want.feasible
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


@pytest.mark.parametrize("changes", [
    # near-noiseless receivers: C_s never drops under r_s, h_max = inf
    dict(sigma_u2=1e-12, sigma_b2=1e-12, d_a2=100.0, d_b2=100.0, d_w2=10.0,
         r_s=0.0),
    # covertness so tight that h_min lies above the h_max search ceiling
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


@pytest.mark.parametrize("offset", [
    -1e-6, -1e-8, -1e-10, -1e-12, 1e-12, 1e-10, 1e-8, 1e-6])
def test_grid_pass_decides_a_margin_just_outside_the_guard(fig5, offset):
    # r_s a little off C_s(h_min), down to well inside the bisection
    # residual: the grid pass decides the point as its one-point case does,
    # and a feasible argmax meets C_s >= r_s
    h_min = covert_floor(10.0, 15.0, fig5.beta, fig5.epsilon, fig5.d_w2)
    s = fig5.replace(r_s=rate_report(
        fig5.replace(p_u=10.0, p_j=15.0, h=h_min)).c_s + offset)
    grid = GridSpec(p_u_values=(10.0,), p_j_values=(15.0,))
    want = per_point_oracle(s, grid)
    assert want.feasible == (offset < 0.0)
    got = maximize_covert_rate(s, grid)
    assert_same_result(got, want)
    if got.feasible:
        assert got.c_s_star >= s.r_s


@pytest.mark.parametrize("scale", [1.0 - 1e-13, 1.0, 1.0 + 1e-13])
def test_ceiling_on_the_threshold_goes_to_the_solver(fig5, scale):
    # near-noiseless receivers keep C_s near 2.5 at the search ceiling; an
    # r_s within rounding of that value leaves the grid's verdict, read on
    # the ground and at a low covert floor, unchanged, while the h_max scan
    # must tell h_max = inf from a crossing just below the ceiling
    s = fig5.replace(sigma_u2=1e-12, sigma_b2=1e-12, d_a2=100.0, d_b2=100.0,
                     d_w2=10.0, epsilon=0.3)
    s = s.replace(r_s=scale * rate_report(
        s.replace(p_u=30.0, p_j=30.0, h=SEARCH_CEILING_M)).c_s)
    grid = GridSpec(p_u_values=(30.0,), p_j_values=(30.0,))
    assert_same_result(maximize_covert_rate(s, grid), per_point_oracle(s, grid))


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
    monkeypatch.setattr(uavcovert.optimizer, "capacity",
                        lambda snrs: [1.0] * np.size(snrs))
    monkeypatch.setattr(uavcovert.optimizer, "_BLOCK_CELLS", 4)
    grid = GridSpec.linear(fig5.p_max, fig5.p_max, p_u_steps=6, p_j_steps=5)
    first = next((p_u, p_j) for p_u in grid.p_u_values for p_j in grid.p_j_values
                 if one_point_verdict(fig5.replace(p_u=p_u, p_j=p_j))[1])
    result = maximize_covert_rate(fig5, grid)
    assert (result.p_u_star, result.p_j_star) == first


def test_noise_level_far_scan_follows_the_solver():
    # found by random search: at r_s = 0 the far end of the scan hovers
    # around 0 at rounding level and comes back to 0 after a drop for p_u
    # near 5.8e4; the h_max scan brackets the first drop, and the grid pass
    # decides every point as the per-point loop does
    s = Scenario(d_a2=2.0720582959461726, d_b2=254.2324082263717, d_w2=1.0,
                 h=0.0, beta=176.32932143498837, p_a=0.009886590725721985,
                 p_u=1.0, p_j=1.0, p_max=1e6, sigma_u2=1.3142905344791695,
                 sigma_b2=8.421854256367805e-10, sigma_w2=0.01, epsilon=0.05,
                 r_s=0.0)
    grid = GridSpec(p_u_values=(5e4, 57951.730594944325, 6e4),
                    p_j_values=(2505.31356725798,))
    got = maximize_covert_rate(s, grid)
    assert got.feasible
    assert_same_result(got, per_point_oracle(s, grid))
