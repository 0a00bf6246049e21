import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import uavcovert.optimizer
from uavcovert.constraints import SEARCH_CEILING_M, security_height_bound
from uavcovert.rates import snrs_at
from uavcovert import OptimizationResult, Scenario, maximize_covert_rate

from conftest import (
    NoFeasibleHeight, box_axis, cap_edge_supremum, covert_floor,
    draw_log_uniform_scenario, draw_scenario, exact_snrs, min_error_at_height,
    one_point_verdict, optimal_height_given_powers, rate_report, search,
)


# -- power axes --------------------------------------------------------------

def test_maximize_searches_the_scenarios_own_box(fig5, monkeypatch):
    # each axis runs from p_max / steps up to p_max in Python floats; a
    # smaller box is a scenario with a smaller cap
    searched = []
    real = uavcovert.optimizer._maximize_over_epsilons

    def spy(scenario, p_u_values, p_j_values, epsilons):
        searched.append((p_u_values, p_j_values, epsilons))
        return real(scenario, p_u_values, p_j_values, epsilons)
    monkeypatch.setattr(uavcovert.optimizer, "_maximize_over_epsilons", spy)
    capped = fig5.replace(p_max=10.0, p_u=2.0, p_j=5.0)
    result = maximize_covert_rate(capped, 5, 1)
    assert searched == [((2.0, 4.0, 6.0, 8.0, 10.0), (10.0,), (capped.epsilon,))]
    assert [type(v) for v in searched[0][0] + searched[0][1]] == [float] * 6
    assert result.feasible and result.p_u_star <= 10.0 and result.p_j_star == 10.0


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
    result = search(s, (10.0,), (5.0,))
    h_star, r_b = optimal_height_given_powers(s)
    assert result.feasible
    assert result.p_u_star == 10.0 and result.p_j_star == 5.0
    assert result.h_star == h_star
    assert result.r_b_star == r_b
    assert result.c_s_star == rate_report(s.replace(h=h_star)).c_s


def test_maximize_refined_grid_never_worse(fig5):
    fine_pu = tuple(float(v) for v in np.linspace(5.0, 30.0, 11))
    fine_pj = tuple(float(v) for v in np.linspace(5.0, 15.0, 5))
    r_coarse = search(fig5, fine_pu[::2], fine_pj[::2])
    r_fine = search(fig5, fine_pu, fine_pj)
    assert r_fine.r_b_star >= r_coarse.r_b_star


def test_maximize_jamming_helps_at_fixed_forward_power(fig5):
    # with the forward power pinned, more jamming lowers the covert height
    # floor and suppresses the relay's eavesdropping, so the optimized rate
    # climbs across the jamming overlays
    rates = []
    for p_j in (5.0, 10.0, 15.0):
        result = search(fig5, (20.0,), (p_j,))
        assert result.feasible
        rates.append(result.r_b_star)
    assert rates[0] < rates[1] < rates[2]


def test_maximize_infeasible_everywhere(fig4):
    # at 1-2 W forward power the relay out-hears the receiver everywhere,
    # so the security constraint kills every grid point
    p_u_values, p_j_values = (1.0, 2.0), (2.0, 5.0)
    for p_u in p_u_values:
        for p_j in p_j_values:
            assert not one_point_verdict(fig4.replace(p_u=p_u, p_j=p_j))[1]
    result = search(fig4, p_u_values, p_j_values)
    assert not result.feasible
    assert math.isnan(result.r_b_star)
    assert result.active_constraints == ()


def test_maximize_infinite_covert_floor_is_infeasible(fig5):
    # no altitude is covert enough although C_s never drops under r_s; this
    # was once reported feasible at h_star = inf with r_b_star = 0
    s = fig5.replace(sigma_u2=1e-12, sigma_b2=1e-12, d_a2=100.0, d_b2=100.0,
                     d_w2=10.0, r_s=0.0, epsilon=1e-320)
    result = maximize_covert_rate(s, 3, 3)
    assert not result.feasible and math.isnan(result.h_star)


def test_maximize_result_satisfies_constraints(fig5):
    result = search(fig5, box_axis(fig5.p_max, 8), box_axis(15.0, 3))
    assert result.feasible
    s = fig5.replace(p_u=result.p_u_star, p_j=result.p_j_star)
    assert min_error_at_height(s, result.h_star) >= 1.0 - s.epsilon - 1e-12
    assert rate_report(s.replace(h=result.h_star)).c_s >= s.r_s - 1e-8
    assert result.p_u_star <= fig5.p_max and result.p_j_star <= fig5.p_max
    assert result.r_b_star == rate_report(
        s.replace(h=result.h_star)).r_b


def test_maximize_active_constraint_flags(fig5):
    result = search(fig5, box_axis(fig5.p_max, 6), box_axis(15.0, 3))
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
    result = maximize_covert_rate(fig5, 50, 50)
    assert result.feasible and result.h_max > result.h_star
    assert replaces == []


def test_maximize_deterministic(fig5):
    axes = box_axis(fig5.p_max, 7), box_axis(15.0, 3)
    a = search(fig5, *axes)
    b = search(fig5, *axes)
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
        result = maximize_covert_rate(s, steps, steps)
        if not result.feasible:
            return False
        assert result.r_b_star <= (cap_edge_supremum(s)
                                   + 4 * math.ulp(result.r_b_star))
        axis, edges = box_axis(s.p_max, steps), []
        if result.p_u_star == s.p_max:
            edges.append(((s.p_max,), axis))
        if result.p_j_star == s.p_max:
            edges.append((axis, (s.p_max,)))
        for edge in edges:
            assert repr(search(s, *edge)) == repr(result)
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
    # point and leaves every SNR, covert floor and capacity unchanged, and
    # the power axes of the scaled cap are the scaled axes: the result is
    # bit-equal, with the argmax powers scaled by 2^m
    scale = 2.0 ** m
    rng = np.random.default_rng(21)
    feasible = 0
    for s in [fig5, *(draw_scenario(rng) for _ in range(299))]:
        scaled = s.replace(**{f: getattr(s, f) * scale for f in (
            "p_a", "p_u", "p_j", "p_max", "sigma_u2", "sigma_b2", "sigma_w2")})
        assert box_axis(scaled.p_max, 12) == tuple(v * scale for v in box_axis(s.p_max, 12))
        got = maximize_covert_rate(scaled, 12, 12)
        want = maximize_covert_rate(s, 12, 12)
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

def per_point_oracle(scenario, p_u_values, p_j_values):
    """The optimizer as a plain loop: the one-point grid verdict,
    security_height_bound and rate_report on every grid point, in scan
    order, with strict improvement."""
    best = None
    for p_u in p_u_values:
        for p_j in p_j_values:
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


def drawn_axes(s, rng, stop):
    """Two power axes of a drawn box, each up to a ``stop()`` with 1 to 7
    steps, less every value above s.p_max; an axis may come out empty."""
    stops = float(stop()), float(stop())
    steps = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    return [tuple(v for v in box_axis(stop, n) if v <= s.p_max)
            for stop, n in zip(stops, steps)]


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
        p_u_values, p_j_values = drawn_axes(s, rng, lambda: rng.uniform(5.0, 40.0))
        kind = ("random", "r_s=0", "guard")[trial % 3]
        if kind == "r_s=0":
            s = s.replace(r_s=0.0)
        elif kind == "guard":
            # put r_s on C_s at h_min or at the ground for one grid point,
            # or 1e-12 either side
            p_u = float(rng.choice(p_u_values or [s.p_max]))
            p_j = float(rng.choice(p_j_values or [s.p_max]))
            h = float(rng.choice(
                [covert_floor(p_u, p_j, s.beta, s.epsilon, s.d_w2), 0.0]))
            c_s = rate_report(s.replace(p_u=p_u, p_j=p_j, h=h)).c_s
            r_s = c_s + float(rng.choice([-1e-12, 0.0, 1e-12]))
            if r_s >= 0.0:
                s = s.replace(r_s=r_s)
        if not (p_u_values and p_j_values):
            continue  # the whole box lies above the cap
        got = search(s, p_u_values, p_j_values)
        want = per_point_oracle(s, p_u_values, p_j_values)
        assert_same_result(got, want)
        kinds[kind] += 1
        kinds["feasible"] += want.feasible
    # fields log-uniform over decades, far outside the ranges above, on a
    # stream of their own
    rng = np.random.default_rng(20261019)
    wide_feasible = 0
    for _ in range(60):
        s = draw_log_uniform_scenario(rng)
        axes = drawn_axes(s, rng, lambda: 10.0 ** rng.uniform(-2, 3))
        want = per_point_oracle(s, *axes)
        assert_same_result(search(s, *axes), want)
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
    assert_same_result(maximize_covert_rate(s, 9, 7), per_point_oracle(
        s, box_axis(s.p_max, 9), box_axis(s.p_max, 7)))


def test_grid_pass_decides_a_crossing_in_the_last_scan_bracket(fig5):
    # C_s crosses r_s near 650 km, inside the scan's last bracket
    # [2^19 m, 1e6 m], above a covert floor near 600 km: feasible
    s = fig5.replace(sigma_u2=1e-12, sigma_b2=1e-12, d_a2=100.0, d_b2=100.0,
                     d_w2=10.0, r_s=3.612, epsilon=2.78e-11)
    want = per_point_oracle(s, (s.p_max,), (s.p_max,))
    assert want.feasible and 2.0 ** 19 < want.h_star < want.h_max < 1e6
    assert_same_result(maximize_covert_rate(s, 1, 1), want)


@pytest.mark.parametrize("offset", [
    -1e-6, -1e-8, -1e-10, -1e-12, 1e-12, 1e-10, 1e-8, 1e-6])
def test_grid_pass_decides_a_margin_just_outside_the_guard(fig5, offset):
    # r_s a little off C_s(h_min), down to well inside the bisection
    # residual: the grid pass decides the point as its one-point case does,
    # and a feasible argmax meets C_s >= r_s
    h_min = covert_floor(10.0, 15.0, fig5.beta, fig5.epsilon, fig5.d_w2)
    s = fig5.replace(r_s=rate_report(
        fig5.replace(p_u=10.0, p_j=15.0, h=h_min)).c_s + offset)
    want = per_point_oracle(s, (10.0,), (15.0,))
    assert want.feasible == (offset < 0.0)
    got = search(s, (10.0,), (15.0,))
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
    assert_same_result(maximize_covert_rate(s, 1, 1),
                       per_point_oracle(s, (s.p_max,), (s.p_max,)))


def test_reported_rates_are_math_log2_capacities(fig5):
    # np.log2 differs from math.log2 in the last bit on some inputs, which
    # would move r_b_star off the rate_report value
    rng = np.random.default_rng(77)
    checked = 0
    for p_u, p_j, epsilon in zip(rng.uniform(1.0, 30.0, 1500),
                                 rng.uniform(1.0, 30.0, 1500),
                                 rng.uniform(0.005, 0.05, 1500)):
        s = fig5.replace(p_u=float(p_u), p_j=float(p_j), epsilon=float(epsilon))
        result = search(s, (s.p_u,), (s.p_j,))
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
    first = next((p_u, p_j) for p_u in box_axis(fig5.p_max, 6)
                 for p_j in box_axis(fig5.p_max, 5)
                 if one_point_verdict(fig5.replace(p_u=p_u, p_j=p_j))[1])
    result = maximize_covert_rate(fig5, 6, 5)
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
    axes = (5e4, 57951.730594944325, 6e4), (2505.31356725798,)
    got = search(s, *axes)
    assert got.feasible
    assert_same_result(got, per_point_oracle(s, *axes))
