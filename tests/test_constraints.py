import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from uavcovert import (
    ConfigError, NumericalError, covert_height_bound, feasible_interval,
    secrecy_rate_at_height, security_height_bound,
)
from uavcovert.constraints import SEARCH_CEILING_M, feasibility_grid
from uavcovert.rates import snrs_at

from conftest import (
    draw_log_uniform_scenario, draw_scenario, min_error_at_height,
)


def bisect_covert_bound(scenario, lo=0.0, hi=5e4, iters=200):
    """Independent oracle: root of zeta_star(h) - (1 - epsilon).

    zeta_star is increasing in h, so plain bisection applies.
    """
    target = 1.0 - scenario.epsilon
    f = lambda h: min_error_at_height(scenario, h) - target
    if f(lo) >= 0.0:
        return 0.0
    assert f(hi) > 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- covert height bound -----------------------------------------------------

def test_covert_bound_value():
    h_min = covert_height_bound(2.0, 5.0, 10.0, 0.01, 300.0)
    assert math.isclose(h_min, 9.899325729244811, rel_tol=1e-13)


def test_covert_bound_round_trip(fig2):
    s = fig2.replace(p_u=2.0, p_j=5.0, epsilon=0.01)
    h_min = covert_height_bound(s.p_u, s.p_j, s.beta, s.epsilon, s.d_w2)
    assert abs(min_error_at_height(s, h_min) - (1.0 - s.epsilon)) <= 1e-12


def test_covert_bound_bisection_oracle(fig2):
    for epsilon in (0.002, 0.01, 0.05):
        s = fig2.replace(epsilon=epsilon)
        h_min = covert_height_bound(s.p_u, s.p_j, s.beta, s.epsilon, s.d_w2)
        assert h_min == pytest.approx(bisect_covert_bound(s), abs=1e-6)


def test_covert_bound_degenerate_cases():
    # slack covertness: any height acceptable
    assert covert_height_bound(2.0, 5.0, 10.0, 0.999, 300.0) == 0.0
    # warden far enough that the radicand goes non-positive
    assert covert_height_bound(2.0, 5.0, 10.0, 0.01, 10_000.0) == 0.0


def test_covert_bound_tight_epsilon_round_trip(fig2):
    s = fig2.replace(epsilon=1e-4, d_w2=50.0)
    h_min = covert_height_bound(s.p_u, s.p_j, s.beta, s.epsilon, s.d_w2)
    assert h_min > 100.0
    assert abs(min_error_at_height(s, h_min) - (1.0 - s.epsilon)) <= 1e-9


def test_covert_bound_monotone_sensitivity():
    base = dict(p_u=4.0, p_j=5.0, beta=10.0, epsilon=0.01, d_w2=100.0)
    bounds = [covert_height_bound(p_u, base["p_j"], base["beta"],
                                  base["epsilon"], base["d_w2"])
              for p_u in np.linspace(2.0, 12.0, 9)]
    assert all(b > a for a, b in zip(bounds, bounds[1:]))
    bounds = [covert_height_bound(base["p_u"], p_j, base["beta"],
                                  base["epsilon"], base["d_w2"])
              for p_j in np.linspace(2.0, 12.0, 9)]
    assert all(b < a for a, b in zip(bounds, bounds[1:]))
    # epsilon grid kept inside the region where the bound is positive
    bounds = [covert_height_bound(base["p_u"], base["p_j"], base["beta"],
                                  eps, base["d_w2"])
              for eps in np.linspace(0.005, 0.06, 9)]
    assert all(bounds) and all(b < a for a, b in zip(bounds, bounds[1:]))


def test_covert_bound_is_inf_when_its_denominator_underflows(fig5):
    # p_j * log1p(-epsilon) underflows to -0.0: no altitude is covert
    # enough, where a ZeroDivisionError escaped before
    s = fig5.replace(p_j=0.1, epsilon=5e-324)
    assert s.p_j * math.log1p(-s.epsilon) == 0.0
    assert covert_height_bound(s.p_u, s.p_j, s.beta, s.epsilon, s.d_w2) == math.inf
    interval = feasible_interval(s)
    assert interval.h_min == math.inf and interval.empty
    # a quotient that overflows gives the same inf
    assert covert_height_bound(s.p_u, 10.0, s.beta, 1e-320, s.d_w2) == math.inf
    # an infinite floor is infeasible even where C_s never drops under r_s
    s = fig5.replace(sigma_u2=1e-12, sigma_b2=1e-12, d_a2=100.0, d_b2=100.0,
                     d_w2=10.0, r_s=0.0, epsilon=1e-320)
    interval = feasible_interval(s)
    assert interval.h_min == interval.h_max == math.inf and interval.empty
    verdict = feasibility_grid(s, (s.p_u,), (s.p_j,), (s.epsilon,))
    assert verdict.h_min.item() == math.inf and not verdict.feasible.item()


@pytest.mark.parametrize("p_u_values, p_j_values, epsilons", [
    ((10.0, 30.0), (5.0, 15.0), (0.01, 0.02)),
    # p_j log1p(-epsilon) underflows to 0, or the quotient overflows
    ((10.0, 30.0), (0.1, 5.0), (5e-324, 1e-320, 0.01)),
    ((2.0, 1e308), (5.0,), (0.01,)),  # p_u beta overflows
    ((30.0,), (5.0, 1e308), (0.01, 1.0 - 1e-16)),  # p_j log1p(-epsilon) does
    ((1e308,), (1e308,), (1.0 - 1e-16,)),  # both do: inf / inf is undefined
])
def test_grid_covert_floor_is_the_scalar_one(fig5, p_u_values, p_j_values,
                                             epsilons):
    # every (epsilon, p_u, p_j) of the array pass, extreme ones included,
    # rounds as covert_height_bound does, or both raise NumericalError, and
    # none prints a numpy warning
    want, undefined = {}, False
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e, i, j in np.ndindex(len(epsilons), len(p_u_values),
                                  len(p_j_values)):
            try:
                want[e, i, j] = covert_height_bound(
                    p_u_values[i], p_j_values[j], fig5.beta, epsilons[e],
                    fig5.d_w2)
            except NumericalError:
                undefined = True
        if undefined:
            with pytest.raises(NumericalError, match="covert floor undefined"):
                feasibility_grid(fig5, p_u_values, p_j_values, epsilons)
            return
        verdict = feasibility_grid(fig5, p_u_values, p_j_values, epsilons)
    for index, h_min in want.items():
        assert type(h_min) is float and verdict.h_min[index] == h_min


def test_covert_bound_invalid_inputs():
    with pytest.raises(ConfigError):
        covert_height_bound(2.0, 5.0, 10.0, 0.0, 300.0)
    with pytest.raises(ConfigError):
        covert_height_bound(2.0, 5.0, 10.0, 1.0, 300.0)
    with pytest.raises(ConfigError):
        covert_height_bound(0.0, 5.0, 10.0, 0.5, 300.0)


# -- security height bound ---------------------------------------------------

def test_security_bound_zero_threshold(fig3):
    h_prime = security_height_bound(fig3.replace(r_s=0.0))
    assert h_prime is not None and math.isfinite(h_prime)
    # at the bound the two capacities coincide
    assert abs(secrecy_rate_at_height(fig3, h_prime)) <= 1e-9
    assert 30.0 < h_prime < 60.0


def test_security_bound_residual(fig3):
    c_s_ground = secrecy_rate_at_height(fig3, 0.0)
    target = 0.5 * c_s_ground
    h_prime = security_height_bound(fig3.replace(r_s=target))
    assert abs(secrecy_rate_at_height(fig3, h_prime) - target) <= 1e-9


def test_security_bound_infeasible_at_ground(fig3):
    c_s_ground = secrecy_rate_at_height(fig3, 0.0)
    assert security_height_bound(fig3.replace(r_s=2.0 * c_s_ground)) is None


def test_security_bound_unbounded_marker(fig3):
    # near-noiseless receivers keep the secrecy rate positive beyond the
    # search ceiling, so the bound degenerates to +inf
    s = fig3.replace(sigma_u2=1e-12, sigma_b2=1e-12, d_a2=100.0, d_b2=100.0,
                     d_w2=10.0, p_a=1.0, p_u=2.0, p_j=1.0, r_s=0.0)
    assert secrecy_rate_at_height(s, 1e6) > 0.0
    assert security_height_bound(s) == math.inf


# -- the one crossing above secure ground ------------------------------------

def poly_mul(p, q):
    """Product of two polynomials given as coefficient lists, low first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_add(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
            for i in range(n)]


def poly_at(p, x):
    return sum(c * x ** k for k, c in enumerate(p))


def security_polynomials(s):
    """Exact (N_u, D_u, N_b, D_b) in x = h^2, with 1 + gamma = N / D, from
    the per-link SNRs of ``rates.snrs_at`` multiplied out over (d_a^2 + x)
    and (d_b^2 + x), in Fractions of the scenario's float fields."""
    a, b, beta, p_a, p_u, p_j, s_u, s_b = map(Fraction, (
        s.d_a2, s.d_b2, s.beta, s.p_a, s.p_u, s.p_j, s.sigma_u2, s.sigma_b2))
    ax, bx = [a, 1], [b, 1]
    d_u = poly_mul(ax, [p_j * beta + s_u * b, s_u])
    n_u = poly_add(d_u, [p_a * beta * b, p_a * beta])
    d_b = poly_add(poly_add([(p_u * s_u + p_j * s_b) * beta * a,
                             (p_u * s_u + p_j * s_b) * beta],
                            [p_a * beta * s_b * b, p_a * beta * s_b]),
                   [s_b * s_u * c for c in poly_mul(ax, bx)])
    n_b = poly_add(d_b, [p_u * p_a * beta * beta])
    return n_u, d_u, n_b, d_b


def security_quartic(s):
    """Exact coefficients, low first, of P = N_b D_u - 2^r_s N_u D_b, whose
    sign at x = h^2 is that of C_s(h) - r_s."""
    n_u, d_u, n_b, d_b = security_polynomials(s)
    t = Fraction(2.0 ** s.r_s)
    return poly_add(poly_mul(n_b, d_u), [-t * c for c in poly_mul(n_u, d_b)])


def test_security_polynomials_are_the_snrs():
    rng = np.random.default_rng(5)
    for _ in range(200):
        s = draw_log_uniform_scenario(rng)
        x = Fraction(s.h * s.h)
        n_u, d_u, n_b, d_b = security_polynomials(s)
        gamma_u, gamma_b = snrs_at(s, s.p_u, s.p_j, s.h)
        for n, d, gamma in ((n_u, d_u, gamma_u), (n_b, d_b, gamma_b)):
            ratio = poly_at(n, x) / poly_at(d, x)
            assert math.isclose(float(ratio), 1.0 + gamma, rel_tol=1e-12)


def test_security_quartic_top_coefficients_are_never_positive():
    # c2, c3 < 0 and c4 <= 0, so where P(0) > 0 the coefficients change
    # sign once and P has one positive root (Descartes' rule of signs)
    rng = np.random.default_rng(20261019)
    zero_threshold = 0
    for _ in range(2000):
        s = draw_log_uniform_scenario(rng)
        _, _, c2, c3, c4 = security_quartic(s)
        assert c2 < 0 and c3 < 0 and c4 <= 0
        assert (c4 == 0) == (s.r_s == 0.0)
        zero_threshold += s.r_s == 0.0
    assert zero_threshold >= 300


@pytest.mark.parametrize("draw", [draw_scenario, draw_log_uniform_scenario])
def test_secrecy_margin_crosses_the_threshold_once_above_secure_ground(draw):
    # a dense altitude scan: C_s - r_s starts at or above 0, and once it is
    # below 0 (outside a rounding guard) it never comes back
    heights = np.concatenate(([0.0], np.geomspace(1e-2, SEARCH_CEILING_M, 4000)))
    rng = np.random.default_rng(64)
    secure = crossing = 0
    for _ in range(1500):
        s = draw(rng)
        c_u, c_b = (np.log2(1.0 + g) for g in snrs_at(s, s.p_u, s.p_j, heights))
        margin = c_b - c_u - s.r_s
        sure = np.abs(margin) > 1e-12 * (c_b + c_u + s.r_s) + 1e-14
        signs = margin[sure] >= 0.0
        if not (sure[0] and signs[0]):
            continue
        secure += 1
        assert (signs[:-1] >= signs[1:]).all(), s
        crossing += not signs[-1]
    assert secure >= 100 and crossing >= 50


# -- feasible interval -------------------------------------------------------

def test_feasible_interval_composition(fig5):
    s = fig5.replace(p_u=10.0, p_j=5.0)
    interval = feasible_interval(s)
    assert not interval.empty
    assert interval.h_min == covert_height_bound(s.p_u, s.p_j, s.beta,
                                                 s.epsilon, s.d_w2)
    assert interval.h_max == security_height_bound(s)
    assert 0.0 < interval.h_min <= interval.h_max
    # both constraints hold on the interval
    assert min_error_at_height(s, interval.h_min) >= 1.0 - s.epsilon - 1e-12
    assert secrecy_rate_at_height(s, interval.h_max) >= s.r_s - 1e-8


def test_feasible_interval_empty_when_covertness_conflicts_security(fig3):
    c_s_ground = secrecy_rate_at_height(fig3, 0.0)
    s = fig3.replace(epsilon=1e-4, r_s=0.5 * c_s_ground)
    interval = feasible_interval(s)
    assert interval.empty
    assert interval.h_min > interval.h_max


def test_feasible_interval_empty_when_security_fails_at_ground(fig4):
    # at the covert-rate preset powers the relay out-hears the receiver
    # on the ground, so any positive threshold is unreachable
    interval = feasible_interval(fig4)
    assert interval.empty
    assert math.isnan(interval.h_max)


def test_feasible_interval_vacuous_constraints(fig3):
    s = fig3.replace(sigma_u2=1e-12, sigma_b2=1e-12, d_a2=100.0, d_b2=100.0,
                     d_w2=10.0, p_a=1.0, p_u=2.0, p_j=1.0, r_s=0.0,
                     epsilon=0.9)
    interval = feasible_interval(s)
    assert not interval.empty
    assert interval.h_min == 0.0
    assert interval.h_max == math.inf


def ground_insecure_draw():
    """The 2,403rd ``draw_scenario`` of ``default_rng(0)``: insecure on the
    ground (C_s(0) < r_s) but secure and covert at 26.3 m."""
    rng = np.random.default_rng(0)
    for _ in range(2403):
        s = draw_scenario(rng)
    return s


def test_ground_insecure_draw_is_feasible_at_26_m():
    s = ground_insecure_draw()
    assert secrecy_rate_at_height(s, 0.0) < s.r_s
    assert covert_height_bound(s.p_u, s.p_j, s.beta, s.epsilon, s.d_w2) <= 26.3
    assert secrecy_rate_at_height(s, 26.3) >= s.r_s


@pytest.mark.xfail(strict=True, reason=(
    "feasible_interval reports empty whenever C_s(0) < r_s, so it misses "
    "a secure band above insecure ground"))
def test_feasible_interval_finds_band_above_insecure_ground():
    s = ground_insecure_draw()
    assert covert_height_bound(s.p_u, s.p_j, s.beta, s.epsilon, s.d_w2) <= 26.3
    assert secrecy_rate_at_height(s, 26.3) >= s.r_s
    assert not feasible_interval(s).empty


def test_round_trips_randomized():
    rng = np.random.default_rng(20240817)
    done = 0
    while done < 25:
        s = draw_scenario(rng, d_w2=rng.uniform(5.0, 150.0),
                          epsilon=rng.uniform(0.002, 0.05))
        h_min = covert_height_bound(s.p_u, s.p_j, s.beta, s.epsilon, s.d_w2)
        if h_min <= 0.0:
            continue
        assert abs(min_error_at_height(s, h_min) - (1.0 - s.epsilon)) <= 1e-9
        c_s_ground = secrecy_rate_at_height(s, 0.0)
        if c_s_ground <= 0.0:
            continue
        target = float(rng.uniform(0.1, 0.9)) * c_s_ground
        h_prime = security_height_bound(s.replace(r_s=target))
        if h_prime is None or not math.isfinite(h_prime):
            continue
        assert abs(secrecy_rate_at_height(s, h_prime) - target) <= 1e-8
        done += 1
