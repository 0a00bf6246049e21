"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS line when it holds (run with ``pytest -v -s
tests/test_acceptance.py`` to see the lines).
"""
import math
import pathlib
import time

import numpy as np

from uavcovert import (
    SweepSpec, maximize_covert_rate,
    run_covertness_sweep, run_detection_sweep, run_rate_sweep,
)
from uavcovert.cli import main
from uavcovert.constraints import security_height_bound
from uavcovert.detection import error_curve, optimal_detection
from uavcovert.experiments import mc_zeta_tolerance
from uavcovert.rates import simulate_destination_snr

from conftest import (
    AuxCoefficients, aux_coefficients, covert_floor, draw_scenario,
    expand_rows, min_error_at_height, rate_report, snr_destination_expanded,
    total_error_derivative,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"


def _ok(number: int, message: str) -> None:
    print(f"\n[criterion {number}] PASS - {message}")


# 1. closed form vs Monte Carlo at the detection-sweep preset -----------------

def test_c1_detection_closed_form_vs_monte_carlo(fig2):
    n_trials = 100_000
    started = time.perf_counter()
    sweep = SweepSpec(start=0.0, stop=1.0, steps=50, overlay_values=(2.0, 3.0, 4.0))
    records = expand_rows(run_detection_sweep(fig2, sweep, n_trials=n_trials, seed=1))
    elapsed = time.perf_counter() - started
    assert len(records) == 150
    worst = 0.0
    for r in records:
        tol = mc_zeta_tolerance(r["zeta"], n_trials, z=3.0)
        gap = abs(r["zeta_mc"] - r["zeta"])
        worst = max(worst, gap / tol)
        assert gap <= tol, (r["p_u"], r["gamma"], gap, tol)
    assert elapsed < 30.0
    _ok(1, f"150 points within max(0.005, 3 sigma); worst gap "
           f"{worst:.3f}x tolerance in {elapsed:.1f}s")


# 2. optimal-threshold oracle on randomized scenarios -------------------------

def test_c2_optimal_threshold_grid_search_oracle():
    rng = np.random.default_rng(1001)
    for _ in range(100):
        s = draw_scenario(rng)
        gamma_star, zeta_star = optimal_detection(s)
        grid = np.linspace(0.0, 10.0 * gamma_star, 100_000)
        zeta = error_curve(s, grid)[2]
        best = int(np.argmin(zeta))
        step = grid[1] - grid[0]
        assert abs(grid[best] - gamma_star) <= step + 1e-15
        zeta_at_star = error_curve(s, [gamma_star])[2][0]
        assert abs(zeta_at_star - zeta_star) <= 1e-9
    _ok(2, "grid argmin within one step of gamma_star and error floor "
           "within 1e-9 on 100 randomized scenarios")


# 3. piecewise structure and derivative positivity ----------------------------

def test_c3_piecewise_structure(fig2):
    rng = np.random.default_rng(1002)
    for s in [fig2] + [draw_scenario(rng) for _ in range(10)]:
        below = np.linspace(0.0, s.sigma_w2, 2_000)
        assert all(z == 1.0 for z in error_curve(s, below)[2])
        gamma_star, _ = optimal_detection(s)
        above = np.linspace(gamma_star, 20.0 * gamma_star, 10_002)[1:]
        derivative = total_error_derivative(above, s)
        assert np.count_nonzero(derivative <= 0.0) == 0
    _ok(3, "zeta == 1 below the noise floor and analytic derivative > 0 "
           "above gamma_star (1e4-point grids, zero violations)")


# 4. destination-SNR algebraic equivalence ------------------------------------

def test_c4_snr_algebraic_equivalence():
    rng = np.random.default_rng(1003)
    for _ in range(10_000):
        s = draw_scenario(rng)
        per_link = rate_report(s).gamma_b
        expanded = snr_destination_expanded(s)
        assert abs(expanded - per_link) / per_link <= 1e-10

    # diagnostic: the sigma_b^4 variant of the constant coefficient departs
    # from the per-link form whenever sigma_b^2 != d_b^2 (reported only)
    deviations = []
    for _ in range(200):
        s = draw_scenario(rng)
        assert s.sigma_b2 != s.d_b2
        c = aux_coefficients(s)
        variant = AuxCoefficients(
            phi_1=c.phi_1, phi_2=c.phi_2, q=c.q,
            p=s.p_u * s.sigma_u2 * s.d_a2 * s.beta + s.p_a * s.sigma_b2 ** 2 * s.beta)
        value = snr_destination_expanded(s, coefficients=variant)
        per_link = rate_report(s).gamma_b
        deviations.append(abs(value - per_link) / per_link)
    assert min(deviations) > 1e-10
    _ok(4, f"per-link and expanded forms agree to 1e-10 on 1e4 scenarios; "
           f"sigma_b^4 variant deviates by {min(deviations):.2e}.."
           f"{max(deviations):.2e} (reported)")


# 5. end-to-end signal oracle --------------------------------------------------

def test_c5_end_to_end_signal_oracle(fig4):
    s = fig4.replace(h=50.0)
    snr, forwarded_power = simulate_destination_snr(s, 1_000_000, seed=1004)
    closed = rate_report(s).gamma_b
    rel_gap = abs(snr - closed) / closed
    assert rel_gap <= 0.01
    assert abs(forwarded_power - 1.0) <= 0.01
    _ok(5, f"1e6-symbol SINR within {rel_gap:.2%} of the closed form "
           f"(forwarded power {forwarded_power:.4f})")


# 6. constraint round trips -----------------------------------------------------

def test_c6_constraint_round_trips():
    rng = np.random.default_rng(1006)
    covert_done = security_done = 0
    while covert_done < 100 or security_done < 100:
        s = draw_scenario(rng, d_w2=float(rng.uniform(5.0, 150.0)),
                          epsilon=float(rng.uniform(0.002, 0.05)))
        h_min = covert_floor(s.p_u, s.p_j, s.beta, s.epsilon, s.d_w2)
        if h_min > 0.0 and covert_done < 100:
            assert abs(min_error_at_height(s, h_min) - (1.0 - s.epsilon)) <= 1e-9
            covert_done += 1
        c_s_ground = rate_report(s.replace(h=0.0)).c_s
        if c_s_ground > 0.0 and security_done < 100:
            target = float(rng.uniform(0.1, 0.9)) * c_s_ground
            h_prime = security_height_bound(s.replace(r_s=target), s.p_u, s.p_j)
            if h_prime is not None and math.isfinite(h_prime):
                assert abs(rate_report(s.replace(h=h_prime)).c_s - target) <= 1e-8
                security_done += 1
    _ok(6, "zeta_star(h_min) = 1 - epsilon to 1e-9 and C_s(h_max) = r_s "
           "to 1e-8 on 100 random feasible parameter sets each")


# 7. trend reproduction at the figure presets -----------------------------------

def test_c7_trend_reproduction(fig3, fig4, fig5):
    sweep3 = SweepSpec(start=0.0, stop=100.0, steps=26,
                       overlay_values=(7.0, 8.0, 9.0))
    records3 = expand_rows(run_rate_sweep(fig3, sweep3))
    _assert_trends(records3, y="c_s")

    sweep4 = SweepSpec(start=0.0, stop=100.0, steps=26,
                       overlay_values=(2.0, 3.0, 4.0))
    records4 = expand_rows(run_rate_sweep(fig4, sweep4))
    _assert_trends(records4, y="r_b")

    sweep5 = SweepSpec(start=0.01, stop=0.02, steps=20,
                       overlay_values=(5.0, 10.0, 15.0))
    records5 = expand_rows(run_covertness_sweep(fig5, sweep5, 60, seed=7))
    assert all(r["feasible"] for r in records5)
    by_overlay = {p_j: sorted((r["epsilon"], r["r_b_star"]) for r in records5
                              if r["p_j"] == p_j)
                  for p_j in (5.0, 10.0, 15.0)}
    for series in by_overlay.values():
        rates = [v for _, v in series]
        assert all(b >= a for a, b in zip(rates, rates[1:]))
    for eps_index in range(20):
        across_pj = [by_overlay[p_j][eps_index][1] for p_j in (5.0, 10.0, 15.0)]
        assert across_pj[0] <= across_pj[1] <= across_pj[2]
    _ok(7, "altitude sweeps monotone per overlay and ordered in p_u; "
           "optimized rate nondecreasing in epsilon and p_j on 20-point sweeps")


def _assert_trends(records, y):
    overlays = sorted({r["p_u"] for r in records})
    series = {p_u: [r[y] for r in sorted(
        (r for r in records if r["p_u"] == p_u), key=lambda r: r["h"])]
        for p_u in overlays}
    for values in series.values():
        assert all(b < a for a, b in zip(values, values[1:]))
    for low, high in zip(overlays, overlays[1:]):
        assert all(h > l for l, h in zip(series[low], series[high]))


# 8. optimizer soundness ---------------------------------------------------------

def _brute_force(scenario, p_u_steps, p_j_steps, h_points=33, h_span=300.0):
    """Independent 3-D enumeration with direct constraint checks, over
    p_max k / steps for k = 1..steps on each power axis."""
    best = None
    for p_u in (scenario.p_max * k / p_u_steps for k in range(1, p_u_steps + 1)):
        for p_j in (scenario.p_max * k / p_j_steps for k in range(1, p_j_steps + 1)):
            s = scenario.replace(p_u=p_u, p_j=p_j)
            radicand = (-p_u * s.beta / (p_j * math.log1p(-s.epsilon))
                        - s.d_w2)
            h_min = math.sqrt(radicand) if radicand > 0.0 else 0.0
            for h in [h_min] + list(np.linspace(h_min, h_min + h_span, h_points)):
                h = float(h)
                if min_error_at_height(s, h) < 1.0 - s.epsilon - 1e-12:
                    continue
                if rate_report(s.replace(h=h)).c_s < s.r_s:
                    continue
                r_b = rate_report(s.replace(h=h)).r_b
                if best is None or r_b > best[0]:
                    best = (r_b, p_u, p_j, h)
    return best


def test_c8_optimizer_matches_brute_force():
    rng = np.random.default_rng(1008)
    feasible_count = 0
    for _ in range(20):
        s = draw_scenario(rng, d_w2=float(rng.uniform(5.0, 300.0)),
                          epsilon=float(rng.uniform(0.005, 0.1)),
                          r_s=float(rng.uniform(0.0, 0.05)))
        result = maximize_covert_rate(s, 5, 4)
        brute = _brute_force(s, 5, 4)
        if brute is None:
            assert not result.feasible
            continue
        feasible_count += 1
        assert result.feasible
        assert result.p_u_star == brute[1]
        assert result.p_j_star == brute[2]
        assert result.h_star == brute[3]
        assert result.r_b_star == brute[0]

        # endpoint optimality inside the feasible interval at the optimum
        opt = s.replace(p_u=result.p_u_star, p_j=result.p_j_star)
        top = result.h_max if math.isfinite(result.h_max) \
            else result.h_star + 1_000.0
        for h in np.linspace(result.h_star, top, 50):
            assert rate_report(opt.replace(h=float(h))).r_b \
                <= result.r_b_star + 1e-12
    assert feasible_count >= 8
    _ok(8, f"grid argmax equals 3-D brute force exactly on 20 scenarios "
           f"({feasible_count} feasible); altitude endpoint never beaten")


# 9. determinism across runs ------------------------------------------------------

def test_c9_byte_identical_csv(tmp_path):
    args = ["detect-sweep", "--scenario", str(SCENARIOS / "fig2.json"),
            "--trials", "20000", "--steps", "12", "--seed", "33"]
    outs = [tmp_path / f"det{i}.csv" for i in range(2)]
    assert main(args + ["--out", str(outs[0])]) == 0
    assert main(args + ["--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()

    cov_args = ["covertness-sweep", "--scenario", str(SCENARIOS / "fig5.json"),
                "--steps", "4", "--pu-steps", "12", "--seed", "33"]
    cov_outs = [tmp_path / f"cov{i}.csv" for i in range(2)]
    assert main(cov_args + ["--out", str(cov_outs[0])]) == 0
    assert main(cov_args + ["--out", str(cov_outs[1])]) == 0
    assert cov_outs[0].read_bytes() == cov_outs[1].read_bytes()
    _ok(9, "CSV bytes identical across repeated runs")
