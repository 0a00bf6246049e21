import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from uavcovert import ConfigError, Scenario, capacity, simulate_destination_snr
from uavcovert.rates import _CHUNK

from conftest import (
    PRESETS, SCENARIOS, AuxCoefficients, RateReport, aux_coefficients, draw_scenario,
    los_gain, rate_report, reference_destination_snr, reference_relay_snr,
    snr_destination_expanded, traced_peak_bytes,
)

finite = dict(allow_nan=False, allow_infinity=False)


def closed_form_snr_relay(s):
    """Independent algebraic route for the relay SNR."""
    b = s.d_b2 + s.h * s.h
    a = s.d_a2 + s.h * s.h
    return s.p_a * s.beta * b / (a * (s.p_j * s.beta + s.sigma_u2 * b))


# -- relay (eavesdropper) SNR ------------------------------------------------

def test_snr_relay_value(fig3):
    s = fig3.replace(h=100.0)
    expected = 20.0 * 12_500.0 / (13_600.0 * 225.0)
    assert math.isclose(rate_report(s).gamma_u, expected, rel_tol=1e-13)
    assert math.isclose(rate_report(s).gamma_u, 0.08169934640522875, rel_tol=1e-13)


def test_snr_relay_matches_closed_form(fig3):
    for h in (0.0, 10.0, 50.0, 100.0, 400.0):
        s = fig3.replace(h=h)
        assert math.isclose(rate_report(s).gamma_u, closed_form_snr_relay(s),
                            rel_tol=1e-12)


def test_snr_relay_limits(fig3):
    vanishing = fig3.replace(p_a=1e-12)
    assert rate_report(vanishing).gamma_u < 1e-10
    no_jamming = fig3.replace(p_j=1e-12, h=100.0)
    expected = no_jamming.p_a * no_jamming.beta / (13_600.0 * no_jamming.sigma_u2)
    assert math.isclose(rate_report(no_jamming).gamma_u, expected, rel_tol=1e-9)


@pytest.mark.parametrize("preset", PRESETS)
def test_snr_relay_matches_signal_level_estimate(preset):
    # the relay's source-signal power over its jamming-plus-noise power,
    # measured on drawn symbols, not derived from the closed form
    s = Scenario.from_file(SCENARIOS / f"{preset}.json")
    gamma_u = rate_report(s).gamma_u
    estimate, standard_error = reference_relay_snr(s, 500_000, seed=[7, 2])
    assert 3.0 * standard_error <= 0.01 * gamma_u  # a 1% bias shows
    assert abs(estimate - gamma_u) <= 3.0 * standard_error


# -- destination SNR ---------------------------------------------------------

def test_snr_destination_value(fig4):
    s = fig4.replace(h=50.0)
    assert math.isclose(rate_report(s).gamma_b, 0.025575447570332484, rel_tol=1e-13)


def test_snr_destination_limits(fig4):
    assert rate_report(fig4.replace(p_u=1e-12)).gamma_b < 1e-10
    assert rate_report(fig4.replace(p_a=1e-12)).gamma_b < 1e-10
    relay_noise_only = fig4.replace(sigma_b2=1e-12, p_j=1e-12, h=50.0)
    expected = (relay_noise_only.p_a * los_gain(relay_noise_only, relay_noise_only.d_a2)
                / relay_noise_only.sigma_u2)
    assert math.isclose(rate_report(relay_noise_only).gamma_b, expected, rel_tol=1e-9)


def test_expanded_form_matches_per_link(fig4):
    for h in (0.0, 25.0, 50.0, 120.0, 333.0):
        s = fig4.replace(h=h)
        assert math.isclose(snr_destination_expanded(s), rate_report(s).gamma_b,
                            rel_tol=1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_expanded_form_matches_per_link_random(seed):
    s = draw_scenario(np.random.default_rng(seed))
    assert math.isclose(snr_destination_expanded(s), rate_report(s).gamma_b,
                        rel_tol=1e-11)


def test_expanded_form_constant_term(fig4):
    s = fig4.replace(h=0.0)
    c = aux_coefficients(s)
    expected = s.p_u * s.p_a * s.beta ** 2 / (s.sigma_b2 * c.phi_1 + c.p)
    assert math.isclose(snr_destination_expanded(s), expected, rel_tol=1e-15)


def test_aux_coefficient_definitions(fig4):
    s = fig4.replace(h=50.0)
    c = aux_coefficients(s)
    assert c.phi_1 == pytest.approx(
        s.p_j * s.beta * s.d_a2 + s.sigma_u2 * s.d_a2 * s.d_b2, rel=1e-15)
    assert c.phi_2 == pytest.approx(
        s.p_j * s.beta + s.sigma_u2 * (s.d_a2 + s.d_b2), rel=1e-15)
    assert c.q == pytest.approx(
        s.p_u * s.sigma_u2 * s.beta + s.p_a * s.sigma_b2 * s.beta, rel=1e-15)
    assert c.p == pytest.approx(
        s.p_u * s.sigma_u2 * s.d_a2 * s.beta + s.p_a * s.sigma_b2 * s.d_b2 * s.beta,
        rel=1e-15)


def variant_coefficients(s):
    """Constant term with sigma_b^4 in place of sigma_b^2 d_b^2."""
    c = aux_coefficients(s)
    p_variant = s.p_u * s.sigma_u2 * s.d_a2 * s.beta + s.p_a * s.sigma_b2 ** 2 * s.beta
    return AuxCoefficients(phi_1=c.phi_1, phi_2=c.phi_2, p=p_variant, q=c.q)


def test_variant_constant_term_diagnostic(fig4):
    # The sigma_b^4 variant of the constant term disagrees with the per-link
    # SNR whenever sigma_b^2 != d_b^2; the deviation is reported, and the
    # variant collapses to the consistent form when sigma_b^2 == d_b^2.
    s = fig4.replace(h=50.0)
    assert s.sigma_b2 != s.d_b2
    per_link = rate_report(s).gamma_b
    variant = snr_destination_expanded(s, coefficients=variant_coefficients(s))
    deviation = abs(variant - per_link) / per_link
    assert deviation > 1e-6
    print(f"variant constant-term relative deviation at the altitude-sweep "
          f"preset: {deviation:.3e}")

    degenerate = s.replace(sigma_b2=0.5, d_b2=0.5)
    assert math.isclose(
        snr_destination_expanded(degenerate,
                                 coefficients=variant_coefficients(degenerate)),
        rate_report(degenerate).gamma_b, rel_tol=1e-12)


# -- rate report -------------------------------------------------------------

def test_capacity_zero_snr():
    assert capacity(0.0) == 0.0


def test_rate_report_identities(fig4):
    report = rate_report(fig4.replace(h=50.0))
    assert report.c_s == report.c_b - report.c_u
    assert report.r_b == report.c_b
    assert math.isclose(report.c_u, math.log2(1 + report.gamma_u), rel_tol=1e-15)
    assert math.isclose(report.c_b, math.log2(1 + report.gamma_b), rel_tol=1e-15)


def test_rate_report_zero_secrecy_for_equal_snrs():
    # equal SNRs by construction: the secrecy rate vanishes identically
    report = RateReport(gamma_u=0.37, gamma_b=0.37,
                        c_u=capacity(0.37), c_b=capacity(0.37))
    assert report.c_s == 0.0


def test_destination_capacity_decreasing_in_h(fig4):
    heights = np.linspace(0.0, 500.0, 201)
    c_b = [rate_report(fig4.replace(h=float(h))).c_b for h in heights]
    assert all(b < a for a, b in zip(c_b, c_b[1:]))


def test_secrecy_rate_fig3_window(fig3):
    # strictly decreasing over the preset altitude window, crossing zero,
    # and strictly increasing in the forward power at every altitude
    heights = np.linspace(0.0, 100.0, 41)
    curves = {}
    for p_u in (7.0, 8.0, 9.0):
        c_s = [rate_report(fig3.replace(p_u=p_u, h=float(h))).c_s for h in heights]
        assert all(b < a for a, b in zip(c_s, c_s[1:]))
        curves[p_u] = c_s
    assert curves[7.0][0] > 0.0 > curves[7.0][-1]
    for low, high in ((7.0, 8.0), (8.0, 9.0)):
        assert all(h > l for l, h in zip(curves[low], curves[high]))


# -- signal-level Monte Carlo ------------------------------------------------

def test_simulate_destination_snr_matches_closed_form(fig4):
    s = fig4.replace(h=50.0)
    est = simulate_destination_snr(s, 200_000, seed=42)
    assert abs(est.forwarded_power - 1.0) <= 0.02
    closed = rate_report(s).gamma_b
    assert abs(est.snr - closed) / closed <= 0.02
    assert est.signal_power > 0.0 and est.noise_power > 0.0


def test_simulate_destination_snr_deterministic(fig4):
    a = simulate_destination_snr(fig4, 10_000, seed=9)
    b = simulate_destination_snr(fig4, 10_000, seed=9)
    assert a == b


def test_simulate_destination_snr_invalid(fig4):
    with pytest.raises(ConfigError):
        simulate_destination_snr(fig4, 0, seed=1)


def test_simulate_destination_snr_rejects_bool(fig4):
    with pytest.raises(ConfigError):
        simulate_destination_snr(fig4, True, seed=1)


@pytest.mark.parametrize("preset", PRESETS)
def test_simulate_destination_snr_matches_reference(preset):
    # the in-place kernel consumes the stream in the reference's order and
    # rounds every operation alike, so each field is equal, not close; the
    # sizes around the scratch chunk keep an error at a chunk edge in sight
    s = Scenario.from_file(SCENARIOS / f"{preset}.json")
    for entropy in (0, 4, 11):
        for n in (1, 2, 7, 1000, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 7):
            seed = [entropy, 1]
            got = simulate_destination_snr(s, n, np.random.SeedSequence(seed))
            want = reference_destination_snr(s, n, np.random.SeedSequence(seed))
            assert got == want, (entropy, n)


def test_simulate_destination_snr_matches_reference_at_1e6(fig4):
    seed = np.random.SeedSequence([4, 1])
    got = simulate_destination_snr(fig4, 1_000_000, seed)
    assert got == reference_destination_snr(fig4, 1_000_000, seed)


def test_simulate_destination_snr_footprint(fig4):
    # three float arrays, 24 bytes per symbol, and chunk-sized scratch
    n = 1_000_000
    peak = traced_peak_bytes(simulate_destination_snr, fig4, n, 3)
    assert peak <= 28 * n
