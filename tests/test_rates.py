import itertools
import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from uavcovert import ConfigError, Scenario
from uavcovert.rates import _CHUNK, capacity, simulate_destination_snr, snrs_at

from conftest import (
    PRESETS, SCENARIOS, AuxCoefficients, RateReport, aux_coefficients,
    draw_log_uniform_scenario, draw_scenario, exact_snrs, los_gain, rate_report,
    reference_destination_snr, reference_relay_snr, snr_destination_expanded,
    traced_peak_bytes, ulps,
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


@settings(max_examples=200)
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


def test_snrs_at_lies_within_3_and_4_ulp_of_the_exact_snrs():
    # snrs_at against exact_snrs, its formula in Fractions of the float
    # inputs with x = h^2 exact, at each draw's own h on 900 draws of each
    # family: 1,800 (scenario, h) points.  An error is counted in ULP of
    # the exact value rounded to a float.  Measured worst: 2.81 ULP for
    # gamma_u and 3.99 for gamma_b.  Plain arithmetic rounds alike on every
    # IEEE platform, but these bounds are of this table, not proven: the
    # ten-odd roundings on each path allow more
    worst = {"gamma_u": 0.0, "gamma_b": 0.0}
    for draw, seed in ((draw_scenario, 0), (draw_log_uniform_scenario, 5)):
        rng = np.random.default_rng(seed)
        for _ in range(900):
            s = draw(rng)
            exact = exact_snrs(s, Fraction(s.p_u), Fraction(s.p_j), Fraction(s.h) ** 2)
            for name, got, want in zip(worst, snrs_at(s, s.p_u, s.p_j, s.h), exact):
                worst[name] = max(worst[name], ulps(got, want))
    assert worst["gamma_u"] <= 3.0 and worst["gamma_b"] <= 4.0, worst


# -- rate report -------------------------------------------------------------

def test_capacity_zero_snr():
    assert capacity(0.0) == [0.0]


@pytest.mark.parametrize("log2_skew", [0.0, math.inf, -math.inf])
def test_capacity_is_math_log2_of_each_snr_in_c_order(monkeypatch, log2_skew):
    # a skew moves np.log2 results one ULP, alternately up and down, as
    # another libm may: capacity reads math.log2 only, so nothing moves
    if log2_skew:
        log2, turn = np.log2, itertools.count()
        monkeypatch.setattr(np, "log2", lambda x: np.nextafter(
            log2(x), log2_skew if next(turn) % 2 else -log2_skew))
    snrs = np.random.default_rng(7).uniform(0.0, 1.0, size=(3, 4000)) ** 3 * 1e3
    got = capacity(snrs)
    assert type(got) is list and len(got) == snrs.size
    assert all(type(c) is float for c in got)
    assert got == [math.log2(1.0 + x) for x in snrs.ravel(order="C").tolist()]
    assert capacity(snrs.T) == [math.log2(1.0 + x) for x in snrs.T.ravel().tolist()]
    assert capacity(0.37) == [math.log2(1.37)]
    assert capacity([[0.5], [2.0]]) == [math.log2(1.5), math.log2(3.0)]


def test_rate_report_identities(fig4):
    report = rate_report(fig4.replace(h=50.0))
    assert report.c_s == report.c_b - report.c_u
    assert report.r_b == report.c_b
    assert math.isclose(report.c_u, math.log2(1 + report.gamma_u), rel_tol=1e-15)
    assert math.isclose(report.c_b, math.log2(1 + report.gamma_b), rel_tol=1e-15)


def test_rate_report_zero_secrecy_for_equal_snrs():
    # equal SNRs by construction: the secrecy rate vanishes identically
    c_u, c_b = capacity([0.37, 0.37])
    report = RateReport(gamma_u=0.37, gamma_b=0.37, c_u=c_u, c_b=c_b)
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
    snr, forwarded_power = simulate_destination_snr(s, 200_000, seed=42)
    assert abs(forwarded_power - 1.0) <= 0.02
    closed = rate_report(s).gamma_b
    assert abs(snr - closed) / closed <= 0.02


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


# -- the producer thread -----------------------------------------------------

@pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK + 1, 4 * _CHUNK + 7])
def test_simulate_destination_snr_does_not_depend_on_scheduling(fig4, busy_switching, n):
    # the producer draws up to three chunks ahead of the calling thread;
    # with a thread switch every microsecond every field is still the
    # reference's, and the producer is joined before the call returns
    before = threading.active_count()
    seed = np.random.SeedSequence([7, 1])
    assert simulate_destination_snr(fig4, n, seed) == reference_destination_snr(fig4, n, seed)
    assert threading.active_count() == before


def test_simulate_destination_snr_draws_on_one_more_thread(fig4, monkeypatch):
    # every draw runs on one thread, not the caller's, which does the
    # arithmetic: the second thread the speed rests on
    threads = set()
    default_rng = np.random.default_rng

    class Draws:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, out):
            threads.add(threading.get_ident())
            return self.rng.standard_normal(out=out)
    want = simulate_destination_snr(fig4, 3 * _CHUNK, 5)
    monkeypatch.setattr(np.random, "default_rng", Draws)
    assert simulate_destination_snr(fig4, 3 * _CHUNK, 5) == want
    assert len(threads) == 1 and threading.get_ident() not in threads


class PipelineError(Exception):
    pass


def test_simulate_destination_snr_raises_a_callers_error_after_joining(fig4, monkeypatch):
    # the first mean fails after the second of eight segments of five
    # chunks, with the producer waiting for a buffer: the stop flag ends it,
    # it is joined, and the error reaches the caller
    def mean(a):
        raise PipelineError("mean failed")
    monkeypatch.setattr(np, "mean", mean)
    before = threading.active_count()
    with pytest.raises(PipelineError, match="mean failed"):
        simulate_destination_snr(fig4, 4 * _CHUNK + 7, 3)
    assert threading.active_count() == before


def test_simulate_destination_snr_raises_a_producers_error_after_joining(fig4, monkeypatch):
    # the producer's sixth draw fails, in the second segment: the error is
    # raised on the calling thread, not left to the thread's excepthook
    class Draws:
        left = 5

        def standard_normal(self, out):
            if not self.left:
                raise PipelineError("draw failed")
            self.left -= 1
            out.fill(1.0)
            return out
    monkeypatch.setattr(np.random, "default_rng", lambda seed: Draws())
    before = threading.active_count()
    with pytest.raises(PipelineError, match="draw failed"):
        simulate_destination_snr(fig4, 4 * _CHUNK + 7, 3)
    assert threading.active_count() == before
