import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from uavcovert import (
    ConfigError, Scenario, db_to_linear, linear_to_db, los_gain_squared,
    relay_scaling, sample_rayleigh_power,
)
from uavcovert.model import _canonical_hashes

from conftest import draw_scenario, json_canonical_hash

finite = dict(allow_nan=False, allow_infinity=False)


# -- LOS gains ---------------------------------------------------------------

def test_los_gain_values():
    # reference geometry of the detection sweeps: d^2 = 300 m^2, h^2 = 1000 m^2
    assert math.isclose(los_gain_squared(10.0, 300.0, math.sqrt(1000.0)),
                        10.0 / 1300.0, rel_tol=1e-12)
    assert los_gain_squared(1.0, 0.0, 1.0) == 1.0
    assert math.isclose(los_gain_squared(10.0, 3600.0, 0.0), 10.0 / 3600.0,
                        rel_tol=1e-15)


def test_los_gain_domain_errors():
    with pytest.raises(ValueError):
        los_gain_squared(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        los_gain_squared(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        los_gain_squared(1.0, -1.0, 1.0)


@given(beta=st.floats(1e-3, 1e3, **finite),
       d2=st.floats(0.0, 1e6, **finite),
       h=st.floats(0.0, 1e3, **finite),
       dh=st.floats(1e-3, 1e3, **finite))
def test_los_gain_strictly_decreasing(beta, d2, h, dh):
    if d2 == 0.0 and h == 0.0:
        h = 1.0
    base = los_gain_squared(beta, d2, h)
    assert los_gain_squared(beta, d2, h + dh) < base
    assert los_gain_squared(beta, d2 + dh, h) < base


# -- Rayleigh fading ---------------------------------------------------------

def test_rayleigh_unit_mean():
    rng = np.random.default_rng(12345)
    draws = sample_rayleigh_power(rng, size=1_000_000)
    assert abs(float(np.mean(draws)) - 1.0) <= 0.01


def test_rayleigh_tail_matches_exponential_cdf():
    n = 200_000
    rng = np.random.default_rng(2024)
    draws = sample_rayleigh_power(rng, size=n)
    p = math.exp(-1.0)
    empirical = float(np.mean(draws > 1.0))
    assert abs(empirical - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)


def test_rayleigh_kolmogorov_smirnov():
    # one-sample KS against Exp(1), significance 0.01, asymptotic critical value
    n = 100_000
    rng = np.random.default_rng(777)
    draws = np.sort(sample_rayleigh_power(rng, size=n))
    cdf = 1.0 - np.exp(-draws)
    grid = np.arange(1, n + 1) / n
    d_stat = max(float(np.max(grid - cdf)), float(np.max(cdf - (grid - 1.0 / n))))
    critical = 1.6276 / math.sqrt(n)
    assert d_stat < critical


def test_rayleigh_deterministic_stream():
    a = sample_rayleigh_power(np.random.default_rng(99), size=10)
    b = sample_rayleigh_power(np.random.default_rng(99), size=10)
    assert np.array_equal(a, b)
    # k-th draw is a pure function of (seed, k)
    rng = np.random.default_rng(99)
    singles = [sample_rayleigh_power(rng) for _ in range(10)]
    assert np.allclose(singles, a, rtol=0, atol=0)


@pytest.mark.parametrize("size", [None, 0, 1, 10**5, (3, 4)])
def test_rayleigh_is_the_unit_exponential_stream(size):
    got = sample_rayleigh_power(np.random.default_rng(31), size)
    want = np.random.default_rng(31).exponential(1.0, size)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


# -- relay scaling -----------------------------------------------------------

def test_relay_scaling_values():
    assert relay_scaling(0.0, 0.0, 0.5, 0.5, 1.0) == 1.0
    assert relay_scaling(1.0, 0.0, 1.0, 0.7, 0.0) == 1.0
    # altitude sweep geometry at h = 100 m
    g_ua = los_gain_squared(10.0, 3600.0, 100.0)
    g_ub = los_gain_squared(10.0, 2500.0, 100.0)
    g = relay_scaling(2.0, 10.0, g_ua, g_ub, 0.01)
    assert math.isclose(g, 7.166555421980228, rel_tol=1e-12)


def test_relay_scaling_zero_denominator():
    with pytest.raises(ValueError):
        relay_scaling(0.0, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        relay_scaling(-1.0, 0.0, 1.0, 1.0, 1.0)


@given(p_a=st.floats(0.0, 100.0, **finite), p_j=st.floats(0.0, 100.0, **finite),
       g_ua=st.floats(0.0, 10.0, **finite), g_ub=st.floats(0.0, 10.0, **finite),
       sigma_u2=st.floats(1e-6, 10.0, **finite))
def test_relay_scaling_normalizes_forward_power(p_a, p_j, g_ua, g_ub, sigma_u2):
    g = relay_scaling(p_a, p_j, g_ua, g_ub, sigma_u2)
    assert abs(g * g * (p_a * g_ua + p_j * g_ub + sigma_u2) - 1.0) <= 1e-12


# -- scenario validation and JSON schema -------------------------------------

def _valid_raw():
    return {
        "d_a2_m2": 3600.0, "d_b2_m2": 2500.0, "d_w2_m2": 300.0,
        "h_m": 100.0, "beta_db": 10.0,
        "p_a_w": 2.0, "p_u_w": 7.0, "p_j_w": 10.0, "p_max_w": 10.0,
        "sigma_u2_dbw": -20.0, "sigma_b2_dbw": -20.0, "sigma_w2_dbw": -20.0,
        "epsilon": 0.01, "r_s_bpcu": 0.05,
    }


def test_scenario_from_dict_converts_db_once():
    s = Scenario.from_dict(_valid_raw())
    assert s.beta == 10.0
    assert s.sigma_u2 == pytest.approx(0.01, rel=1e-15)
    assert s.h == 100.0 and s.d_a2 == 3600.0


def test_scenario_round_trip(fig2):
    again = Scenario.from_dict(fig2.to_dict())
    for name in ("d_a2", "h", "p_u", "epsilon", "r_s"):
        assert getattr(again, name) == getattr(fig2, name)
    assert math.isclose(again.beta, fig2.beta, rel_tol=1e-14)
    assert again.canonical_hash() == fig2.canonical_hash()


def test_scenario_rejects_unknown_and_missing_fields():
    raw = _valid_raw()
    raw["bogus"] = 1.0
    with pytest.raises(ConfigError, match="unknown"):
        Scenario.from_dict(raw)
    raw = _valid_raw()
    del raw["p_u_w"]
    with pytest.raises(ConfigError, match="missing"):
        Scenario.from_dict(raw)
    raw = _valid_raw()
    raw["p_u_w"] = "seven"
    with pytest.raises(ConfigError, match="number"):
        Scenario.from_dict(raw)


@pytest.mark.parametrize("key, value", [
    ("beta_db", 4000), ("sigma_w2_dbw", 3100.0), ("d_a2_m2", 10 ** 400),
], ids=["beta_db", "sigma_w2_dbw", "d_a2_m2"])
def test_scenario_field_overflow_is_config_error(key, value):
    # 10 ** (4000 / 10) overflows a float in db_to_linear; an integer
    # literal of 401 digits overflows float() itself
    raw = _valid_raw()
    raw[key] = value
    with pytest.raises(ConfigError, match=f"scenario field {key} overflows"):
        Scenario.from_dict(raw)


def test_scenario_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        Scenario.from_file(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        Scenario.from_file(bad)
    bad.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigError, match="not valid JSON"):
        Scenario.from_file(bad)
    bad.write_text('{"h_m": 1' + "0" * 5000 + "}")  # over int's digit limit
    with pytest.raises(ConfigError, match="not valid JSON"):
        Scenario.from_file(bad)


@pytest.mark.parametrize("changes", [
    {"epsilon": 0.0}, {"epsilon": 1.0}, {"h": -1.0}, {"p_a": 0.0},
    {"sigma_w2": -0.01}, {"p_u": 11.0}, {"r_s": -0.1}, {"d_w2": 0.0},
])
def test_scenario_invariants(fig3, changes):
    with pytest.raises(ConfigError):
        fig3.replace(**changes)


@pytest.mark.parametrize("field", ["d_a2", "d_b2", "d_w2"])
def test_scenario_rejects_non_finite_los_gain(fig3, field):
    # beta / 5e-324 overflows to inf: the link's LOS gain is not a number
    with pytest.raises(ConfigError, match=f"LOS gain beta / {field} must be finite"):
        fig3.replace(**{field: 5e-324})
    fig3.replace(**{field: 1e-300})  # beta / 1e-300 = 1e301 is finite


def test_db_helpers_invert():
    assert db_to_linear(10.0) == 10.0
    assert db_to_linear(-20.0) == pytest.approx(0.01, rel=1e-15)
    assert math.isclose(linear_to_db(db_to_linear(-20.0)), -20.0, abs_tol=1e-12)


def test_scenario_hash_tracks_fields(fig2):
    assert fig2.canonical_hash() != fig2.replace(p_u=3.0).canonical_hash()


def test_scenario_hash_is_the_json_payload_hash(fig2, fig3, fig4, fig5):
    rng = np.random.default_rng(8)
    scenarios = [fig2, fig3, fig4, fig5, fig2.replace(h=0, p_u=2),
                 fig3.replace(h=-0.0)] + [draw_scenario(rng) for _ in range(50)]
    for sc in scenarios:
        assert sc.canonical_hash() == json_canonical_hash(sc)
    hs = [0, -0.0, 0.0, 5e-324, 12.5, 99.99999999999999, 1e200]
    assert _canonical_hashes(fig3, "h", [repr(h) for h in hs]) == [
        json_canonical_hash(fig3.replace(h=h)) for h in hs]


def test_spliced_epsilon_hashes_match_replaced_scenarios(fig2, fig5):
    epsilons = [0.01, 0.010526315789473684, 0.5, 1e-300, 5e-324,
                0.9999999999999999, np.nextafter(0.02, 1.0).item()]
    for sc in (fig2, fig5, fig5.replace(p_j=10.0)):
        assert _canonical_hashes(sc, "epsilon", [repr(e) for e in epsilons]) == [
            sc.replace(epsilon=e).canonical_hash() for e in epsilons] == [
            json_canonical_hash(sc.replace(epsilon=e)) for e in epsilons]


def test_scenario_to_dict_matches_file(fig2):
    on_disk = json.loads((pathlib.Path(__file__).resolve()
                          .parents[1] / "scenarios" / "fig2.json").read_text())
    enc = fig2.to_dict()
    assert set(enc) == set(on_disk)
    for key, value in on_disk.items():
        assert math.isclose(enc[key], value, rel_tol=1e-12, abs_tol=1e-12)
