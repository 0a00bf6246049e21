import dataclasses
import json
import math

import numpy as np
import pytest

from uavcovert import ConfigError, Scenario
from uavcovert.experiments import SweepSpec, render_csv, run_rate_sweep
from uavcovert.model import _JSON_FIELDS, _canonical_hashes, db_to_linear

from conftest import (
    PRESETS, SCENARIOS, draw_log_uniform_scenario, draw_scenario,
    exact_pow10, json_canonical_hash,
)

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
    bad.write_text('{"h_m": 1, "h_m": 1}')  # a repeat, not a missing field
    with pytest.raises(ConfigError, match="repeats field h_m$"):
        Scenario.from_file(bad)


@pytest.mark.parametrize("changes", [
    {"epsilon": 0.0}, {"epsilon": 1.0}, {"h": -1.0}, {"p_a": 0.0},
    {"sigma_w2": -0.01}, {"p_u": 11.0}, {"r_s": -0.1}, {"d_w2": 0.0},
    {"p_u": 0.0}, {"p_j": 0.0}, {"beta": 0.0}, {"h": math.nan}, {"h": math.inf},
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


def test_every_preset_and_drawn_scenario_constructs():
    # the ground-SNR check rejects no physical scenario
    for preset in PRESETS:
        Scenario.from_file(SCENARIOS / f"{preset}.json")
    rng = np.random.default_rng(19)
    for _ in range(2000):
        draw_scenario(rng)
        draw_log_uniform_scenario(rng)


def test_db_helpers_invert():
    assert db_to_linear(10.0) == 10.0
    assert db_to_linear(-20.0) == pytest.approx(0.01, rel=1e-15)


def test_db_to_linear_is_within_one_ulp_of_the_exact_power():
    db_keys = [key for key, (_, decode) in _JSON_FIELDS.items()
               if decode is db_to_linear]
    values = [json.loads((SCENARIOS / f"{preset}.json").read_text())[key]
              for preset in PRESETS for key in db_keys]
    values += [k / 10.0 for k in range(-3000, 3001)]  # -300..300 dB by 0.1 dB
    assert len(values) == 6017
    for x in values:
        truth = float(exact_pow10(x / 10.0))
        assert db_to_linear(x) in (math.nextafter(truth, -math.inf), truth,
                                   math.nextafter(truth, math.inf)), x


@pytest.mark.parametrize("value", [1, np.float64(1.0), np.int64(1), np.float32(1.0)],
                         ids=["int", "float64", "int64", "float32"])
def test_scenario_stores_every_field_as_a_float(fig3, value):
    # an int or numpy scalar once kept its type, so an equal value rendered
    # as 1, np.float64(1.0) or true in the CSV and hashed differently
    sweep = SweepSpec(start=0.0, stop=100.0, steps=5, overlay_values=(7.0, 8.0))
    want = fig3.replace(p_a=1.0)
    got = fig3.replace(p_a=value)
    assert all(type(getattr(got, f.name)) is float
               for f in dataclasses.fields(got))
    assert got.canonical_hash() == want.canonical_hash()
    assert (render_csv(run_rate_sweep(got, sweep))
            == render_csv(run_rate_sweep(want, sweep)))


@pytest.mark.parametrize("value", [True, False, np.True_, "1.0", 1 + 0j, None],
                         ids=["true", "false", "numpy-bool", "str", "complex", "none"])
def test_scenario_rejects_bool_and_non_real_fields(fig3, value):
    with pytest.raises(ConfigError, match=r"^p_a must be a real number, got "):
        fig3.replace(p_a=value)


def test_scenario_hash_tracks_fields(fig2):
    assert fig2.canonical_hash() != fig2.replace(p_u=3.0).canonical_hash()


def test_scenario_hash_is_the_json_payload_hash(fig2, fig3, fig4, fig5):
    rng = np.random.default_rng(8)
    scenarios = [fig2, fig3, fig4, fig5, fig2.replace(h=0, p_u=2),
                 fig3.replace(h=-0.0)] + [draw_scenario(rng) for _ in range(50)]
    for sc in scenarios:
        assert sc.canonical_hash() == json_canonical_hash(sc)
    hs = [0, -0.0, 0.0, 5e-324, 12.5, 99.99999999999999, 1e200]
    # a scenario stores the int 0 as 0.0, so its hash splices in "0.0"
    assert _canonical_hashes(fig3, "h", [repr(float(h)) for h in hs]) == [
        json_canonical_hash(fig3.replace(h=h)) for h in hs]


def test_spliced_epsilon_hashes_match_replaced_scenarios(fig2, fig5):
    epsilons = [0.01, 0.010526315789473684, 0.5, 1e-300, 5e-324,
                0.9999999999999999, np.nextafter(0.02, 1.0).item()]
    for sc in (fig2, fig5, fig5.replace(p_j=10.0)):
        assert _canonical_hashes(sc, "epsilon", [repr(e) for e in epsilons]) == [
            sc.replace(epsilon=e).canonical_hash() for e in epsilons] == [
            json_canonical_hash(sc.replace(epsilon=e)) for e in epsilons]


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Scenario)])
def test_spliced_hashes_match_replaced_scenarios_for_every_field(fig3, name):
    # the template head before "beta" (first in key order) is shorter than
    # one 64-byte SHA-256 block, the heads before the last keys are longer
    rng = np.random.default_rng(15)
    for sc in (fig3, draw_scenario(rng), draw_scenario(rng)):
        v = getattr(sc, name)
        # p_max stays at or above the powers it caps
        up = name == "p_max"
        factors = (2.0, 3.0, 1e300) if up else (0.5, 1.0 / 3.0, 1e-300)
        values = [v, 0.0 * v, np.nextafter(v, math.inf if up else 0.0).item()] + [
            v * f for f in factors]
        if name not in ("h", "r_s"):  # the only fields that may be 0
            values = [x for x in values if x > 0.0]
        assert _canonical_hashes(sc, name, [repr(x) for x in values]) == [
            json_canonical_hash(sc.replace(**{name: x})) for x in values]
