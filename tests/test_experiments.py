import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

import uavcovert.constraints
import uavcovert.optimizer
from uavcovert import experiments
from uavcovert import (
    ConfigError, GridSpec, NumericalError, Scenario, SweepSpec,
    covert_height_bound, render_csv, run_covertness_sweep,
    run_detection_sweep, run_rate_sweep, run_validation,
    secrecy_rate_at_height, write_csv,
)
from uavcovert.experiments import (
    COVERTNESS_COLUMNS, DETECTION_COLUMNS, RATE_COLUMNS, mc_zeta_tolerance,
)

from uavcovert.cli import main
from uavcovert.model import _canonical_hashes

from conftest import (
    SCENARIOS, draw_scenario, expand_rows, json_canonical_hash,
    monotone_by_overlay, per_epsilon_covertness_oracle, per_row_rate_oracle,
    rate_report, reference_render_csv, traced_peak_bytes,
)


def detection_sweep_spec(steps=8, overlays=(2.0, 3.0, 4.0)):
    return SweepSpec(start=0.0, stop=1.0, steps=steps, overlay_values=overlays)


# -- sweep spec --------------------------------------------------------------

def test_sweepspec_validation():
    good = detection_sweep_spec()
    assert len(good.points()) == 8
    with pytest.raises(ConfigError):
        SweepSpec(1.0, 0.0, 5, (2.0,))
    with pytest.raises(ConfigError):
        SweepSpec(0.0, 1.0, 0, (2.0,))
    with pytest.raises(ConfigError):
        SweepSpec(0.0, 1.0, 5, (2.0, 2.0))
    with pytest.raises(ConfigError):
        SweepSpec(0.0, 1.0, 5, ())
    with pytest.raises(ConfigError):
        SweepSpec(0.0, 1.0, 1, (2.0,))
    for start, stop in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
                        (0.0, math.nan), (math.inf, math.inf)):
        with pytest.raises(ConfigError):
            SweepSpec(start, stop, 5, (2.0,))


def test_sweepspec_degenerate_single_point():
    spec = SweepSpec(50.0, 50.0, 1, (7.0,))
    assert list(spec.points()) == [50.0]


# -- detection sweep ---------------------------------------------------------

def test_detection_sweep_records(fig2):
    records = expand_rows(run_detection_sweep(fig2, detection_sweep_spec(),
                                              n_trials=4000, seed=3))
    assert len(records) == 24
    keys = [(r["p_u"], r["gamma"]) for r in records]
    assert keys == sorted(keys)
    for r in records:
        assert all(type(r[c]) is float for c in ("gamma", "p_fa", "p_md", "zeta"))
        assert r["zeta"] == r["p_fa"] + r["p_md"]
        assert r["zeta_mc"] == r["p_fa_mc"] + r["p_md_mc"]
        assert abs(r["zeta_mc"] - r["zeta"]) <= mc_zeta_tolerance(
            r["zeta"], r["n_trials"], floor=0.05)
        assert r["n_trials"] == 4000 and r["seed"] == 3
        assert len(r["scenario_hash"]) == 16


def test_detection_sweep_single_trial_degenerate(fig2):
    records = expand_rows(run_detection_sweep(fig2, detection_sweep_spec(steps=6),
                                              n_trials=1, seed=5))
    assert all(r["zeta_mc"] in (0.0, 0.5, 1.0) for r in records)


def test_detection_sweep_deterministic_across_runs(fig2):
    spec = detection_sweep_spec(steps=5)
    first = run_detection_sweep(fig2, spec, n_trials=2000, seed=11)
    again = run_detection_sweep(fig2, spec, n_trials=2000, seed=11)
    assert render_csv(first, DETECTION_COLUMNS) == render_csv(
        again, DETECTION_COLUMNS)


# -- rate sweep --------------------------------------------------------------

def rate_sweep_spec(overlays=(7.0, 8.0, 9.0), stop=100.0, steps=21):
    return SweepSpec(start=0.0, stop=stop, steps=steps, overlay_values=overlays)


def test_rate_sweep_records(fig3):
    records = expand_rows(run_rate_sweep(fig3, rate_sweep_spec()))
    assert len(records) == 63
    flags = monotone_by_overlay(records, y="c_s", group="p_u", x="h")
    assert all(flags.values())
    flags = monotone_by_overlay(records, y="r_b", group="p_u", x="h")
    assert all(flags.values())
    for r in records:
        assert r["c_s"] == r["c_b"] - r["c_u"]
        assert r["r_b"] == r["c_b"]


def test_rate_sweep_single_point(fig3):
    spec = SweepSpec(40.0, 40.0, 1, (7.0,))
    records = expand_rows(run_rate_sweep(fig3, spec))
    assert len(records) == 1
    assert records[0]["h"] == 40.0


def assert_same_records(got, want):
    """Equal field by field, down to the sign of zero and the value's type."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w
        assert {k: repr(v) for k, v in g.items()} == {
            k: repr(v) for k, v in w.items()}


def test_rate_sweep_matches_per_row_oracle_on_random_sweeps():
    rng = np.random.default_rng(20)
    for _ in range(60):
        scenario = draw_scenario(rng)
        steps = int(rng.integers(1, 40))
        start = float(rng.choice([0.0, rng.uniform(0.0, 300.0)]))
        stop = start if steps == 1 else start + float(rng.uniform(1e-3, 500.0))
        overlays = tuple(float(v) for v in rng.choice(
            np.linspace(1.0, 30.0, 59), size=int(rng.integers(1, 5)),
            replace=False))
        spec = SweepSpec(start, stop, steps, overlays)
        seed = int(rng.integers(0, 2**31))
        records = expand_rows(run_rate_sweep(scenario, spec, seed=seed))
        assert_same_records(records, per_row_rate_oracle(scenario, spec, seed=seed))
        assert all(type(v) is float for r in records for k, v in r.items()
                   if k not in ("seed", "scenario_hash"))


@pytest.mark.parametrize("start, stop, steps", [
    (-0.0, -0.0, 1),            # a negative zero altitude stays -0.0
    (-0.0, 50.0, 6),
    (40.0, 40.0, 1),
    (0.0, 1e-310, 7),           # subnormal altitudes: h*h underflows to 0
    (5e-324, 5e-324, 1),
    (1e100, 1e200, 5),          # h*h overflows to inf
    (0.0, 1e200, 4),
])
def test_rate_sweep_matches_per_row_oracle_on_edges(fig3, fig4, start, stop, steps):
    for scenario, overlays in ((fig3, (9.0, 7.0, 8.0)), (fig4, (2.0,))):
        spec = SweepSpec(start, stop, steps, overlays)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = expand_rows(run_rate_sweep(scenario, spec, seed=5))
        assert_same_records(records, per_row_rate_oracle(scenario, spec, seed=5))
        if steps == 1:
            assert all(repr(r["h"]) == repr(start) for r in records)
        h_values = spec.points().tolist()
        for p_u in overlays:
            sc = scenario.replace(p_u=p_u, h=h_values[0])
            assert _canonical_hashes(sc, "h", [repr(h) for h in h_values]) == [
                sc.replace(h=h).canonical_hash() for h in h_values] == [
                json_canonical_hash(sc.replace(h=h)) for h in h_values]
            if repr(start) == "-0.0" and steps == 1:
                assert sc.canonical_hash() != sc.replace(h=0.0).canonical_hash()


def test_rate_sweep_self_check_catches_rising_capacity(fig3, monkeypatch, tmp_path):
    real_snrs_at = experiments.snrs_at

    def rising(scenario, p_u, p_j, h):
        gamma_u, gamma_b = real_snrs_at(scenario, p_u, p_j, h)
        return gamma_u, gamma_b + h

    monkeypatch.setattr(experiments, "snrs_at", rising)
    with pytest.raises(NumericalError, match="not decreasing"):
        run_rate_sweep(fig3, rate_sweep_spec(steps=5))
    out = tmp_path / "rates.csv"
    assert main(["rate-sweep", "--scenario", str(SCENARIOS / "fig3.json"),
                 "--out", str(out), "--steps", "5"]) == 4
    assert not out.exists()


def test_rate_sweep_rejects_negative_altitude(fig3):
    with pytest.raises(ConfigError, match="h >= 0"):
        run_rate_sweep(fig3, SweepSpec(-1.0, 10.0, 4, (7.0,)))


# -- covertness sweep --------------------------------------------------------

def covertness_sweep_spec(steps=4, overlays=(5.0, 10.0, 15.0)):
    return SweepSpec(start=0.01, stop=0.02, steps=steps, overlay_values=overlays)


def test_covertness_sweep_records(fig5):
    p_u_values = GridSpec.linear(fig5.p_max, fig5.p_max, p_u_steps=15,
                                 p_j_steps=1).p_u_values
    records = expand_rows(run_covertness_sweep(fig5, covertness_sweep_spec(),
                                               p_u_values, seed=2))
    assert len(records) == 12
    assert all(r["feasible"] for r in records)
    for r in records:
        assert r["h_star"] == r["h_min"]
        assert r["p_j_star"] == r["p_j"]
        assert r["r_b_star"] > 0.0
        sc = fig5.replace(p_j=r["p_j"], epsilon=r["epsilon"])
        assert r["scenario_hash"] == json_canonical_hash(sc) == sc.canonical_hash()
    flags = monotone_by_overlay(records, y="r_b_star", group="p_j",
                                x="epsilon", decreasing=False)
    # nondecreasing is guaranteed; strict increase holds at this preset
    assert all(flags.values())


def test_covertness_sweep_records_infeasible_rows(fig4):
    # pinned to the infeasible base forward power: every point reports
    # feasible=false instead of being dropped
    spec = SweepSpec(0.01, 0.02, 3, (fig4.p_j,))
    records = expand_rows(run_covertness_sweep(fig4, spec, (fig4.p_u,), seed=2))
    assert len(records) == 3
    assert all(not r["feasible"] for r in records)
    assert all(math.isnan(r["r_b_star"]) for r in records)


def test_covertness_sweep_tight_epsilon_infeasible(fig5):
    # covertness so tight that the required altitude overshoots the
    # security ceiling even at the power cap
    spec = SweepSpec(0.0005, 0.0006, 2, (5.0,))
    records = expand_rows(run_covertness_sweep(fig5, spec, (fig5.p_max,)))
    assert len(records) == 2
    assert not any(r["feasible"] for r in records)


def test_covertness_sweep_single_epsilon(fig5):
    spec = SweepSpec(0.015, 0.015, 1, (5.0, 10.0))
    p_u_values = GridSpec.linear(fig5.p_max, fig5.p_max, p_u_steps=8,
                                 p_j_steps=1).p_u_values
    records = expand_rows(run_covertness_sweep(fig5, spec, p_u_values))
    assert [(r["p_j"], r["epsilon"]) for r in records] == [
        (5.0, 0.015), (10.0, 0.015)]


@pytest.mark.parametrize("start, stop", [(0.0, 0.02), (0.5, 1.0), (-0.1, 0.5)])
def test_covertness_sweep_rejects_epsilon_outside_unit_interval(fig5, start, stop):
    with pytest.raises(ConfigError, match=r"inside \(0, 1\)"):
        run_covertness_sweep(fig5, SweepSpec(start, stop, 3, (5.0,)), (fig5.p_max,))


@pytest.mark.parametrize("p_u_values", [(), (0.0, 1.0), (2.0, 1.0), (1.0, math.inf)])
def test_covertness_sweep_validates_power_grid(fig5, p_u_values):
    with pytest.raises(ConfigError, match="p_u_values"):
        run_covertness_sweep(fig5, covertness_sweep_spec(steps=2), p_u_values)


def assert_same_blocks(got, want):
    """Same blocks with the same columns in the same order, and on every
    column equal ``repr`` and ``==`` cell by cell, NaN matching NaN."""
    assert len(got) == len(want)
    for block, reference in zip(got, want):
        assert list(block) == list(reference)
        for column, value in reference.items():
            assert type(block[column]) is type(value), column
            assert repr(block[column]) == repr(value), column
            pairs = zip(block[column], value) if type(value) is list else [
                (block[column], value)]
            assert all(a == b or (a != a and b != b) for a, b in pairs), column


def random_covertness_sweep(rng, kind):
    """A drawn scenario, epsilon sweep and p_u grid for the per-epsilon
    oracle.  The grid runs up to 45 W, above the 30 W cap; ``kind`` picks
    r_s = 0, epsilons so tight their covert floor lies above the search
    ceiling, a 1-step sweep, or r_s put on C_s(h_min) (or 1e-12 either
    side) at one (epsilon, p_u, p_j), inside the guard band."""
    s = draw_scenario(rng, d_w2=float(rng.uniform(5.0, 300.0)),
                      r_s=float(rng.uniform(0.0, 0.05)))
    start = float(10.0 ** rng.uniform(-14.0, -10.0) if kind == "tight"
                  else 10.0 ** rng.uniform(-2.5, -0.5))
    steps = 1 if kind == "1-step" else int(rng.integers(2, 9))
    stop = start if steps == 1 else min(start * float(rng.uniform(1.1, 10.0)), 0.99)
    overlays = tuple(float(v) for v in rng.choice(
        np.arange(1.0, 30.5, 0.5), size=int(rng.integers(1, 4)), replace=False))
    sweep = SweepSpec(start, stop, steps, overlays)
    p_u_values = GridSpec.linear(float(rng.uniform(5.0, 45.0)), 1.0,
                                 p_u_steps=int(rng.integers(1, 13)),
                                 p_j_steps=1).p_u_values
    if kind == "r_s=0":
        s = s.replace(r_s=0.0)
    elif kind == "guard":
        for _ in range(10):  # until C_s(h_min) leaves room for r_s >= 0
            p_u = float(rng.choice([v for v in p_u_values if v <= s.p_max]
                                   or [s.p_max]))
            p_j = float(rng.choice(overlays))
            epsilon = float(rng.choice(sweep.points()))
            h = covert_height_bound(p_u, p_j, s.beta, epsilon, s.d_w2)
            r_s = secrecy_rate_at_height(s.replace(p_u=p_u, p_j=p_j), h) + float(
                rng.choice([-1e-12, 0.0, 1e-12]))
            if r_s >= 0.0:
                return s.replace(r_s=r_s), sweep, p_u_values
    return s, sweep, p_u_values


@pytest.mark.parametrize("log2_skew, blocks", [
    (0.0, None), (math.inf, None), (-math.inf, None), (0.0, (3, 7))])
def test_covertness_sweep_matches_per_epsilon_oracle(monkeypatch, log2_skew,
                                                      blocks):
    # a skew moves np.log2 results one ULP, alternately up and down, as
    # another libm may, so that guard-band points reach the scalar solver;
    # small blocks split the grid into many (epsilon, p_u) passes
    if blocks:
        monkeypatch.setattr(uavcovert.optimizer, "_BLOCK_POINTS", blocks[0])
        monkeypatch.setattr(uavcovert.optimizer, "_BLOCK_CELLS", blocks[1])
    if log2_skew:
        log2, turn = np.log2, itertools.count()
        monkeypatch.setattr(np, "log2", lambda x: np.nextafter(
            log2(x), log2_skew if next(turn) % 2 else -log2_skew))
    solve = uavcovert.optimizer.feasible_interval
    fallbacks = []
    monkeypatch.setattr(uavcovert.optimizer, "feasible_interval",
                        lambda scenario: fallbacks.append(1) or solve(scenario))
    rng, trials = np.random.default_rng(20261018), 200
    kinds = ("random", "r_s=0", "tight", "1-step", "guard")
    seen = dict.fromkeys(("feasible", "infeasible", "tight", "above_cap",
                          "fallbacks"), 0)
    for trial in range(trials):
        kind = kinds[trial % len(kinds)]
        s, sweep, p_u_values = random_covertness_sweep(rng, kind)
        fallbacks.clear()
        got = run_covertness_sweep(s, sweep, p_u_values, seed=trial)
        seen["fallbacks"] += len(fallbacks)
        want = per_epsilon_covertness_oracle(s, sweep, p_u_values, seed=trial)
        assert_same_blocks(got, want)
        assert render_csv(got, COVERTNESS_COLUMNS) == render_csv(
            want, COVERTNESS_COLUMNS)
        flags = [f for block in want for f in block["feasible"]]
        seen["feasible"] += sum(flags)
        seen["infeasible"] += len(flags) - sum(flags)
        seen["tight"] += kind == "tight" and not any(flags)
        seen["above_cap"] += p_u_values[-1] > s.p_max
    assert seen["feasible"] >= trials and seen["infeasible"] >= trials
    assert seen["tight"] >= trials // 10 and seen["above_cap"] >= trials // 5
    assert seen["fallbacks"] >= 10  # the guard band reaches the solver


def test_covertness_sweep_keeps_the_solvers_numerical_errors(fig5, monkeypatch):
    p_u_values = (10.0, 20.0, 30.0)
    sweep = SweepSpec(0.01, 0.02, 5, (15.0,))
    epsilon = float(sweep.points()[2])
    h_min = covert_height_bound(10.0, 15.0, fig5.beta, epsilon, fig5.d_w2)
    on_guard = fig5.replace(r_s=secrecy_rate_at_height(
        fig5.replace(p_u=10.0, p_j=15.0), h_min))
    solve = uavcovert.constraints.security_height_bound

    def not_an_interval(scenario):
        if scenario.p_u == 10.0:  # an uncertain point, never an argmax
            raise NumericalError("secrecy rate re-crosses the threshold")
        return solve(scenario)
    monkeypatch.setattr(uavcovert.constraints, "security_height_bound",
                        not_an_interval)
    for runner in (per_epsilon_covertness_oracle, run_covertness_sweep):
        with pytest.raises(NumericalError, match="re-crosses"):
            runner(on_guard, sweep, p_u_values)

    def raises_at_argmax(scenario):
        raise NumericalError("secrecy rate re-crosses the threshold")
    monkeypatch.setattr(uavcovert.constraints, "security_height_bound", solve)
    monkeypatch.setattr(uavcovert.optimizer, "security_height_bound",
                        raises_at_argmax)
    for runner in (per_epsilon_covertness_oracle, run_covertness_sweep):
        with pytest.raises(NumericalError, match="re-crosses"):
            runner(fig5, sweep, p_u_values)

    monkeypatch.setattr(uavcovert.optimizer, "security_height_bound", solve)
    monkeypatch.setattr(uavcovert.optimizer, "covert_height_bound",
                        lambda *args: covert_height_bound(*args) + 1e-3)
    for runner in (per_epsilon_covertness_oracle, run_covertness_sweep):
        with pytest.raises(NumericalError, match="grid verdict disagrees"):
            runner(fig5, sweep, p_u_values)


def test_covertness_sweep_solves_security_once_per_argmax(fig5, monkeypatch):
    # the security ceiling ignores epsilon: one solve per distinct argmax
    # (p_u, p_j) of an overlay, and no Scenario built per certain row
    solves, replaces = [], []
    for module in (uavcovert.constraints, uavcovert.optimizer):
        def spy(scenario, solve=module.security_height_bound):
            solves.append((scenario.p_u, scenario.p_j))
            return solve(scenario)
        monkeypatch.setattr(module, "security_height_bound", spy)
    replace = Scenario.replace

    def counted(self, **changes):
        replaces.append(changes)
        return replace(self, **changes)
    monkeypatch.setattr(Scenario, "replace", counted)
    sweep = SweepSpec(0.01, 0.02, 20, (5.0, 10.0, 15.0))  # the fig5 default
    p_u_values = GridSpec.linear(fig5.p_max, fig5.p_max, p_u_steps=12,
                                 p_j_steps=1).p_u_values
    blocks = run_covertness_sweep(fig5, sweep, p_u_values)
    argmaxes = {(p_u, block["p_j"]) for block in blocks
                for p_u, feasible in zip(block["p_u_star"], block["feasible"])
                if feasible}
    assert len(argmaxes) <= 10  # of 60 feasible rows
    assert len(solves) == len(set(solves)) and set(solves) <= argmaxes
    assert len(replaces) <= len(blocks) + len(argmaxes)


# -- CSV rendering -----------------------------------------------------------

def test_render_csv_round_trips_floats(fig2):
    blocks = run_detection_sweep(fig2, detection_sweep_spec(steps=4),
                                 n_trials=50, seed=1)
    text = render_csv(blocks, DETECTION_COLUMNS)
    records = expand_rows(blocks)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(DETECTION_COLUMNS)
    cells = lines[1].split(",")
    parsed = dict(zip(DETECTION_COLUMNS, cells))
    for column in ("gamma", "p_fa", "zeta_mc", "beta", "sigma_w2"):
        assert float(parsed[column]) == records[0][column]
    assert parsed["scenario_hash"] == records[0]["scenario_hash"]


class FreshFloats(dict):
    """A record, holding no list, whose every lookup returns a new float
    object, so that a freed cell's id is free for the next column's
    objects to reuse."""

    def __init__(self, row):
        self.row = row

    def __getitem__(self, column):
        return self.row + 1.0 / (1.0 + len(column))


class Tenths(float):
    def __repr__(self):
        return f"Tenths({float(self) * 10.0!r})"


class Shouting(str):
    def __str__(self):
        return self.upper()


def _render_cases() -> dict:
    shared, zero, negative_zero = 0.1 + 0.2, 0.0, -0.0
    mixed = [{"a": shared, "b": 0.1 * i, "c": shared if i % 2 else 0.3,
              "d": i, "e": "x" * (i % 3), "f": shared if i < 3 else f"{i}"}
             for i in range(7)]
    return {
        "mixed-shared-and-fresh": (mixed, ("a", "b", "c", "d", "e", "f")),
        "signed-zeros": (
            [{"a": zero, "b": negative_zero, "c": v, "d": w}
             for v, w in ((zero, 1), (negative_zero, 2), (zero, "z"),
                          (-0.0, negative_zero))],
            ("a", "b", "c", "d")),
        "true-one-one-point-zero": (
            [{"a": v, "b": True, "c": 1, "d": 1.0}
             for v in (True, 1, 1.0, False, 0, 0.0, True)],
            ("b", "c", "d", "a")),
        "special-floats": (
            [{"a": v, "b": math.nan, "c": v, "d": u}
             for v, u in ((math.nan, 1), (math.inf, math.nan), (-math.inf, "s"),
                          (1e16, float("nan")), (5e-324, -5e-324))],
            ("a", "b", "c", "d")),
        "str-and-int": (
            [{"name": f"row{i % 2}", "count": i * 10 ** i, "seed": 7, "hash": "ab"}
             for i in range(5)],
            ("hash", "count", "name", "seed")),
        "column-under-two-names": (
            [{"a": 0.5 * i, "b": 2.0, "c": i} for i in range(4)],
            ("a", "b", "a", "c", "b", "c")),
        "float-subclasses": (
            [{"a": v, "b": Tenths(i), "c": np.float64(i)}
             for i, v in enumerate((0.1, np.float64(0.1), Tenths(0.1), 0.1))],
            ("a", "b", "c")),
        "blocks": (
            [{"a": shared, "b": zero if i < 300 else negative_zero, "c": 0.5 * i,
              "d": i % 3 == 0, "e": f"h{i // 50}", "f": 7}
             for i in range(515)],
            ("a", "b", "c", "d", "e", "f", "c")),
        "str-subclass": (
            [{"a": v, "b": "x", "c": f"r{i}"}
             for i, v in enumerate(("p", Shouting("q"), "q", Shouting("p")))],
            ("a", "b", "c", "a")),
        "zero-records": ([], ("a", "b")),
        "one-record": ([{"a": -0.0, "b": True, "c": "s", "d": 3}], ("a", "b", "c", "d")),
        "one-record-last-block": (
            [{"a": 0.5 * i, "b": i % 2 == 0, "c": shared, "d": 1}
             for i in range(257)],
            ("a", "b", "c", "d", "c")),
        "fresh-floats": ([FreshFloats(i) for i in range(20)], ("a", "bb", "ccc")),
        "fresh-floats-with-ints": (
            [FreshFloats(i) for i in range(20)] + [{"a": 1, "bb": 2, "ccc": 3}],
            ("a", "bb", "ccc", "a")),
        "fresh-floats-over-blocks": (
            [FreshFloats(i) if i % 100 else {"a": i, "bb": True, "ccc": "s"}
             for i in range(376)],
            ("a", "bb", "ccc")),
    }


@pytest.mark.parametrize("case", sorted(_render_cases()))
def test_render_csv_matches_row_at_a_time_reference(case):
    records, columns = _render_cases()[case]
    assert render_csv(records, columns) == reference_render_csv(records, columns)


_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, True,
                     False, 1, 0, 1.0]),
    st.integers(),
    st.floats().map(np.float64),
    st.floats().map(Tenths),
    st.text("pq,", max_size=3),
    st.text("pq", max_size=3).map(Shouting),
)


@st.composite
def column_blocks(draw):
    """Blocks over columns a-d, each column a scalar, a fresh list (of
    mixed cells or of exact floats), or a list the block already holds or
    the previous block held; the CSV may name a column twice."""
    names = ("a", "b", "c", "d")
    columns = tuple(draw(st.lists(st.sampled_from(names), min_size=1, max_size=6)))
    blocks, previous = [], []
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(0, 4))
        block, held = {}, [v for v in previous if len(v) == n]
        for name in names:
            kind = draw(st.sampled_from(("scalar", "cells", "floats", "held")))
            if kind == "scalar":
                block[name] = draw(_CELLS)
            elif kind == "held" and held:
                block[name] = draw(st.sampled_from(held))
            else:
                block[name] = draw(st.lists(
                    st.floats() if kind == "floats" else _CELLS, min_size=n, max_size=n))
                held.append(block[name])
        previous = [v for v in block.values() if type(v) is list]
        blocks.append(block)
    return blocks, columns


_SHARED = [0.0, -0.0, math.nan, 0.1]


@given(column_blocks())
@example(([{"a": _SHARED, "b": _SHARED, "c": 5e-324, "d": [True, 1, 1.0, -0.0]},
           {"a": _SHARED, "b": [math.inf, np.float64(0.1), Tenths(0.2), Shouting("q")],
            "c": Shouting("p"), "d": [1.0, -0.0, 0.0, True]}],
          ("a", "b", "c", "d", "a")))
@settings(max_examples=300, deadline=None)
def test_render_csv_blocks_match_row_at_a_time_reference(case):
    blocks, columns = case
    assert render_csv(blocks, columns) == reference_render_csv(expand_rows(blocks), columns)


def test_render_csv_rejects_ragged_block():
    with pytest.raises(ValueError, match="differ in length"):
        render_csv([{"a": [1.0, 2.0], "b": [3.0], "c": 7}], ("a", "b", "c"))


def test_sweep_blocks_share_their_lists(fig2, fig3, fig5):
    rate = run_rate_sweep(fig3, rate_sweep_spec(steps=4))
    detection = run_detection_sweep(fig2, detection_sweep_spec(steps=3),
                                    n_trials=10, seed=1)
    covertness = run_covertness_sweep(fig5, covertness_sweep_spec(steps=2),
                                      (fig5.p_max,))
    for blocks, swept in ((rate, "h"), (detection, "gamma"), (covertness, "epsilon")):
        assert len(blocks) == 3
        assert all(b[swept] is blocks[0][swept] for b in blocks)
    assert all(b["r_b"] is b["c_b"] for b in rate)
    assert all(b["h_min"] is b["h_star"] for b in covertness)


def test_rate_sweep_csv_memory_per_row(fig3):
    # 1,500 rows of 25 columns: the blocks, one block's cells and the text
    # peak near 1.1 KB a row; a dict per row took 1.76 KB
    spec = SweepSpec(0.0, 25.0, 500, (6.25, 7.5, 9.75))
    peak = traced_peak_bytes(lambda: render_csv(run_rate_sweep(fig3, spec), RATE_COLUMNS))
    assert peak / 1500 < 1450


def test_write_csv_leaves_file_unchanged_when_render_raises(tmp_path, fig3):
    out = tmp_path / "rates.csv"
    records = run_rate_sweep(fig3, rate_sweep_spec(steps=3))
    write_csv(out, records, RATE_COLUMNS)
    before = out.read_bytes()
    del records[-1]["c_s"]
    with pytest.raises(KeyError):
        write_csv(out, records, RATE_COLUMNS)
    assert out.read_bytes() == before


def test_csv_columns_prefixed_by_scenario():
    for columns in (DETECTION_COLUMNS, RATE_COLUMNS, COVERTNESS_COLUMNS):
        assert columns[:14] == ("d_a2", "d_b2", "d_w2", "h", "beta", "p_a",
                                "p_u", "p_j", "p_max", "sigma_u2", "sigma_b2",
                                "sigma_w2", "epsilon", "r_s")


def test_records_recomputable_from_scenario_columns(fig2, fig3):
    # closed-form outputs must follow from the row's own scenario columns
    from uavcovert import Scenario, error_curve, optimal_detection

    det = run_detection_sweep(fig2, detection_sweep_spec(steps=5),
                              n_trials=100, seed=6)
    for row in expand_rows(det):
        text = render_csv([row], DETECTION_COLUMNS).strip().split("\n")[1]
        parsed = dict(zip(DETECTION_COLUMNS, text.split(",")))
        rebuilt = Scenario(**{k: float(parsed[k]) for k in DETECTION_COLUMNS[:14]})
        assert error_curve(rebuilt, [float(parsed["gamma"])])[2][0] == row["zeta"]
        assert optimal_detection(rebuilt).gamma_star == row["gamma_star"]

    rates = run_rate_sweep(fig3, rate_sweep_spec(steps=5))
    for row in expand_rows(rates):
        text = render_csv([row], RATE_COLUMNS).strip().split("\n")[1]
        parsed = dict(zip(RATE_COLUMNS, text.split(",")))
        rebuilt = Scenario(**{k: float(parsed[k]) for k in RATE_COLUMNS[:14]})
        assert rate_report(rebuilt).c_s == row["c_s"]


# -- validation suite --------------------------------------------------------

def test_run_validation_passes(fig2):
    checks = run_validation(fig2, n_trials=30_000, n_symbols=60_000, seed=4,
                            gamma_points=8)
    assert [c.name for c in checks] == [
        "detection_error_mc_vs_closed",
        "relay_forwarded_power_unit",
        "destination_snr_mc_vs_closed",
    ]
    assert all(c.passed for c in checks)


@pytest.mark.parametrize("gamma_points", [0, -3])
def test_run_validation_rejects_empty_threshold_grid(fig2, gamma_points):
    with pytest.raises(ConfigError, match="gamma_points"):
        run_validation(fig2, n_trials=10, n_symbols=10, gamma_points=gamma_points)


def test_run_validation_deterministic(fig2):
    a = run_validation(fig2, n_trials=5_000, n_symbols=10_000, seed=4,
                       gamma_points=4)
    b = run_validation(fig2, n_trials=5_000, n_symbols=10_000, seed=4,
                       gamma_points=4)
    assert a == b
