import dataclasses
import itertools
import math
import re
import threading
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

import uavcovert.constraints
import uavcovert.optimizer
from uavcovert import experiments
from uavcovert import (
    ConfigError, NumericalError, Scenario, SweepSpec, maximize_covert_rate,
    run_covertness_sweep, run_detection_sweep, run_rate_sweep, run_validation,
    write_csv,
)
from uavcovert.detection import error_curve, optimal_detection, simulate_detection
from uavcovert.experiments import mc_zeta_tolerance, render_csv
from uavcovert.rates import simulate_destination_snr

from uavcovert.cli import main
from uavcovert.model import _canonical_hashes

from conftest import (
    SCENARIOS, box_axis, covert_floor, draw_scenario, expand_rows, forbid_work,
    json_canonical_hash, monotone_by_overlay, per_epsilon_covertness_oracle,
    per_row_rate_oracle, rate_report, reference_cell, reference_detection,
    reference_render_csv, traced_peak_bytes,
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
    for steps in (2.5, True):  # not an int, or a bool taken as one step
        with pytest.raises(ConfigError, match="steps must be a positive integer"):
            SweepSpec(1.0, 1.0 if steps is True else 2.0, steps, (2.0,))
    for start, stop in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
                        (0.0, math.nan), (math.inf, math.inf)):
        with pytest.raises(ConfigError):
            SweepSpec(start, stop, 5, (2.0,))
    # finite bounds whose span overflows would give inf and nan points
    for start, stop in ((-1e308, 1e308), (-1.7976931348623157e308, 1e300)):
        with pytest.raises(ConfigError, match="span stop - start, got"):
            SweepSpec(start, stop, 3, (2.0,))
    assert SweepSpec(-8e307, 8e307, 3, (2.0,)).points().tolist() == [-8e307, 0.0, 8e307]
    # the bounds are stored as floats and the overlays as a tuple of them
    for overlays in ([1, 2.0], (v for v in (np.float64(1.0), 2.0))):
        spec = SweepSpec(0, 1, 2, overlays)
        assert spec == SweepSpec(0.0, 1.0, 2, (1.0, 2.0)) and hash(spec) is not None
        assert [type(v) for v in (spec.start, spec.stop, *spec.overlay_values)] == [float] * 4


def test_sweepspec_degenerate_single_point():
    spec = SweepSpec(50.0, 50.0, 1, (7.0,))
    assert list(spec.points()) == [50.0]


_RUNNERS = {
    "detect-sweep": lambda s, seed: run_detection_sweep(
        s, detection_sweep_spec(steps=3), 10, seed),
    "rate-sweep": lambda s, seed: run_rate_sweep(
        s, SweepSpec(0.0, 100.0, 3, (7.0,)), seed),
    "covertness-sweep": lambda s, seed: run_covertness_sweep(
        s, SweepSpec(0.01, 0.02, 3, (5.0,)), 2, seed),
    "validate": lambda s, seed: run_validation(s, n_trials=10, n_symbols=10, seed=seed),
}


@pytest.mark.parametrize("seed", [-1, 2.5, True], ids=["negative", "float", "bool"])
@pytest.mark.parametrize("runner", list(_RUNNERS))
def test_runners_reject_a_seed_that_is_not_a_non_negative_int(fig5, monkeypatch,
                                                              runner, seed):
    # a bad seed never reaches a CSV's seed column or numpy's SeedSequence
    forbid_work(monkeypatch)
    message = f"seed must be a non-negative integer, got {seed!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        _RUNNERS[runner](fig5, seed)


_OVERLAY_RUNNERS = pytest.mark.parametrize("runner, field", [
    (lambda s, sweep: run_detection_sweep(s, sweep, 10, 0), "p_u"),
    (lambda s, sweep: run_rate_sweep(s, sweep), "p_u"),
    (lambda s, sweep: run_covertness_sweep(s, sweep, 2), "p_j"),
], ids=["detect-sweep", "rate-sweep", "covertness-sweep"])


@_OVERLAY_RUNNERS
def test_runners_check_every_overlay_before_any_work(fig5, monkeypatch, runner, field):
    # the largest overlay is above p_max: reported before the first one runs;
    # a negative one is reported by the scenario, under the runner's own field
    forbid_work(monkeypatch)
    for overlays, message in (
            ((2.0 * fig5.p_max, 5.0), f"{field} exceeds p_max (60.0 > 30.0)"),
            ((5.0, -1.0), f"{field} must be finite and > 0, got -1.0")):
        with pytest.raises(ConfigError, match=re.escape(message)):
            runner(fig5, SweepSpec(0.01, 0.02, 3, overlays))


@_OVERLAY_RUNNERS
def test_runners_build_one_plain_scenario_per_overlay(fig5, monkeypatch, runner, field):
    # each overlay is one replace of the overlay field alone, in ascending
    # order; no row (3 per overlay here) builds a scenario of its own
    replaces = []
    replace = Scenario.replace

    def counted(self, **changes):
        replaces.append(changes)
        return replace(self, **changes)
    monkeypatch.setattr(Scenario, "replace", counted)
    blocks = runner(fig5, SweepSpec(0.01, 0.02, 3, (10.0, 2.0, 5.0)))
    assert replaces == [{field: 2.0}, {field: 5.0}, {field: 10.0}]
    assert len(expand_rows(blocks)) == 9


@pytest.mark.parametrize("n_trials", [0, 2.5, True], ids=["zero", "float", "bool"])
@pytest.mark.parametrize("runner", [
    lambda s, n: run_detection_sweep(s, detection_sweep_spec(steps=3), n, 0),
    lambda s, n: run_validation(s, n_trials=n, n_symbols=10),
], ids=["detect-sweep", "validate"])
def test_runners_reject_a_trial_count_that_is_not_a_positive_int(fig5, monkeypatch,
                                                                 runner, n_trials):
    forbid_work(monkeypatch)
    message = f"n_trials must be a positive integer, got {n_trials!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        runner(fig5, n_trials)


def test_numpy_scalar_inputs_give_python_scalars(fig2, fig3, fig5):
    # the input checks accept numpy integers and reals; every value they
    # reach comes out a Python float or bool, so the CSV text is the text
    # of the same Python inputs
    def npy(sweep):
        return dataclasses.replace(
            sweep, overlay_values=tuple(map(np.float64, sweep.overlay_values)))
    detection = SweepSpec(0.0, 0.02, 2, (2.0,))
    assert (render_csv(run_detection_sweep(fig2, npy(detection), np.int64(1000),
                                           np.int64(7)))
            == render_csv(run_detection_sweep(fig2, detection, 1000, 7)))
    rates = SweepSpec(0.0, 100.0, 3, (7.0, 8.0))
    assert (render_csv(run_rate_sweep(fig3, npy(rates), np.int64(2)))
            == render_csv(run_rate_sweep(fig3, rates, 2)))
    slacks = SweepSpec(0.01, 0.5, 3, (fig5.p_j, fig5.p_max))
    text = render_csv(run_covertness_sweep(fig5, npy(slacks), np.int64(4), np.int64(1)))
    assert text == render_csv(run_covertness_sweep(fig5, slacks, 4, 1))
    assert "true" in text and "np." not in text
    result = maximize_covert_rate(fig5, np.int64(4), np.int64(4))
    assert result.feasible is True
    assert all(type(getattr(result, name)) is float for name in (
        "p_u_star", "p_j_star", "h_star", "r_b_star", "c_s_star", "h_max"))
    checks = run_validation(fig2, n_trials=np.int64(1000), n_symbols=np.int64(1000),
                            seed=np.int64(3), gamma_points=np.int64(3))
    assert all(type(passed) is bool for _, passed, _ in checks)


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
        assert abs(r["zeta_mc"] - r["zeta"]) <= max(
            0.05, mc_zeta_tolerance(r["zeta"], r["n_trials"], z=3.0))
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
    assert render_csv(first) == render_csv(again)


def test_detection_sweep_does_not_depend_on_scheduling(fig2, busy_switching):
    # the (overlay, point) draws run on two threads and each result goes to
    # its own row: with a thread switch every microsecond the Monte Carlo
    # columns are a serial per-point loop's, of the kernel and of the
    # reference, and the second thread is joined before the call returns
    spec = detection_sweep_spec(steps=7)
    before = threading.active_count()
    blocks = run_detection_sweep(fig2, spec, n_trials=3000, seed=13)
    assert threading.active_count() == before
    for oi, block in enumerate(blocks):
        sc = fig2.replace(p_u=block["p_u"])
        for gi, gamma in enumerate(block["gamma"]):
            seed = np.random.SeedSequence(entropy=[13, oi, gi])
            want = simulate_detection(sc, gamma, 3000, seed)
            assert want == reference_detection(sc, gamma, 3000, seed)
            assert tuple(block[c][gi] for c in ("p_fa_mc", "p_md_mc", "zeta_mc")) == want


def test_detection_sweep_runs_its_odd_points_on_one_more_thread(fig2, monkeypatch):
    # in (overlay, point) order the even draws run on the calling thread and
    # the odd ones on one other thread, the second thread the speed rests on
    threads = {}

    def simulate(sc, gamma, n_trials, seed):
        threads[tuple(seed.entropy[1:])] = threading.get_ident()
        return simulate_detection(sc, gamma, n_trials, seed)
    monkeypatch.setattr(experiments, "simulate_detection", simulate)
    run_detection_sweep(fig2, detection_sweep_spec(steps=5), n_trials=100, seed=1)
    order = [threads[job] for job in sorted(threads)]
    assert len(order) == 15 and len(set(order)) == 2
    assert [t == threading.get_ident() for t in order] == [i % 2 == 0 for i in range(15)]


class SweepError(Exception):
    pass


@pytest.mark.parametrize("failing", [2, 3], ids=["calling-thread", "second-thread"])
def test_detection_sweep_raises_either_threads_error_after_joining(fig2, monkeypatch, failing):
    # even points run on the calling thread, odd ones on the second: an
    # error on either reaches the caller, with no thread left behind and
    # nothing left to pytest's unhandled-thread-exception warning
    def simulate(sc, gamma, n_trials, seed):
        if seed.entropy[2] == failing:
            raise SweepError(f"point {failing}")
        return simulate_detection(sc, gamma, n_trials, seed)
    monkeypatch.setattr(experiments, "simulate_detection", simulate)
    before = threading.active_count()
    with pytest.raises(SweepError, match=f"point {failing}"):
        run_detection_sweep(fig2, detection_sweep_spec(overlays=(2.0,)), n_trials=100, seed=1)
    assert threading.active_count() == before


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
    for scenario, overlays in ((fig3, (9.0, 7.0, 8.0)), (fig4, (2.0,)),
                               (fig4, (3.0, fig4.p_max, 1e-3, 0.5, 7.25))):
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


def test_rate_sweep_validates_every_overlay_before_any_snr(fig3, monkeypatch):
    def snrs_at(*args):
        raise AssertionError("SNRs taken before every overlay was validated")

    monkeypatch.setattr(experiments, "snrs_at", snrs_at)
    with pytest.raises(ConfigError, match="p_u exceeds p_max"):
        run_rate_sweep(fig3, SweepSpec(0.0, 10.0, 4, (7.0, 2.0 * fig3.p_max)))


def test_rate_sweep_does_not_read_the_scenarios_own_altitude(fig3):
    sweep = SweepSpec(0.0, 100.0, 5, (7.0, 8.0))
    assert (render_csv(run_rate_sweep(fig3, sweep))
            == render_csv(run_rate_sweep(fig3.replace(h=77.0), sweep)))


def test_rate_sweep_rejects_negative_altitude(fig3):
    with pytest.raises(ConfigError, match="h >= 0"):
        run_rate_sweep(fig3, SweepSpec(-1.0, 10.0, 4, (7.0,)))


# -- covertness sweep --------------------------------------------------------

def covertness_sweep_spec(steps=4, overlays=(5.0, 10.0, 15.0)):
    return SweepSpec(start=0.01, stop=0.02, steps=steps, overlay_values=overlays)


def test_covertness_sweep_records(fig5):
    records = expand_rows(run_covertness_sweep(fig5, covertness_sweep_spec(), 15,
                                               seed=2))
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
    # capped at the infeasible base forward power, one step: every point
    # reports feasible=false instead of being dropped
    capped = fig4.replace(p_max=fig4.p_u, p_j=fig4.p_u)
    spec = SweepSpec(0.01, 0.02, 3, (capped.p_j,))
    records = expand_rows(run_covertness_sweep(capped, spec, 1, seed=2))
    assert len(records) == 3
    assert all(not r["feasible"] for r in records)
    assert all(math.isnan(r["r_b_star"]) for r in records)


def test_covertness_sweep_tight_epsilon_infeasible(fig5):
    # covertness so tight that the required altitude overshoots the
    # security ceiling even at the power cap
    spec = SweepSpec(0.0005, 0.0006, 2, (5.0,))
    records = expand_rows(run_covertness_sweep(fig5, spec, 1))
    assert len(records) == 2
    assert not any(r["feasible"] for r in records)


def test_covertness_sweep_single_epsilon(fig5):
    spec = SweepSpec(0.015, 0.015, 1, (5.0, 10.0))
    records = expand_rows(run_covertness_sweep(fig5, spec, 8))
    assert [(r["p_j"], r["epsilon"]) for r in records] == [
        (5.0, 0.015), (10.0, 0.015)]


@pytest.mark.parametrize("start, stop", [(0.0, 0.02), (0.5, 1.0), (-0.1, 0.5)])
def test_covertness_sweep_rejects_epsilon_outside_unit_interval(fig5, start, stop):
    with pytest.raises(ConfigError, match=r"inside \(0, 1\)"):
        run_covertness_sweep(fig5, SweepSpec(start, stop, 3, (5.0,)), 1)


@pytest.mark.parametrize("overlays, message", [
    ((-1.0, 5.0), "p_j must be finite and > 0, got -1.0"),
    ((5.0, 40.0, math.inf), "p_j exceeds p_max (40.0 > 30.0)"),
    ((40.0, math.nan), "p_j exceeds p_max (40.0 > 30.0)"),
], ids=["negative", "inf-last", "nan-last"])
def test_covertness_sweep_checks_steps_then_overlays(
        fig5, monkeypatch, overlays, message):
    # the power axis comes from the scenario's own cap, which no overlay
    # changes, so a bad step count is reported first; then each overlay in
    # ascending order, so 40 fails its scenario before inf would
    forbid_work(monkeypatch)
    sweep = SweepSpec(0.01, 0.02, 3, overlays)
    with pytest.raises(ConfigError, match="p_u_steps must be a positive integer"):
        run_covertness_sweep(fig5, sweep, 0)
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_covertness_sweep(fig5, sweep, 2)


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
    """A drawn scenario, epsilon sweep and p_u step count for the
    per-epsilon oracle.  ``kind`` picks
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
    p_u_steps = int(rng.integers(1, 13))
    if kind == "r_s=0":
        s = s.replace(r_s=0.0)
    elif kind == "guard":
        for _ in range(10):  # until C_s(h_min) leaves room for r_s >= 0
            p_u = float(rng.choice(box_axis(s.p_max, p_u_steps)))
            p_j = float(rng.choice(overlays))
            epsilon = float(rng.choice(sweep.points()))
            h = covert_floor(p_u, p_j, s.beta, epsilon, s.d_w2)
            r_s = rate_report(s.replace(p_u=p_u, p_j=p_j, h=h)).c_s + float(
                rng.choice([-1e-12, 0.0, 1e-12]))
            if r_s >= 0.0:
                return s.replace(r_s=r_s), sweep, p_u_steps
    return s, sweep, p_u_steps


@pytest.mark.parametrize("log2_skew, cells", [
    (0.0, None), (math.inf, None), (-math.inf, None), (0.0, 5)])
def test_covertness_sweep_matches_per_epsilon_oracle(monkeypatch, log2_skew,
                                                      cells):
    # a skew moves np.log2 results one ULP, alternately up and down, as
    # another libm may, and no verdict reads np.log2; a small budget splits
    # the grid into many (epsilon, p_u) passes, several epsilons to a pass
    # where a short last row block leaves room
    if cells:
        monkeypatch.setattr(uavcovert.optimizer, "_BLOCK_CELLS", cells)
    if log2_skew:
        log2, turn = np.log2, itertools.count()
        monkeypatch.setattr(np, "log2", lambda x: np.nextafter(
            log2(x), log2_skew if next(turn) % 2 else -log2_skew))
    rng, trials = np.random.default_rng(20261018), 200
    kinds = ("random", "r_s=0", "tight", "1-step", "guard")
    seen = dict.fromkeys(("feasible", "infeasible", "tight"), 0)
    for trial in range(trials):
        kind = kinds[trial % len(kinds)]
        s, sweep, p_u_steps = random_covertness_sweep(rng, kind)
        got = run_covertness_sweep(s, sweep, p_u_steps, seed=trial)
        want = per_epsilon_covertness_oracle(s, sweep, p_u_steps, seed=trial)
        assert_same_blocks(got, want)
        assert render_csv(got) == render_csv(want)
        flags = [f for block in want for f in block["feasible"]]
        seen["feasible"] += sum(flags)
        seen["infeasible"] += len(flags) - sum(flags)
        seen["tight"] += kind == "tight" and not any(flags)
    assert seen["feasible"] >= trials and seen["infeasible"] >= trials
    assert seen["tight"] >= trials // 10


def test_covertness_sweep_keeps_the_solvers_numerical_errors(fig5, monkeypatch):
    sweep = SweepSpec(0.01, 0.02, 5, (15.0,))

    def raises_at_argmax(scenario, p_u, p_j):
        raise NumericalError("secrecy rate re-crosses the threshold")
    monkeypatch.setattr(uavcovert.optimizer, "security_height_bound",
                        raises_at_argmax)
    for runner in (per_epsilon_covertness_oracle, run_covertness_sweep):
        with pytest.raises(NumericalError, match="re-crosses"):
            runner(fig5, sweep, 3)

    # a ceiling that contradicts the grid's verdict at the argmax
    monkeypatch.setattr(uavcovert.optimizer, "security_height_bound",
                        lambda scenario, p_u, p_j: None)
    for runner in (per_epsilon_covertness_oracle, run_covertness_sweep):
        with pytest.raises(NumericalError, match="grid verdict disagrees"):
            runner(fig5, sweep, 3)


def test_covertness_sweep_self_check_catches_falling_rate(monkeypatch, tmp_path,
                                                         capsys):
    real = experiments._maximize_over_epsilons

    def falling(scenario, p_u_values, p_j_values, epsilons):
        return [dataclasses.replace(r, r_b_star=r.r_b_star - k) for k, r in
                enumerate(real(scenario, p_u_values, p_j_values, epsilons))]

    monkeypatch.setattr(experiments, "_maximize_over_epsilons", falling)
    out = tmp_path / "covert.csv"
    assert main(["covertness-sweep", "--scenario", str(SCENARIOS / "fig5.json"),
                 "--out", str(out), "--steps", "3", "--pu-steps", "4"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical failure: optimized covert rate not "
                            "nondecreasing in epsilon at p_j=5.0\n")
    assert not out.exists()


def test_covertness_sweep_solves_security_once_per_argmax(fig5, monkeypatch):
    # the security ceiling ignores epsilon: one solve per distinct argmax
    # (p_u, p_j) of an overlay, from the grid's own powers: one Scenario
    # per overlay and none per argmax
    solves, replaces = [], []
    for module in (uavcovert.constraints, uavcovert.optimizer):
        def spy(scenario, p_u, p_j, solve=module.security_height_bound):
            solves.append((p_u, p_j))
            return solve(scenario, p_u, p_j)
        monkeypatch.setattr(module, "security_height_bound", spy)
    replace = Scenario.replace

    def counted(self, **changes):
        replaces.append(changes)
        return replace(self, **changes)
    monkeypatch.setattr(Scenario, "replace", counted)
    sweep = SweepSpec(0.01, 0.02, 20, (5.0, 10.0, 15.0))  # the fig5 default
    blocks = run_covertness_sweep(fig5, sweep, 12)
    argmaxes = {(p_u, block["p_j"]) for block in blocks
                for p_u, feasible in zip(block["p_u_star"], block["feasible"])
                if feasible}
    assert len(argmaxes) <= 10  # of 60 feasible rows
    assert len(solves) == len(set(solves)) and set(solves) <= argmaxes
    assert len(replaces) == len(blocks)


# -- power-of-two scaling of every power -------------------------------------

_POWER_FIELDS = ("p_a", "p_u", "p_j", "p_max", "sigma_u2", "sigma_b2", "sigma_w2")


def assert_blocks_scale(got, want, scales):
    """Every column but ``scenario_hash`` of ``got`` is bit-equal to
    ``want``'s times ``scales.get(column, 1.0)``."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert set(g) == set(w)
        for column in set(w) - {"scenario_hash"}:
            value = w[column]
            if column in scales:
                scale = scales[column]
                value = ([v * scale for v in value] if type(value) is list
                         else value * scale)
            assert repr(g[column]) == repr(value), column


@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(-300, 300),
       r_s=st.sampled_from([0.0, 0.01]))
@example(seed=0, m=-300, r_s=0.0)
@example(seed=0, m=300, r_s=0.01)
@settings(max_examples=40)
def test_runners_are_bit_equal_under_power_of_two_power_scaling(seed, m, r_s):
    # Scaling every power and noise by 2^m is exact in binary floating point
    # while no intermediate leaves the normal range, and every SNR, covert
    # floor, capacity and detection error is a ratio of terms that each
    # scale alike, so those cells are bit-equal and the power and threshold
    # cells scale by exactly 2^m.  The metre constants stay put: the SNRs
    # reach down to SEARCH_CEILING_M, the security scan doubles up from 1 m
    # and _ACTIVE_TOL is floored at 1 m of altitude.  At draw_scenario's
    # ranges the smallest intermediate, P_u P_a g^2 at the search ceiling,
    # is above 2^-81 and the largest, P_u P_a, below 2^8, each times 2^2m,
    # so |m| <= 300 keeps every one normal.  A low r_s leaves about 45% of
    # the covertness cells feasible.
    scale = 2.0 ** m
    s = draw_scenario(np.random.default_rng(seed), r_s=r_s)
    scaled = s.replace(**{f: getattr(s, f) * scale for f in _POWER_FIELDS})

    overlays = (s.p_u, s.p_max)
    rates = SweepSpec(0.0, 300.0, 7, overlays)
    assert_blocks_scale(
        run_rate_sweep(scaled, dataclasses.replace(
            rates, overlay_values=tuple(v * scale for v in overlays))),
        run_rate_sweep(s, rates), dict.fromkeys(_POWER_FIELDS, scale))

    overlays = (s.p_j, s.p_max)
    epsilons = SweepSpec(0.01, 0.5, 6, overlays)
    assert_blocks_scale(
        run_covertness_sweep(
            scaled, dataclasses.replace(
                epsilons, overlay_values=tuple(v * scale for v in overlays)), 6),
        run_covertness_sweep(s, epsilons, 6),
        dict.fromkeys(_POWER_FIELDS + ("p_u_star", "p_j_star"), scale))

    gamma_star, zeta_star = optimal_detection(s)
    assert optimal_detection(scaled) == (gamma_star * scale, zeta_star)
    gammas = [gamma_star * k / 8.0 for k in range(17)] + [s.sigma_w2]
    assert error_curve(scaled, [g * scale for g in gammas]) == error_curve(s, gammas)


@pytest.mark.parametrize("m", [-3, 2])
def test_monte_carlo_is_bit_equal_under_power_of_four_power_scaling(m):
    # with every power and noise times 4^m each amplitude sqrt(P g) scales
    # by exactly 2^m, so the same seed draws the same unit symbols and fades
    # into a chain whose every sample scales alike: the SNR and the unit
    # forwarded power are bit-equal; the radiometer statistic scales by 4^m,
    # and with it the threshold, so every comparison and both error rates
    # are unchanged
    scale = 4.0 ** m
    rng = np.random.default_rng(9)
    for seed in range(60):
        s = draw_scenario(rng)
        scaled = s.replace(**{f: getattr(s, f) * scale for f in _POWER_FIELDS})
        assert (simulate_destination_snr(scaled, 2000, seed)
                == simulate_destination_snr(s, 2000, seed))
        gamma, _ = optimal_detection(s)
        want = simulate_detection(s, gamma, 2000, seed)
        got = simulate_detection(scaled, gamma * scale, 2000, seed)
        assert got == want


def check_geometric_scaling(m):
    # beta and every squared distance times 4^m with the altitude times 2^m
    # leave every gain beta / (d^2 + h^2), hence every SNR and capacity,
    # bit-equal, and the covert floor's radicand scales by 4^m, so h_star
    # scales by 2^m.  The metre constants bound m.  The security scan's
    # doubling altitudes scale with h_max only below 2^19 m, the last of
    # them under SEARCH_CEILING_M, which is no power of two.  Below the
    # scan's 1 m start it brackets [0, 1], whose halvings reach the scaled
    # bracket unless a midpoint on the way already meets the residual.  The
    # security flag's tolerance _ACTIVE_TOL max(1, h_max) scales only where
    # h_max >= 1.  These draws' feasible h_max lie in 8.27 to 123.7 m, so
    # every m in [-3, 12] keeps each h_max and h_max 2^m in [1, 2^19) m, as
    # asserted below (m = 13 breaks 5 of the 60 optimizer results).  The
    # covertness sweep's h_min, h_star and h_max scale by 2^m, and its other
    # cells but the hash stay bit-equal
    geometry = dict.fromkeys(("beta", "d_a2", "d_b2", "d_w2"), 4.0 ** m)
    rng = np.random.default_rng(9)
    feasible = swept = 0
    h_maxes = []
    for _ in range(60):
        s = draw_scenario(rng, r_s=0.01)
        scaled = s.replace(h=s.h * 2.0 ** m,
                           **{f: getattr(s, f) * k for f, k in geometry.items()})
        rates = SweepSpec(0.0, 300.0, 8, (s.p_u, s.p_max))
        assert_blocks_scale(
            run_rate_sweep(scaled, dataclasses.replace(rates, stop=300.0 * 2.0 ** m)),
            run_rate_sweep(s, rates), {**geometry, "h": 2.0 ** m})
        want = maximize_covert_rate(s, 8, 8)
        assert repr(maximize_covert_rate(scaled, 8, 8)) == repr(dataclasses.replace(
            want, h_star=want.h_star * 2.0 ** m, h_max=want.h_max * 2.0 ** m))
        feasible += want.feasible
        h_maxes += [want.h_max] if want.feasible else []
        slacks = SweepSpec(0.005, 0.05, 5, (s.p_j, s.p_max))
        blocks = run_covertness_sweep(s, slacks, 8)
        lengths = dict.fromkeys(("h", "h_min", "h_star", "h_max"), 2.0 ** m)
        assert_blocks_scale(run_covertness_sweep(scaled, slacks, 8),
                            blocks, {**geometry, **lengths})
        swept += sum(block["feasible"].count(True) for block in blocks)
        h_maxes += [h for block in blocks
                    for h, ok in zip(block["h_max"], block["feasible"]) if ok]
    assert feasible >= 25 and swept >= 100
    assert all(1.0 <= min(h, h * 2.0 ** m) and max(h, h * 2.0 ** m) < 2.0 ** 19
               for h in h_maxes)


@pytest.mark.parametrize("m", [-2, 3])
def test_outputs_are_equivariant_under_power_of_two_geometric_scaling(m):
    check_geometric_scaling(m)


@given(m=st.integers(-3, 12).filter(lambda m: m not in (-2, 3)))
@example(m=-3)
@example(m=12)
@settings(max_examples=6)
def test_geometric_scaling_holds_for_every_exponent_in_range(m):
    check_geometric_scaling(m)


# -- CSV rendering -----------------------------------------------------------

def test_render_csv_round_trips_floats(fig2):
    blocks = run_detection_sweep(fig2, detection_sweep_spec(steps=4),
                                 n_trials=50, seed=1)
    text = render_csv(blocks)
    records = expand_rows(blocks)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(blocks[0])
    cells = lines[1].split(",")
    parsed = dict(zip(blocks[0], cells))
    for column in ("gamma", "p_fa", "zeta_mc", "beta", "sigma_w2"):
        assert float(parsed[column]) == records[0][column]
    assert parsed["scenario_hash"] == records[0]["scenario_hash"]


def test_render_csv_writes_numpy_scalars_as_the_python_values_they_hold():
    # float() of a cell gives back the exact value, a numpy scalar's too
    python = {"a": 1.5, "b": float(np.float32(0.1)), "d": True, "e": [-0.0, False]}
    numpy = {"a": np.float64(1.5), "b": np.float32(0.1), "d": np.bool_(True),
             "e": [np.float64(-0.0), np.bool_(False)]}
    text = "a,b,d,e\n1.5,0.10000000149011612,true,-0.0\n1.5,0.10000000149011612,true,false\n"
    assert render_csv([numpy]) == render_csv([python]) == text
    assert render_csv([{"f": 0.1, "b": False, "i": 10**20, "s": "ab"}]) == (
        "f,b,i,s\n0.1,false,100000000000000000000,ab\n")


class Cells(list):
    pass


@pytest.mark.parametrize("cell, kind", [
    ((1.0, 2.0), "tuple"), (Cells([1.0]), "Cells"), ("x,y", "str"), ("x\ny", "str"),
    ('x"y', "str"), ("x\ry", "str"), (None, "NoneType"), (1 + 2j, "complex")])
def test_render_csv_rejects_a_cell_outside_its_domain(tmp_path, cell, kind):
    # each would write a row with the wrong field count, or a cell that
    # float() cannot read back
    message = f"column 'a' cannot hold a {kind} cell"
    for blocks in ([{"a": cell, "b": 1.0}], [{"a": [0.5, cell], "b": [1.0, 2.0]}],
                   [{"b": 1.0, "a": [cell]}]):
        with pytest.raises(ValueError, match=message):
            render_csv(blocks)
        out = tmp_path / "kept.csv"
        out.write_bytes(b"d,e\n1.0,2.0\n")
        with pytest.raises(ValueError, match=message):
            write_csv(out, blocks)
        assert out.read_bytes() == b"d,e\n1.0,2.0\n"


class FreshFloats(dict):
    """A record over columns a, bb and ccc, holding no list, whose every
    lookup returns a new float object, so that a freed cell's id is free
    for the next column's objects to reuse."""

    def __init__(self, row):
        super().__init__(dict.fromkeys(("a", "bb", "ccc")))
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
        "mixed-shared-and-fresh": mixed,
        "signed-zeros": [{"a": zero, "b": negative_zero, "c": v, "d": w}
                         for v, w in ((zero, 1), (negative_zero, 2), (zero, "z"),
                                      (-0.0, negative_zero))],
        "true-one-one-point-zero": [{"b": True, "c": 1, "d": 1.0, "a": v}
                                    for v in (True, 1, 1.0, False, 0, 0.0, True)],
        "special-floats": [
            {"a": v, "b": math.nan, "c": v, "d": u}
            for v, u in ((math.nan, 1), (math.inf, math.nan), (-math.inf, "s"),
                         (1e16, float("nan")), (5e-324, -5e-324))],
        "str-and-int": [{"hash": "ab", "count": i * 10 ** i, "name": f"row{i % 2}",
                         "seed": 7} for i in range(5)],
        "column-under-two-names": [
            {"a": a, "b": 2.0, "a2": a, "c": i, "b2": 2.0, "c2": i}
            for i, a in enumerate((0.0, 0.5, 1.0, 1.5))],
        "float-subclasses": [
            {"a": v, "b": Tenths(i), "c": np.float64(i)}
            for i, v in enumerate((0.1, np.float64(0.1), Tenths(0.1), 0.1))],
        "blocks": [{"a": shared, "b": zero if i < 300 else negative_zero,
                    "c": c, "d": i % 3 == 0, "e": f"h{i // 50}", "f": 7, "c2": c}
                   for i, c in enumerate(0.5 * k for k in range(515))],
        "str-subclass": [
            {"a": v, "b": "x", "c": f"r{i}", "a2": v}
            for i, v in enumerate(("p", Shouting("q"), "q", Shouting("p")))],
        "one-record": [{"a": -0.0, "b": True, "c": "s", "d": 3}],
        "one-record-last-block": [
            {"a": 0.5 * i, "b": i % 2 == 0, "c": shared, "d": 1, "c2": shared}
            for i in range(257)],
        "fresh-floats": [FreshFloats(i) for i in range(20)],
        "fresh-floats-with-ints": (
            [FreshFloats(i) for i in range(20)] + [{"a": 1, "bb": 2, "ccc": 3}]),
        "fresh-floats-over-blocks": [
            FreshFloats(i) if i % 100 else {"a": i, "bb": True, "ccc": "s"}
            for i in range(376)],
    }


@pytest.mark.parametrize("case", sorted(_render_cases()))
def test_render_csv_matches_row_at_a_time_reference(case):
    records = _render_cases()[case]
    assert render_csv(records) == reference_render_csv(records, tuple(records[0]))


_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, True,
                     False, 1, 0, 1.0]),
    st.integers(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
    st.floats().map(Tenths),
    st.text("pq,", max_size=3),
    st.text("pq", max_size=3).map(Shouting),
)


@st.composite
def column_blocks(draw):
    """One to three blocks over one drawn order of some of the columns a-d,
    each column a scalar, a fresh list (of mixed cells or of exact floats),
    or a list the block already holds or the previous block held, so two
    columns may hold one list."""
    names = tuple(draw(st.permutations(("a", "b", "c", "d")))[
        :draw(st.integers(1, 4))])
    blocks, previous = [], []
    for _ in range(draw(st.integers(1, 3))):
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
    return blocks


_SHARED = [0.0, -0.0, math.nan, 0.1]


@given(column_blocks())
@example([{"a": _SHARED, "b": _SHARED, "c": 5e-324, "d": [True, 1, 1.0, -0.0]},
          {"a": _SHARED, "b": [math.inf, np.float64(0.1), Tenths(0.2), Shouting("q")],
           "c": Shouting("p"), "d": [1.0, -0.0, 0.0, True]}])
@example([{"a": ["p", "q,"], "b": [Shouting("p"), Shouting("q")], "c": "p",
           "d": ["p", Shouting("q")]}])
@settings(max_examples=300)
def test_render_csv_blocks_match_row_at_a_time_reference(blocks):
    # a str with a comma is drawn too: any value of any block outside the
    # reference's cell domain, in a row or not, makes render_csv raise
    try:
        for block in blocks:
            for value in block.values():
                list(map(reference_cell, value if type(value) is list else [value]))
    except ValueError:
        with pytest.raises(ValueError, match="cannot hold a str cell"):
            render_csv(blocks)
        return
    assert render_csv(blocks) == reference_render_csv(expand_rows(blocks),
                                                      tuple(blocks[0]))


def test_render_csv_rejects_ragged_block():
    with pytest.raises(ValueError, match="differ in length"):
        render_csv([{"a": [1.0, 2.0], "b": [3.0], "c": 7}])


@pytest.mark.parametrize("second", [
    {"a": [3.0]}, {"a": [3.0], "b": 2, "c": 5}, {"b": 2, "a": [3.0]}],
    ids=["missing", "extra", "reordered"])
def test_render_csv_rejects_a_block_whose_keys_differ_from_the_header(second):
    with pytest.raises(ValueError, match=r"keyed by the header \('a', 'b'\)"):
        render_csv([{"a": [1.0, 2.0], "b": 1}, second])


def test_render_csv_rejects_no_blocks():
    with pytest.raises(ValueError, match=r"one or more blocks, .* header \(\)"):
        render_csv([])


def test_sweep_blocks_share_their_lists(fig2, fig3, fig5):
    rate = run_rate_sweep(fig3, rate_sweep_spec(steps=4))
    detection = run_detection_sweep(fig2, detection_sweep_spec(steps=3),
                                    n_trials=10, seed=1)
    covertness = run_covertness_sweep(fig5, covertness_sweep_spec(steps=2), 1)
    for blocks, swept in ((rate, "h"), (detection, "gamma"), (covertness, "epsilon")):
        assert len(blocks) == 3
        assert all(b[swept] is blocks[0][swept] for b in blocks)
    assert all(b["r_b"] is b["c_b"] for b in rate)
    # the relay SNR does not involve p_u: one gamma_u and c_u list per sweep
    assert all(b[column] is rate[0][column] for b in rate for column in ("gamma_u", "c_u"))
    assert all(b["h_min"] is b["h_star"] for b in covertness)


def test_rate_sweep_csv_memory_per_row(fig3):
    # 1,500 rows of 25 columns: the blocks, one block's cells and the text
    # peak near 1.1 KB a row; a dict per row took 1.76 KB
    spec = SweepSpec(0.0, 25.0, 500, (6.25, 7.5, 9.75))
    peak = traced_peak_bytes(lambda: render_csv(run_rate_sweep(fig3, spec)))
    assert peak / 1500 < 1450


def test_render_csv_peak_is_below_three_times_its_text(fig3, fig5):
    # the lines, the text and one block's cells; a second copy of the text,
    # or the last block's cells held through the join, reads near 4x
    for blocks in (run_rate_sweep(fig3, rate_sweep_spec(steps=500)),
                   run_covertness_sweep(fig5, covertness_sweep_spec(steps=500), 30)):
        text = render_csv(blocks)
        assert traced_peak_bytes(render_csv, blocks) < 3 * len(text)


def test_write_csv_leaves_file_unchanged_when_render_raises(tmp_path, fig3):
    out = tmp_path / "rates.csv"
    records = run_rate_sweep(fig3, rate_sweep_spec(steps=3))
    write_csv(out, records)
    before = out.read_bytes()
    del records[-1]["c_s"]
    with pytest.raises(ValueError, match="keyed by the header"):
        write_csv(out, records)
    assert out.read_bytes() == before


def test_csv_columns_prefixed_by_scenario(fig5):
    for runner in ("detect-sweep", "rate-sweep", "covertness-sweep"):
        blocks = _RUNNERS[runner](fig5, 0)
        assert tuple(blocks[0])[:14] == ("d_a2", "d_b2", "d_w2", "h", "beta", "p_a",
                                         "p_u", "p_j", "p_max", "sigma_u2", "sigma_b2",
                                         "sigma_w2", "epsilon", "r_s")


def test_records_recomputable_from_scenario_columns(fig2, fig3):
    # closed-form outputs must follow from the row's own scenario columns
    from uavcovert import Scenario
    from uavcovert.detection import error_curve, optimal_detection

    det = run_detection_sweep(fig2, detection_sweep_spec(steps=5),
                              n_trials=100, seed=6)
    for row in expand_rows(det):
        header, text = render_csv([row]).strip().split("\n")
        parsed = dict(zip(header.split(","), text.split(",")))
        rebuilt = Scenario(**{k: float(parsed[k]) for k in header.split(",")[:14]})
        assert error_curve(rebuilt, [float(parsed["gamma"])])[2][0] == row["zeta"]
        assert optimal_detection(rebuilt)[0] == row["gamma_star"]

    rates = run_rate_sweep(fig3, rate_sweep_spec(steps=5))
    for row in expand_rows(rates):
        header, text = render_csv([row]).strip().split("\n")
        parsed = dict(zip(header.split(","), text.split(",")))
        rebuilt = Scenario(**{k: float(parsed[k]) for k in header.split(",")[:14]})
        assert rate_report(rebuilt).c_s == row["c_s"]


# -- validation suite --------------------------------------------------------

def test_run_validation_passes(fig2):
    checks = run_validation(fig2, n_trials=30_000, n_symbols=60_000, seed=4,
                            gamma_points=8)
    assert [name for name, _, _ in checks] == [
        "detection_error_mc_vs_closed",
        "relay_forwarded_power_unit",
        "destination_snr_mc_vs_closed",
    ]
    assert all(passed is True for _, passed, _ in checks)


@pytest.mark.parametrize("seed", [284, 1541])
def test_run_validation_passes_where_a_one_percent_band_missed(fig4, seed):
    # a 1.07% and a 1.00% SNR gap at 2e5 symbols, 3.4 and 3.2 standard
    # errors: inside the alpha = 1e-4 band of 4.34
    checks = run_validation(fig4, n_trials=20_000, n_symbols=200_000, seed=seed,
                            gamma_points=5)
    assert all(passed for _, passed, _ in checks), checks


@pytest.mark.parametrize("preset", ["fig2", "fig3", "fig4", "fig5"])
def test_run_validation_fails_a_destination_snr_one_percent_high(monkeypatch, preset):
    # at the default sizes the SNR band is 0.65%, so a closed-form gamma_b
    # 1% off is caught, where the old 1% floor let it pass
    real_snrs_at = experiments.snrs_at

    def biased(*args):
        gamma_u, gamma_b = real_snrs_at(*args)
        return gamma_u, 1.01 * gamma_b
    monkeypatch.setattr(experiments, "snrs_at", biased)
    s = Scenario.from_file(SCENARIOS / f"{preset}.json")
    checks = {name: passed for name, passed, _ in run_validation(s)}
    assert checks == {"detection_error_mc_vs_closed": True,
                      "relay_forwarded_power_unit": True,
                      "destination_snr_mc_vs_closed": False}


@pytest.mark.parametrize("gamma_points", [0, -3, 2.5, True])
def test_run_validation_rejects_empty_threshold_grid(fig2, gamma_points):
    with pytest.raises(ConfigError, match="gamma_points must be a positive integer"):
        run_validation(fig2, n_trials=10, n_symbols=10, gamma_points=gamma_points)


@pytest.mark.parametrize("preset", ["fig2", "fig5"])
@pytest.mark.parametrize("gamma_points", [1, 2, 7])
def test_validation_detection_check_is_the_per_threshold_loop(preset, gamma_points):
    # the detection check, written as a loop over np.linspace thresholds that
    # draws point gi from SeedSequence([seed, 0, gi]), each judged at the
    # Bonferroni z of alpha = 1e-4 over gamma_points + 2 checks: the
    # detection sweep validate runs through must give the same verdict and
    # detail
    s = Scenario.from_file(SCENARIOS / f"{preset}.json")
    n, seed = 500, 11
    z = NormalDist().inv_cdf(1.0 - 1e-4 / (2 * (gamma_points + 2)))
    gammas = np.linspace(0.0, 10.0 * optimal_detection(s)[0],
                         gamma_points).tolist()
    worst, ok = 0.0, True
    for gi, (gamma, closed) in enumerate(zip(gammas, error_curve(s, gammas)[2])):
        mc = simulate_detection(s, gamma, n, np.random.SeedSequence([seed, 0, gi]))[2]
        tol = mc_zeta_tolerance(closed, n, z)
        worst = max(worst, abs(mc - closed) / tol)
        ok = ok and abs(mc - closed) <= tol
    _, passed, detail = run_validation(s, n_trials=n, n_symbols=10, seed=seed,
                                       gamma_points=gamma_points)[0]
    assert (passed, detail) == (
        ok, f"{gamma_points} thresholds, worst gap {worst:.3f}x tolerance, "
            f"family-wise alpha 0.0001")


def test_run_validation_deterministic(fig2):
    a = run_validation(fig2, n_trials=5_000, n_symbols=10_000, seed=4,
                       gamma_points=4)
    b = run_validation(fig2, n_trials=5_000, n_symbols=10_000, seed=4,
                       gamma_points=4)
    assert a == b
