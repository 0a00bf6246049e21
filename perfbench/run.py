#!/usr/bin/env python3
"""uavcovert benchmark: run one workload through `uavcovert.cli.main`.

Usage, from the repository root:

    python3 perfbench/run.py --workload design-sweep --seed 0 --seconds 30 --trace 0

The package is imported from `src/`, under a fixed PYTHONHASHSEED (the
script re-executes itself to set it).  Every run first runs the workload's
untimed reference tasks once, then repeats passes over its timed tasks for
`--seconds` in this process, one thread, checking the first pass's outputs
for correctness and every later pass's outputs for byte identity with the
first.  The host is shared and its speed swings by up to a factor of two
between minutes, so each timed task runs between two runs of a fixed
calibration loop of the benchmark's own, and its time is taken as a
multiple of theirs: a task's time is the median over the run of its
measured time divided by the mean of the two calibration times around it,
times the loop's time on the reference host (seconds at reference speed).
With `--trace 0`, `setup_s` is measured the same way in fresh interpreters
launched at even intervals through the timed passes, and the end-to-end
metrics are reported; `--trace 1` reports the per-layer ones (half the time
untraced, half traced).  The last line of stdout is a JSON object:
{"correct", "attempted", "failed", "metrics"}.

`--selfcheck` instead traces fig5 optimize 50x50 once and compares the
counts with those recorded when the benchmark was introduced.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One thread: pin numeric libraries before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(HERE))
import numpy      # noqa: E402
import checks     # noqa: E402
import tracer      # noqa: E402
import workloads   # noqa: E402

SETUP_LAUNCHES = 15
# Calibration loop times on the reference host (see README).  A task's time
# is given in units of its calibration loop's time, times these: seconds at
# the reference host's speed.  Monte Carlo tasks are timed against the numpy
# loop, the others against the pure-Python one.
CALIBRATION_REF_S = {"python": 0.0045, "numpy": 0.0100}
CALIBRATION_SCENARIO = {"d_a2": 3600.0, "d_b2": 2500.0, "beta": 10.0, "p_a": 2.0, "p_u": 7.0,
                        "p_j": 10.0, "sigma_u2": 0.01, "sigma_b2": 0.01}
COMPANION_SETS = 4   # runs of the companion tasks per pass
PRIMARY_SCENARIO = {"design-sweep": "fig5.json", "monte-carlo": "fig2.json",
                    "figure-csv": "fig3.json"}
SETUP_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
import uavcovert.cli
from uavcovert.model import Scenario
Scenario.from_file(sys.argv[2])
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""
# fig5 optimize 50x50 counts at the commit that introduced the benchmark
SELFCHECK_COUNTS = {"constraints.feasible_interval.calls": 2500,
                    "constraints.feasible_interval.empty": 656,
                    "constraints.secrecy_rate_at_height.calls": 99892}


def launch_setup(scenario: Path) -> float:
    """Time from interpreter start to CLI imported and scenario parsed."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(SRC), str(scenario)],
                          stdout=subprocess.PIPE, cwd=ROOT) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"setup child failed with exit code {child.returncode}")
    return elapsed


def calibrate_python() -> float:
    """Time a fixed pure-Python piece of the benchmark's own work.

    It does what the grid and CSV tasks spend their time on: closed-form
    float math over fresh dicts, and rows rendered with repr and hashed.
    """
    start = time.perf_counter()
    for k in range(720):
        row = checks.rates_at(dict(CALIBRATION_SCENARIO, p_u=1.0 + 0.01 * k), 0.1 * k)
        line = ",".join(repr(v) for v in row.values())
        hashlib.sha256(line.encode("ascii")).hexdigest()
    return time.perf_counter() - start


def calibrate_numpy() -> float:
    """Time a fixed numpy draw and reductions, as the Monte Carlo tasks do."""
    start = time.perf_counter()
    x = numpy.random.default_rng(0).standard_normal(500_000)
    (x * x).mean(), (x > 0.5).mean()
    return time.perf_counter() - start


class SetupClock:
    """Setup launches at even intervals over the timed passes.

    Spread over the run, the launches see the same mix of machine states as
    the workload's tasks, rather than whatever the first seconds happen to be.
    Like a task, each launch is timed between two runs of the pure-Python
    calibration loop.
    """

    def __init__(self, scenario: Path, seconds: float):
        self.scenario = scenario
        self.interval = seconds / SETUP_LAUNCHES
        self.times: list[float] = []        # as measured
        self.calibrated: list[float] = []   # in reference seconds
        launch_setup(scenario)   # the first launch warms caches
        self.due = time.perf_counter()

    def _launch(self) -> None:
        before = calibrate_python()
        self.times.append(launch_setup(self.scenario))
        around = statistics.fmean([before, calibrate_python()])
        self.calibrated.append(self.times[-1] / around * CALIBRATION_REF_S["python"])

    def tick(self) -> None:
        if len(self.times) < SETUP_LAUNCHES and time.perf_counter() >= self.due:
            self._launch()
            self.due += self.interval

    def finish(self) -> None:
        while len(self.times) < SETUP_LAUNCHES:
            self._launch()


class Runner:
    """Runs passes over a workload's tasks and keeps their timings and checks."""

    def __init__(self, cli, tasks, tick=lambda: None):
        self.cli = cli
        self.tasks = tasks
        self.timed = [t for t in tasks if t.timed]
        self.tick = tick   # called after every timed task
        self.times = {t.name: [] for t in tasks}
        self.first: dict[str, tuple] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.max_ulp = 0
        self.csv_bytes = 0
        self.calibrated_times = {t.name: [] for t in tasks}
        self.calibration = {kind: [] for kind in CALIBRATION_REF_S}

    def _run(self, task):
        if task.out is not None:
            task.out.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(task.argv)
        except Exception:   # a crash fails the task; the run goes on
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        text = task.out.read_text() if task.out is not None and task.out.exists() else None
        return elapsed, code, out.getvalue(), err.getvalue(), text

    def schedule(self) -> list:
        """Main tasks in order, with every companion after each k-th of them.

        Companions are small; running them a few times a pass, spread among
        the main tasks, gives their timings as many samples as those get.
        """
        mains = [t for t in self.timed if t.main]
        companions = [t for t in self.timed if not t.main]
        every = -(-len(mains) // COMPANION_SETS)
        tasks = []
        for i, task in enumerate(mains, 1):
            tasks.append(task)
            if i % every == 0 or i == len(mains):
                tasks += companions
        return tasks

    def reference_pass(self) -> None:
        """Run and check the untimed tasks once."""
        self.run_pass([t for t in self.tasks if not t.timed])

    def run_pass(self, schedule=None) -> float:
        """One pass over the schedule; returns the time spent in main tasks."""
        main_s, csv_bytes = 0.0, 0
        for task in self.schedule() if schedule is None else schedule:
            if task.timed:
                self._calibrate(task)
            elapsed, code, stdout, stderr, text = self._run(task)
            self.attempted += 1
            self.times[task.name].append(elapsed)
            main_s += elapsed if task.main else 0.0
            csv_bytes += len(text) if text is not None else 0
            problems = self._check(task, code, stdout, stderr, text)
            if problems:
                self.failures.append(f"{task.name}: " + "; ".join(problems[:3]))
            if task.timed:
                around = statistics.fmean(self._calibrate(task)[-2:])
                kind = self._calibration_kind(task)
                self.calibrated_times[task.name].append(
                    elapsed / around * CALIBRATION_REF_S[kind])
                self.tick()
        self.csv_bytes = csv_bytes
        return main_s

    @staticmethod
    def _calibration_kind(task) -> str:
        return "numpy" if task.kind == workloads.MC else "python"

    def _calibrate(self, task) -> list[float]:
        """Run the task's calibration loop once; all its times so far."""
        kind = self._calibration_kind(task)
        loop = calibrate_numpy if kind == "numpy" else calibrate_python
        self.calibration[kind].append(loop())
        return self.calibration[kind]

    def _check(self, task, code, stdout, stderr, text) -> list[str]:
        if code not in task.ok_codes:
            return [f"exit code {code}: {stderr.strip()[-500:]}"]
        if task.name in self.first:
            same = self.first[task.name] == (code, stdout, text)
            return [] if same else ["output differs from the first pass"]
        self.first[task.name] = (code, stdout, text)
        problems, ulps = task.check(code, stdout, text)
        self.max_ulp = max(self.max_ulp, ulps)
        return problems

    def passes(self, seconds: float, after_pass=lambda: None) -> list[float]:
        """Passes until `seconds` have elapsed (at least one); main-task time of each."""
        deadline = time.perf_counter() + seconds
        main_times = []
        while not main_times or time.perf_counter() < deadline:
            main_times.append(self.run_pass())
            after_pass()
        return main_times

    def measured(self, task) -> float:
        """Median wall time of the task, as measured."""
        return statistics.median(self.times[task.name])

    def calibrated(self, task) -> float:
        """Median of the task's times in calibration units, in reference seconds."""
        return statistics.median(self.calibrated_times[task.name])

    def throughput(self, kind: str) -> float:
        tasks = [t for t in self.timed if t.kind == kind]
        return sum(t.work for t in tasks) / sum(self.calibrated(t) for t in tasks)

    @property
    def failed(self) -> int:
        return len(self.failures)


def end_to_end(runner: Runner, setup: SetupClock) -> dict:
    """End-to-end metrics; times are in seconds at the reference host speed."""
    mains = [t for t in runner.timed if t.main]
    return {
        "setup_s": statistics.median(setup.calibrated),
        "wall_s": sum(runner.calibrated(t) for t in mains),
        "grid_points_per_s": runner.throughput(workloads.GRID),
        "mc_draws_per_s": runner.throughput(workloads.MC),
        "csv_rows_per_s": runner.throughput(workloads.ROWS),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": runner.failed / runner.attempted,
        "max_ulp_vs_ref": runner.max_ulp,
        "measured_setup_s": statistics.median(setup.times),
        "measured_wall_s": sum(runner.measured(t) for t in mains),
        **{f"calibration_{kind}_s": statistics.median(times) if times else 0.0
           for kind, times in runner.calibration.items()},
    }


def per_layer(snapshots, runner: Runner, overhead_s: float) -> dict:
    def median_of(get):
        return statistics.median_low(get(*snap) for snap in snapshots)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for target in tracer.TARGETS:
        values[f"{target}.calls"] = median_of(lambda c, s, k: c.get(target, 0))
        values[f"{target}.self_s"] = median_of(lambda c, s, k: s.get(target, 0.0))
    values["detection.mc_trials"] = median_of(
        lambda c, s, k: k.get("detection.simulate_detection.mc_trials", 0))
    values["rates.mc_symbols"] = median_of(
        lambda c, s, k: k.get("rates.simulate_destination_snr.mc_symbols", 0))
    values["constraints.evals_per_solve"] = median_of(lambda c, s, k: ratio(
        c.get("constraints.secrecy_rate_at_height", 0),
        c.get("constraints.security_height_bound", 0)))
    values["constraints.empty_ratio"] = median_of(lambda c, s, k: ratio(
        k.get("constraints.feasible_interval.empty", 0),
        c.get("constraints.feasible_interval", 0)))
    values["optimizer.feasible_ratio"] = median_of(lambda c, s, k: ratio(
        k.get("optimizer.maximize_covert_rate.feasible", 0),
        c.get("optimizer.maximize_covert_rate", 0)))
    values["experiments.csv_bytes"] = runner.csv_bytes
    values["fail_ratio"] = runner.failed / runner.attempted
    values["max_ulp_vs_ref"] = runner.max_ulp
    values["trace.overhead_s"] = overhead_s
    return values


def selfcheck(cli, work: Path) -> int:
    task = next(t for t in workloads.build("design-sweep", 0, work)
                if t.name == "fig5-optimize-50x50")
    runner, trace = Runner(cli, [task]), tracer.Tracer()
    trace.install()
    runner.run_pass([task])
    counts = {f"{k}.calls": v for k, v in trace.calls.items()} | dict(trace.counters)
    ok = not runner.failures
    for name, want in SELFCHECK_COUNTS.items():
        got = counts.get(name, 0)
        ok = ok and got == want
        print(f"selfcheck {name}: {got} (expected {want})")
    print("selfcheck:", "ok" if ok else "FAILED", *runner.failures)
    return 0 if ok else 1


def report(values: dict, declared: list) -> dict:
    """Print every value with its unit; return the declared metrics for the JSON line."""
    units = {e["name"]: e["unit"] for e in declared}
    for name, value in values.items():
        print(f"  {name:<48} {value!r} {units.get(name, '')}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if not (args.workload or args.selfcheck):
        parser.error("--workload is required")
    if not (SRC / "uavcovert" / "__init__.py").is_file():
        print(f"no uavcovert package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        cli = importlib.import_module("uavcovert.cli")
        print(f"provenance: python {platform.python_version()}, numpy {numpy.__version__}, "
              f"{platform.machine()}, {os.cpu_count()} cpus; "
              f"argv {' '.join(sys.argv[1:] if argv is None else argv)}")
        if args.selfcheck:
            return selfcheck(cli, work)
        runner = Runner(cli, workloads.build(args.workload, args.seed, work))
        runner.reference_pass()
        if args.trace:
            untraced = runner.passes(args.seconds / 2)
            trace = tracer.Tracer()
            trace.install()
            snapshots = []

            def snapshot():
                snapshots.append((dict(trace.calls), dict(trace.self_s), dict(trace.counters)))
                trace.reset()
            traced = runner.passes(args.seconds / 2, after_pass=snapshot)
            overhead = statistics.median(traced) - statistics.median(untraced)
            values = per_layer(snapshots, runner, overhead)
            for target in trace.absent:
                print(f"  {target}: absent from the package")
            metrics = report(values, declared["per_layer"])
        else:
            setup = SetupClock(workloads.REF / PRIMARY_SCENARIO[args.workload], args.seconds)
            runner.tick = setup.tick
            runner.passes(args.seconds)
            setup.finish()
            values = end_to_end(runner, setup)
            metrics = report(values, declared["end_to_end"])
        print(f"  {runner.attempted} tasks over {len(runner.times[runner.timed[0].name])} passes")
        for failure in runner.failures:
            print(f"  FAILED {failure}")
        result = {"correct": not runner.failures, "attempted": runner.attempted,
                  "failed": runner.failed, "metrics": metrics}
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    # String hashing is randomized per process, and the dict layouts it gives
    # move pure-Python timings by up to ~20% between runs of the same code.
    # Fix it by replacing this process with one that has a fixed hash seed.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
