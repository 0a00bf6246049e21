"""Per-layer tracing of the uavcovert package, applied from outside it.

Each traced public function is replaced by a wrapper at every module binding
that holds it (modules that import a function by name keep their own
binding), and methods are replaced on their class.  A wrapper records a span:
its duration is charged to the function, and subtracted from the self time
of the enclosing traced span.  A target the package no longer defines is
reported as absent instead of being traced.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "uavcovert"

TARGETS = (
    "cli.main",
    "model.Scenario.replace", "model.Scenario.from_file", "model.Scenario.canonical_hash",
    "detection.optimal_detection", "detection.total_error", "detection.simulate_detection",
    "rates.rate_report", "rates.simulate_destination_snr",
    "constraints.feasible_interval", "constraints.security_height_bound",
    "constraints.secrecy_rate_at_height",
    "optimizer.maximize_covert_rate",
    "experiments.run_detection_sweep", "experiments.run_rate_sweep",
    "experiments.run_covertness_sweep", "experiments.run_validation",
    "experiments.render_csv", "experiments.write_csv",
)


def _argument(fn, name):
    signature = inspect.signature(fn)

    def get(args, kwargs):
        return signature.bind(*args, **kwargs).arguments.get(name, 0)
    return get


class Tracer:
    """Span and counter store; `install` patches the imported package."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[list[float]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()

    def _hooks(self, target, fn):
        """Counters read from a call's arguments or result."""
        if target == "constraints.feasible_interval":
            return lambda args, kwargs, out: {"empty": int(bool(getattr(out, "empty", False)))}
        if target == "optimizer.maximize_covert_rate":
            return lambda args, kwargs, out: {"feasible": int(bool(getattr(out, "feasible", False)))}
        if target == "detection.simulate_detection":
            trials = _argument(fn, "n_trials")
            return lambda args, kwargs, out: {"mc_trials": int(trials(args, kwargs))}
        if target == "rates.simulate_destination_snr":
            symbols = _argument(fn, "n_symbols")
            return lambda args, kwargs, out: {"mc_symbols": int(symbols(args, kwargs))}
        return None

    def _wrap(self, target, fn):
        hook = self._hooks(target, fn)
        stack, calls, self_s, counters = self._stack, self.calls, self.self_s, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                calls[target] += 1
                self_s[target] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                for key, value in hook(args, kwargs, out).items():
                    counters[f"{target}.{key}"] += value
            return out
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for target in TARGETS:
            module_name, _, attr = target.partition(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(target)
                continue
            if "." in attr:
                self._install_method(target, module, *attr.split(".", 1))
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, fn)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapper)

    def _install_method(self, target, module, cls_name, method) -> None:
        cls = getattr(module, cls_name, None)
        raw = vars(cls).get(method) if isinstance(cls, type) else None
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, method, type(raw)(self._wrap(target, raw.__func__)))
        elif callable(raw):
            setattr(cls, method, self._wrap(target, raw))
        else:
            self.absent.append(target)
