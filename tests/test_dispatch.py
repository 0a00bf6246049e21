"""Outputs that must not depend on numpy's CPU dispatch.

numpy picks some of its kernels, ``exp`` among them, by the CPU features it
finds at import, and the NPY_DISABLE_CPU_FEATURES switch turns features off
for the one process that sets it.  The golden comparison and the Monte Carlo
reference tests are rerun in a child process with the AVX-512 dispatch off,
so they are checked under the kernels an AVX2 host would pick.
"""
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
RERUN = [
    "tests/test_golden.py",
    "tests/test_rates.py::test_simulate_destination_snr_matches_reference",
    "tests/test_rates.py::test_simulate_destination_snr_matches_reference_at_1e6",
]


def _cpu_tables():
    """numpy's (features found on this host, features it can dispatch)."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            module = importlib.import_module(name)
        except ImportError:
            continue
        return module.__cpu_features__, module.__cpu_dispatch__
    pytest.skip("this numpy does not expose its CPU dispatch tables")


def test_golden_and_monte_carlo_hold_without_avx512_dispatch(tmp_path):
    found, dispatched = _cpu_tables()
    if not set(AVX512) <= set(dispatched):
        # numpy ignores, with an ImportWarning, a name it does not dispatch
        pytest.skip(f"this numpy build does not dispatch all of {AVX512}")
    if not any(found.get(name) for name in AVX512):
        pytest.skip("this host has no AVX-512 dispatch to turn off")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--basetemp", str(tmp_path / "basetemp"), *RERUN],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
    assert " passed" in run.stdout and "skipped" not in run.stdout
