"""Tests for benchmarks/bench_interp.py's baseline: the reference
interpreter it times the threaded core against is the test-local oracle
:class:`tests.fi.reference.ReferenceMachine`.

The script is not part of the installed package, and neither is the
``tests`` package it takes the oracle from, so the script is loaded by
file path here and also run as CI runs it, in a fresh interpreter that
only has the package on its path.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fi.machine import Machine
from tests.fi.reference import ReferenceMachine

ROOT = Path(__file__).resolve().parents[2]
BENCH_PATH = ROOT / "benchmarks" / "bench_interp.py"


@pytest.fixture(scope="module")
def bench():
    # The script imports its sibling ``report`` module and puts the
    # checkout root on the path for the oracle.
    saved = list(sys.path)
    sys.path.insert(0, str(BENCH_PATH.parent))
    try:
        spec = importlib.util.spec_from_file_location("bench_interp",
                                                      BENCH_PATH)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def test_baseline_is_the_oracle(bench):
    machines, regs = bench.prepare("RSA")
    assert type(machines["reference"]) is ReferenceMachine
    assert type(machines["threaded"]) is Machine
    expected = machines["reference"].run(regs=regs)
    actual = machines["threaded"].run(regs=regs)
    assert actual.key() == expected.key()
    assert actual.cycles == expected.cycles
    assert actual.loads == expected.loads


def test_script_imports_the_oracle_standalone(tmp_path):
    # `--help` exits after every module-level import has run.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, str(BENCH_PATH), "--help"], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    assert "--smoke" in completed.stdout
