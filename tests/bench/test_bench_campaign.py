"""Tests for benchmarks/bench_campaign.py's exhaustive slices.

The script is not part of the installed package (it lives next to the
benchmarks), so it is loaded by file path.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.bench.motivating import count_years
from repro.fi.campaign import plan_exhaustive
from repro.fi.machine import Machine

BENCH_PATH = Path(__file__).resolve().parents[2] / "benchmarks" \
    / "bench_campaign.py"


@pytest.fixture(scope="module")
def bench():
    # The script imports its sibling ``report`` module.
    sys.path.insert(0, str(BENCH_PATH.parent))
    try:
        spec = importlib.util.spec_from_file_location("bench_campaign",
                                                      BENCH_PATH)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH_PATH.parent))
    return module


def rows(plan):
    """Plan entries by value (an ``Injection`` compares by identity)."""
    return [(run.injection.cycle, run.injection.reg, run.injection.bit,
             run.pp, run.rep, run.epoch) for run in plan]


@pytest.fixture(scope="module")
def program():
    function = count_years()
    golden = Machine(function).run()
    return function, golden


class TestSlicedExhaustive:
    def test_runs_is_plan_length(self, bench, program):
        function, golden = program
        assert bench.exhaustive_runs(function, golden) == \
            len(plan_exhaustive(function, golden))

    @pytest.mark.parametrize("excess", [-900, -1, 0, 1, 500],
                             ids=["below", "just-below", "exact",
                                  "just-above", "above"])
    def test_equals_strided_full_plan(self, bench, program, excess):
        function, golden = program
        full = plan_exhaustive(function, golden)
        target = len(full) + excess
        stride = max(1, len(full) // target)
        assert rows(bench.sliced_exhaustive(function, golden, target)) == \
            rows(full[::stride])
