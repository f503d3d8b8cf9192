"""Tests for the exhaustive slices benchmarks/bench_campaign.py runs:
``sliced`` over the index-arithmetic ``plan_exhaustive`` must keep the
runs a materialised full plan would have given.

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
    """Plan entries as plain tuples."""
    return [(run.injection.cycle, run.injection.reg, run.injection.bit,
             run.pp, run.rep, run.epoch) for run in plan]


def materialised_exhaustive(function, golden):
    """Every (cycle, register, bit) row, built one by one."""
    return [(cycle, reg, bit, pp, None, None)
            for cycle, pp in enumerate(golden.executed)
            for reg in function.registers()
            for bit in range(function.bit_width)]


@pytest.fixture(scope="module")
def program():
    function = count_years()
    golden = Machine(function).run()
    return function, golden


class TestSlicedExhaustive:
    def test_runs_is_plan_length(self, program):
        function, golden = program
        assert len(plan_exhaustive(function, golden)) == \
            len(golden.executed) * len(function.registers()) \
            * function.bit_width

    @pytest.mark.parametrize("excess", [-900, -1, 0, 1, 500],
                             ids=["below", "just-below", "exact",
                                  "just-above", "above"])
    def test_equals_strided_full_plan(self, bench, program, excess):
        function, golden = program
        full = materialised_exhaustive(function, golden)
        target = len(full) + excess
        stride = max(1, len(full) // target)
        assert rows(bench.sliced(plan_exhaustive(function, golden),
                                 target)) == full[::stride]
