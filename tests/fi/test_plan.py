"""Tests for the plan type (repro.fi.campaign.Plan) and its planners.

The reference planners below are the list-building generators every
planner replaced; each new plan must yield the same rows in the same
order, since store keys digest them.
"""

import random
import tracemalloc

import pytest

import repro.fi.campaign
import repro.store.keys
from repro.bec.analysis import run_bec
from repro.bench.motivating import count_years
from repro.bench.programs import (BENCHMARK_ORDER, compile_benchmark,
                                  get_benchmark)
from repro.fi.campaign import (PLANNERS, Plan, PlannedRun, plan_bec,
                               plan_exhaustive, plan_inject_on_read)
from repro.fi.machine import Injection, Machine, MemoryInjection
from repro.fi.trace import Trace
from repro.fi.validate import validation_plan
from repro.ir.liveness import compute_liveness
from repro.ir.randgen import GeneratorConfig, generate_function, random_inputs
from repro.store import campaign_key

from tests.fi.walks import instances_walked, oracle_bit_instances

#: Cycles of each kernel's golden trace the kernel tests plan over.
PREFIX_CYCLES = 400


def rows(plan):
    return [(run.injection.cycle, run.injection.reg, run.injection.bit,
             run.pp, run.rep, run.epoch) for run in plan]


def reference_exhaustive(function, trace):
    registers = function.registers()
    return [(cycle, reg, bit, pp, None, None)
            for cycle, pp in enumerate(trace.executed)
            for reg in registers
            for bit in range(function.bit_width)]


def reference_inject_on_read(function, trace):
    liveness = compute_liveness(function)
    return [(cycle, reg, bit, pp, None, None)
            for cycle, pp in enumerate(trace.executed)
            for reg in liveness.live_windows(pp)
            for bit in range(function.bit_width)]


def reference_bec(function, trace, bec):
    return [(i.cycle, i.reg, i.bit, i.pp, i.rep, i.epoch)
            for i in oracle_bit_instances(function, trace, bec) if i.emit]


def reference_validation(function, trace, bec):
    return [(i.cycle, i.reg, i.bit, i.pp, i.rep, i.epoch)
            for i in oracle_bit_instances(function, trace, bec,
                                          include_killed=True)]


def assert_planners_match(function, trace, bec):
    for mode, planner in PLANNERS.items():
        assert isinstance(planner(function, trace, bec), Plan), mode
    assert rows(plan_exhaustive(function, trace)) == \
        reference_exhaustive(function, trace)
    assert rows(plan_inject_on_read(function, trace)) == \
        reference_inject_on_read(function, trace)
    assert rows(plan_bec(function, trace, bec)) == \
        reference_bec(function, trace, bec)
    assert rows(validation_plan(function, trace, bec)) == \
        reference_validation(function, trace, bec)


def prefix(trace, cycles):
    cut = Trace()
    cut.executed = trace.executed[:cycles]
    return cut


@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_kernel_prefix_plans_match_reference(name):
    program = compile_benchmark(name)
    regs = program.initial_regs(*get_benchmark(name).args)
    golden = Machine(program.function,
                     memory_image=program.memory_image).run(regs=regs)
    function = program.function
    assert_planners_match(function, prefix(golden, PREFIX_CYCLES),
                          run_bec(function))


def test_random_program_plans_match_reference():
    config = GeneratorConfig(width=8, registers=5, params=2,
                             structures=3, max_ops=4)
    for seed in range(50):
        function = generate_function(seed, config)
        golden = Machine(function).run(regs=random_inputs(seed, function),
                                       max_cycles=20_000)
        assert_planners_match(function, golden, run_bec(function))


@pytest.fixture(scope="module")
def motivating():
    function = count_years()
    golden = Machine(function, memory_size=256).run()
    return function, golden, run_bec(function)


@pytest.fixture(params=["exhaustive", "ior", "bec", "validation"])
def plan(request, motivating):
    function, golden, bec = motivating
    if request.param == "validation":
        return validation_plan(function, golden, bec)
    return PLANNERS[request.param](function, golden, bec)


class TestSequence:
    def test_random_slices_equal_list_slices(self, plan):
        rng = random.Random(29)
        listed = list(plan)
        n = len(listed)
        for _ in range(200):
            start = rng.randint(-n - 5, n + 5)
            stop = rng.randint(-n - 5, n + 5)
            step = rng.randint(1, 40)
            assert plan[start:stop:step] == listed[start:stop:step]
            assert rows(plan[start:stop:step]) == \
                rows(listed[start:stop:step])

    def test_slice_of_slice(self, plan):
        listed = list(plan)
        assert plan[3::7][5:-2:3] == listed[3::7][5:-2:3]

    def test_descending_slices(self, plan):
        listed = list(plan)
        for key in (slice(None, None, -1), slice(-3, 2, -5),
                    slice(len(listed) + 9, None, -3), slice(-1, -2, -1),
                    slice(-len(listed) - 4, None, -1)):
            assert plan[key] == listed[key]

    def test_indexing(self, plan):
        listed = list(plan)
        for index in (0, 1, len(listed) - 1, -1, -len(listed)):
            assert plan[index] == listed[index]
        with pytest.raises(IndexError):
            plan[len(listed)]
        with pytest.raises(IndexError):
            plan[-len(listed) - 1]

    def test_rows_are_the_span(self, plan):
        listed = list(plan)
        assert plan.rows(10, 50) == listed[10:50]
        assert plan.rows(len(listed) - 3, len(listed) + 10) == listed[-3:]

    def test_iteration_crosses_steps(self, plan, monkeypatch):
        listed = list(plan)
        monkeypatch.setattr(repro.fi.campaign, "ROWS_PER_STEP", 7)
        assert list(plan) == listed

    def test_equality(self, plan):
        listed = list(plan)
        assert plan == listed
        assert listed == plan
        assert plan == tuple(listed)
        assert plan != listed[:-1]
        assert plan[1:] != plan[:-1]
        assert plan != "plan"


class TestCappedPlanners:
    @pytest.mark.parametrize("mode", sorted(PLANNERS))
    def test_capped_plan_is_the_prefix(self, motivating, mode):
        function, golden, bec = motivating
        full = PLANNERS[mode](function, golden, bec)
        for cap in (0, 1, 37, len(full), len(full) + 5):
            assert PLANNERS[mode](function, golden, bec, cap) == full[:cap]

    def test_capped_bec_walks_only_its_prefix(self, motivating):
        function, golden, bec = motivating
        walk = list(oracle_bit_instances(function, golden, bec))
        tenth = [instance for instance in walk if instance.emit][9]
        # The walk ends with the cycle that reaches the cap.
        through = sum(1 for instance in walk
                      if instance.cycle <= tenth.cycle)
        assert through < len(walk)
        _, walked = instances_walked(plan_bec, function, golden, bec,
                                     max_runs=10)
        assert walked == through


class TestInjectionEquality:
    def test_register_injection(self):
        assert Injection(3, "v1", 4) == Injection(3, "v1", 4)
        assert Injection(3, "v1", 4) != Injection(3, "v1", 5)
        assert hash(Injection(3, "v1", 4)) == hash(Injection(3, "v1", 4))
        assert len({Injection(3, "v1", 4), Injection(3, "v1", 4)}) == 1

    def test_memory_injection(self):
        assert MemoryInjection(3, 16, 4) == MemoryInjection(3, 16, 4)
        assert MemoryInjection(3, 16, 4) != MemoryInjection(3, 17, 4)
        assert hash(MemoryInjection(3, 16, 4)) == \
            hash(MemoryInjection(3, 16, 4))

    def test_kinds_differ(self):
        assert Injection(3, "v1", 4) != MemoryInjection(3, 16, 4)

    def test_row_read_twice_compares_equal(self, motivating):
        function, golden, bec = motivating
        plan = plan_bec(function, golden, bec)
        assert plan[5] == plan[5]
        assert plan[5] == PlannedRun(plan[5].injection, plan[5].pp,
                                     plan[5].rep, plan[5].epoch)


def _plan_and_key_peak(function, trace):
    tracemalloc.start()
    try:
        plan = plan_exhaustive(function, trace)
        campaign_key(function, plan)
        return len(plan), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exhaustive_plan_and_key_memory_does_not_grow_with_the_trace(
        motivating, monkeypatch):
    monkeypatch.setattr(repro.store.keys, "KEY_ROWS_PER_STEP", 512)
    function, golden, _ = motivating
    short = Trace()
    short.executed = golden.executed * 16
    long = Trace()
    long.executed = short.executed * 4
    short_runs, short_peak = _plan_and_key_peak(function, short)
    long_runs, long_peak = _plan_and_key_peak(function, long)
    assert long_runs == 4 * short_runs
    assert short_runs > 3 * repro.store.keys.KEY_ROWS_PER_STEP
    assert long_peak <= 1.1 * short_peak, (short_peak, long_peak)
