"""End-to-end detection tests: hardened binaries under fault injection.

The acceptance contract: faults that silently corrupt the unprotected
program's output become ``detected`` runs on the hardened program, with
campaign aggregates bit-identical across serial/worker execution and
across both execution cores.
"""

import pytest

from repro.fi.campaign import (EFFECT_CLASSES, EFFECT_DETECTED, EFFECT_SDC,
                               classify_effect)
from repro.fi.engine import CampaignEngine
from repro.fi.machine import Injection, Machine
from repro.fi.sink import CollectSink
from repro.fi.trace import TRAP_DETECTED
from repro.harden import harden
from repro.harden.evaluate import (count_conversions, ladder_comparison,
                                   run_variant, strided_plan)
from repro.ir.parser import parse_function
from tests.fi.reference import ReferenceMachine, whole_trace_interval

ACCUMULATE = """
func acc width=8 params=n
bb.entry:
    li s, 0
bb.loop:
    addi s, s, 3
    addi n, n, -1
    bnez n, bb.loop
bb.exit:
    out s
    ret s
"""


class TestCheckSemantics:
    """Trap semantics of the ``check`` instruction on the threaded core
    and on the reference interpreter."""

    @pytest.mark.parametrize("make", [Machine, ReferenceMachine],
                             ids=["threaded", "reference"])
    def test_equal_operands_fall_through(self, make):
        function = parse_function("""
            func f width=8 params=a
            bb.entry:
                mv b, a
                check a, b
                ret a
        """)
        trace = make(function).run(regs={"a": 7})
        assert trace.outcome == "ok"
        assert trace.returned == 7

    @pytest.mark.parametrize("make", [Machine, ReferenceMachine],
                             ids=["threaded", "reference"])
    def test_differing_operands_trap_detected(self, make):
        function = parse_function("""
            func f width=8 params=a,b
            bb.entry:
                check a, b
                ret a
        """)
        trace = make(function).run(regs={"a": 1, "b": 2})
        assert trace.outcome == "trap"
        assert trace.trap_kind == TRAP_DETECTED
        assert trace.returned is None

    def test_detected_trap_classifies_as_detected(self):
        function = parse_function("""
            func f width=8 params=a
            bb.entry:
                mv b, a
                check a, b
                out a
                ret a
        """)
        machine = Machine(function)
        golden = machine.run(regs={"a": 5})
        injected = machine.run(regs={"a": 5},
                               injection=Injection(0, "b", 1))
        assert classify_effect(golden, injected) == EFFECT_DETECTED

    def test_other_traps_stay_trap_class(self, motivating_machine):
        golden = motivating_machine.run()
        # Corrupt nothing: a masked run and a detected run are distinct
        # classes; regression-guard the class list itself.
        assert EFFECT_DETECTED in EFFECT_CLASSES
        counts = CampaignEngine(motivating_machine, [],
                                golden=golden).run().effect_counts()
        assert counts == {effect: 0 for effect in EFFECT_CLASSES}


class TestDeterministicConversion:
    def test_sdc_becomes_detected(self):
        """A fault that silently corrupts the accumulator output in the
        baseline is trapped by the hardened binary's checkers."""
        function = parse_function(ACCUMULATE)
        machine = Machine(function)
        regs = {"n": 5}
        golden = machine.run(regs=regs)
        injection = Injection(4, "s", 2)     # mid-loop accumulator hit
        baseline = machine.run(regs=regs, injection=injection)
        assert classify_effect(golden, baseline) == EFFECT_SDC

        result = harden(function, "full")
        hardened_machine = Machine(result.function)
        hardened_golden = hardened_machine.run(regs=regs)
        assert hardened_golden.outputs == golden.outputs
        mapped = result.map_upset(injection,
                                  result.cycle_map(hardened_golden))
        injected = hardened_machine.run(regs=regs, injection=mapped)
        assert classify_effect(hardened_golden, injected) \
            == EFFECT_DETECTED

    def test_shadow_register_faults_are_detected_not_sdc(self):
        """A fault in a *shadow* register must never corrupt output —
        the worst it can do is a false-alarm detection."""
        function = parse_function(ACCUMULATE)
        result = harden(function, "full")
        machine = Machine(result.function)
        regs = {"n": 4}
        golden = machine.run(regs=regs)
        shadow = result.shadow_of["s"]
        for cycle in range(0, golden.cycles - 1, 3):
            injected = machine.run(regs=regs,
                                   injection=Injection(cycle, shadow, 0))
            effect = classify_effect(golden, injected)
            assert effect in (EFFECT_DETECTED, "masked"), (cycle, effect)


class TestCampaignAggregates:
    """Bit-identical aggregates: serial vs workers, threaded vs
    the reference interpreter, on a hardened binary under a mapped
    fault plan."""

    @pytest.fixture(scope="class")
    def hardened_setup(self, motivating_function, motivating_golden,
                       motivating_bec):
        result = harden(motivating_function, "bec", budget=0.4,
                        golden=motivating_golden, bec=motivating_bec)
        machine = Machine(result.function, memory_size=256)
        golden = machine.run()
        plan = strided_plan(motivating_function, motivating_golden, 120)
        mapped = result.map_plan(plan, golden)
        return result, machine, golden, mapped

    def test_serial_equals_workers(self, hardened_setup):
        _, machine, golden, mapped = hardened_setup
        engine = CampaignEngine(machine, mapped, golden=golden)
        serial_records, parallel_records = CollectSink(), CollectSink()
        serial = engine.run(checkpoint_interval=whole_trace_interval(golden),
                            sink=serial_records)
        parallel = engine.run(workers=4, checkpoint_interval=8,
                              sink=parallel_records)
        assert [record[1:] for record in serial_records.records] \
            == [record[1:] for record in parallel_records.records]
        assert serial.effect_counts() == parallel.effect_counts()
        assert serial.distinct_traces == parallel.distinct_traces
        assert serial.effect_counts()[EFFECT_DETECTED] > 0

    def test_threaded_equals_reference(self, hardened_setup):
        result, machine, golden, mapped = hardened_setup
        reference_machine = ReferenceMachine(result.function,
                                             memory_size=256)
        reference_golden = reference_machine.run()
        assert reference_golden.key() == golden.key()
        base_records, fast_records = CollectSink(), CollectSink()
        base = CampaignEngine(reference_machine, mapped,
                              golden=reference_golden).run(
            checkpoint_interval=whole_trace_interval(reference_golden),
            sink=base_records)
        fast = CampaignEngine(machine, mapped, golden=golden).run(
            workers=4, checkpoint_interval=8, sink=fast_records)
        assert [record[1:] for record in base_records.records] \
            == [record[1:] for record in fast_records.records]
        assert base.effect_counts() == fast.effect_counts()


class TestCompareProtection:
    def test_three_way_comparison(self, motivating_function,
                                  motivating_golden, motivating_bec):
        row = ladder_comparison(
            motivating_function, motivating_golden, memory_size=256,
            bec=motivating_bec, budgets=(0.3,), target_runs=200)
        assert row["baseline_sdc"] > 0
        full, bec = row["full"], row["bec"][0]
        # Full duplication catches them all.
        assert full["converted"] == row["baseline_sdc"]
        assert full["residual_sdc"] == 0
        assert 0 < bec["converted"] <= full["converted"]
        assert bec["residual_sdc"] < row["baseline_sdc"]
        assert full["overhead"] > bec["overhead"] > 0.0

    def test_full_conversion_on_accumulator(self):
        function = parse_function(ACCUMULATE)
        golden = Machine(function).run(regs={"n": 6})
        plan = strided_plan(function, golden, 150)
        baseline = run_variant(function, "none", plan, golden,
                               regs={"n": 6})
        full = run_variant(function, "full", plan, golden,
                           regs={"n": 6})
        assert baseline.overhead == 0.0
        sdc = baseline.campaign.effect_counts()[EFFECT_SDC]
        assert sdc > 0
        assert count_conversions(baseline, full) == sdc
        assert full.campaign.effect_counts()[EFFECT_SDC] == 0
