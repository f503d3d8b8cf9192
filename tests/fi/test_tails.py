"""Tests for cross-run tail reuse (:mod:`repro.fi.tails`).

A run answered from the campaign's tail memo takes the record of an
earlier run that reached the same state with the same trace so far.
Every record must stay exactly what a full simulation gives: the
reference interpreter (:mod:`tests.fi.reference`, which never probes
the memo) is the oracle.
"""

import pytest

import repro.fi.engine
from repro import obs
from repro.fi import tails
from repro.fi.campaign import PlannedRun, classify_effect
from repro.fi.engine import (CampaignEngine, auto_checkpoint_interval,
                             pick_snapshot, run_injection)
from repro.fi.machine import Injection, Machine, MemoryInjection
from repro.fi.sink import CollectSink
from repro.fi.validate import validation_plan
from repro.bec.analysis import run_bec
from repro.ir.parser import parse_function
from repro.ir.randgen import generate_function, random_inputs

from tests.fi.reference import ReferenceMachine
from tests.fuzz.test_soundness_fuzz import _SMALL

#: Flipping bit 0 or bit 1 of ``t`` after cycle 0 gives the same state
#: from cycle 8 on (``v`` = 1, everything else golden), but the two
#: runs printed different values on the way there.
OUTPUT_SEGMENT = """
func f width=32
bb.entry:
    li t, 4
    nop
    out t
    xori w, t, 4
    snez v, w
    li t, 0
    li w, 0
    li i, 16
bb.loop:
    add acc, acc, v
    addi i, i, -1
    bnez i, bb.loop
bb.exit:
    out acc
    ret acc
"""

#: The same with the two values stored instead of printed.
STORE_SEGMENT = OUTPUT_SEGMENT.replace("out t", "sw t, 0(zero)")

#: Flipping bit 0 or bit 1 of ``t`` leaves the golden path (the zero
#: block) for the odd or the even block, as long as each other; both
#: runs then reach the same state, different from the golden one.
PATH_SEGMENT = """
func f width=32
bb.entry:
    li t, 4
    andi u, t, 3
    beqz u, bb.zero
bb.nonzero:
    andi p, u, 1
    bnez p, bb.odd
bb.even:
    nop
    nop
    j bb.join
bb.odd:
    nop
    nop
    j bb.join
bb.zero:
    nop
bb.join:
    xori w, t, 4
    snez v, w
    li t, 0
    li u, 0
    li p, 0
    li w, 0
    li i, 16
bb.loop:
    add acc, acc, v
    addi i, i, -1
    bnez i, bb.loop
bb.exit:
    out acc
    ret acc
"""

#: Sums 16 words of memory; a flipped word stays latent (registers and
#: path golden) until the loop loads it.
MEMORY_SUM = """
func f width=32
bb.entry:
    li i, 0
    li acc, 0
    li n, 64
bb.loop:
    lw x, 0(i)
    add acc, acc, x
    addi i, i, 4
    blt i, n, bb.loop
bb.exit:
    out acc
    ret acc
"""


def reused_counter():
    return obs.metrics().counter("engine.tails_reused")


def engine_records(machine, plan, regs=None, golden=None, interval=4):
    """``(records, runs answered from the memo)`` of one campaign."""
    counter = reused_counter()
    before = counter.value
    sink = CollectSink()
    CampaignEngine(machine, plan, regs=regs, golden=golden).run(
        checkpoint_interval=interval, sink=sink)
    return sink.records, counter.value - before


def reference_records(function, plan, regs=None, memory_image=None,
                      memory_size=1 << 16, interval=4):
    machine = ReferenceMachine(function, memory_image=memory_image,
                               memory_size=memory_size)
    return engine_records(machine, plan, regs=regs, interval=interval)[0]


def planned(*injections):
    return [PlannedRun(injection, 0, None, None) for injection in injections]


class TestKey:
    @pytest.mark.parametrize(
        "source", [OUTPUT_SEGMENT, STORE_SEGMENT, PATH_SEGMENT],
        ids=["outputs", "stores", "path"])
    def test_same_state_after_different_segments_stays_distinct(
            self, source):
        function = parse_function(source)
        plan = planned(Injection(0, "t", 0), Injection(0, "t", 1))
        records, reused = engine_records(Machine(function), plan,
                                         interval=8)
        assert records == reference_records(function, plan, interval=8)
        assert records[0][2] != records[1][2]          # signatures
        assert reused == 0

    def test_same_state_after_same_segment_is_reused(self):
        function = parse_function(OUTPUT_SEGMENT)
        # Either flip of `w` leaves `v` = 1 and is overwritten next.
        plan = planned(Injection(3, "w", 1), Injection(3, "w", 2))
        records, reused = engine_records(Machine(function), plan)
        assert records == reference_records(function, plan)
        assert reused == 1

    def test_memory_injections_bypass_the_memo(self):
        function = parse_function(MEMORY_SUM)
        image = bytes(range(64))
        plan = planned(MemoryInjection(0, 40, 0), MemoryInjection(0, 48, 1),
                       MemoryInjection(0, 52, 2), MemoryInjection(0, 40, 0))
        machine = Machine(function, memory_image=image, memory_size=64)
        records, reused = engine_records(machine, plan)
        assert records == reference_records(function, plan,
                                            memory_image=image,
                                            memory_size=64)
        # Registers and path stay golden until the flipped word loads:
        # a memo keyed on them would hand all four runs one record.
        assert len({record[2] for record in records[:3]}) == 3
        assert reused == 0


class TestEviction:
    def test_memo_stays_bounded_on_a_cycle_ordered_plan(
            self, motivating_function, motivating_machine,
            motivating_golden, motivating_bec):
        golden = motivating_golden
        plan = validation_plan(motivating_function, golden,
                               motivating_bec)
        _, snapshots = motivating_machine.run_with_snapshots(interval=2)
        budget = 4 * golden.cycles + 256
        memo = tails.TailMemo(len(motivating_machine._reg_of))
        per_window = {}
        sizes = []
        for entry in plan:
            injection = entry.injection
            window = pick_snapshot(snapshots, injection.cycle).cycle
            per_window[window] = per_window.get(window, 0) + 1
            run_injection(motivating_machine, golden, injection,
                          snapshots, budget, memo)
            sizes.append(len(memo))
        # A run resumed from window k files keys at its first
        # TAIL_STOPS stops, all past k; by the time the plan resumes
        # from window k + TAIL_STOPS they are gone.
        bound = tails.TAIL_STOPS ** 2 * max(per_window.values())
        assert max(sizes) <= bound
        # Without eviction the memo would outgrow the bound: it filed
        # at least this many keys.
        filed = sum(max(0, after - before)
                    for before, after in zip([0] + sizes, sizes))
        assert filed > 2 * bound


def hit_spy(monkeypatch):
    """Collects ``(injection, record)`` of every run the engine answers
    from the memo."""
    hits = []
    counter = reused_counter()
    real = repro.fi.engine.run_injection

    def spy(machine, golden, injection, *args):
        before = counter.value
        record = real(machine, golden, injection, *args)
        if counter.value != before:
            hits.append((injection, record))
        return record

    monkeypatch.setattr(repro.fi.engine, "run_injection", spy)
    return hits


class TestRecordsMatchReference:
    @pytest.mark.parametrize("name, cycle_limit", [
        ("bitcount", 4), ("dijkstra", 4), ("CRC32", 8), ("adpcm_enc", 4),
        ("adpcm_dec", 4), ("AES", 4), ("RSA", 8), ("SHA", 16)])
    def test_kernel_validation_plans(self, kernel_runs, monkeypatch, name,
                                     cycle_limit):
        run = kernel_runs[name]
        plan = validation_plan(run.function, run.golden, run.bec,
                               cycle_limit)
        interval = auto_checkpoint_interval(run.golden)
        hits = hit_spy(monkeypatch)
        records = {}
        for core in ("threaded", "batched"):
            machine = Machine(run.function, memory_image=run.memory_image,
                              core=core)
            records[core], _ = engine_records(machine, plan, run.regs,
                                              run.golden, interval)
        assert hits
        # Every run answered from the memo gets exactly the record a
        # full reference-interpreter run gives ...
        reference = ReferenceMachine(run.function,
                                     memory_image=run.memory_image)
        budget = max(4 * run.golden.cycles + 256, 1024)
        for injection, record in hits:
            injected = reference.run(regs=run.regs, injection=injection,
                                     max_cycles=budget)
            assert record == (classify_effect(run.golden, injected),
                              injected.signature(), injected.byte_size())
        # ... and the whole stream equals the memo-free engine's.
        monkeypatch.setattr(tails, "TAIL_STOPS", 0)
        machine = Machine(run.function, memory_image=run.memory_image)
        plain, reused = engine_records(machine, plan, run.regs, run.golden,
                                       interval)
        assert reused == 0
        assert records["threaded"] == plain
        assert records["batched"] == plain

    def test_random_program_validation_plans(self):
        reused = 0
        for seed in range(30):
            function = generate_function(seed, _SMALL)
            regs = random_inputs(seed, function)
            machine = Machine(function)
            golden = machine.run(regs=regs, max_cycles=50_000)
            plan = validation_plan(function, golden, run_bec(function))
            interval = auto_checkpoint_interval(golden)
            records, count = engine_records(machine, plan, regs, golden,
                                            interval)
            assert records == reference_records(function, plan, regs,
                                                interval=interval), seed
            reused += count
        assert reused > 0
