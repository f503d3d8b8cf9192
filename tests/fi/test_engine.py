"""Tests for the checkpointed, parallel campaign engine.

The engine's contract is bit-identical aggregates: serial, parallel
(``workers=4``) and checkpointed execution of the same plan must agree
on run order, per-run effects, ``effect_counts()``,
``vulnerable_runs()`` and trace signatures.
"""

from collections.abc import Sequence

import pytest

from repro import obs
from repro.fi import batch
from repro.errors import SimulationError
from repro.fi.campaign import (Aggregates, CampaignResult, PlannedRun,
                               classify_effect, plan_exhaustive, plan_bec)
from repro.fi.engine import CampaignEngine, pick_snapshot
from repro.fi.machine import Injection, Machine
from repro.fi.sink import CollectSink
from repro.experiments.common import benchmark_run
from tests.fi.reference import ReferenceMachine, whole_trace_interval


def strided_exhaustive_plan(function, golden, cycle_stride, registers,
                            bits):
    """A small but cycle-spanning slice of the exhaustive plan, so
    checkpointing actually has distinct snapshots to resume from."""
    full = plan_exhaustive(function, golden, registers=registers)
    width = function.bit_width
    plan = [run for run in full
            if run.injection.cycle % cycle_stride == 0
            and run.injection.bit in bits]
    assert plan, "empty strided plan"
    assert len({run.injection.cycle for run in plan}) > 2
    del width
    return plan


class CountingPlan(Sequence):
    """A plan that counts the rows built from it."""

    def __init__(self, plan):
        self.plan = plan
        self.built = 0

    def __len__(self):
        return len(self.plan)

    def __getitem__(self, index):
        self.built += 1
        return self.plan[index]


def collected(engine, **kwargs):
    """``(result, records)`` of one campaign run with a
    :class:`CollectSink` attached."""
    sink = CollectSink()
    result = engine.run(sink=sink, **kwargs)
    return result, sink.records


def supervised(engine, **kwargs):
    """:func:`collected` plus the ``engine.recoveries`` and
    ``engine.serial_degraded_chunks`` counter deltas the run caused."""
    registry = obs.metrics()
    mark = registry.mark()
    outcome = collected(engine, **kwargs)
    totals = registry.totals(registry.delta_since(mark))
    return outcome, {
        name: totals.get(name, 0)
        for name in ("engine.recoveries", "engine.serial_degraded_chunks")}


def assert_identical(base, other):
    """*base* and *other* are ``(result, records)`` pairs."""
    (base, base_records), (other, other_records) = base, other
    assert base_records == other_records
    assert base.n_runs == other.n_runs == len(base_records)
    assert base.effect_counts() == other.effect_counts()
    assert base.vulnerable_runs() == other.vulnerable_runs()
    assert base.distinct_traces == other.distinct_traces
    assert base.archived_bytes == other.archived_bytes


class TestSnapshots:
    def test_snapshot_cycles_and_initial_state(self, motivating_machine):
        golden, snapshots = motivating_machine.run_with_snapshots(
            interval=8)
        assert [snapshot.cycle for snapshot in snapshots] \
            == list(range(0, golden.cycles, 8))
        assert snapshots[0].pc == 0
        assert snapshots[0].n_executed == 0

    def test_run_from_matches_full_run(self, motivating_function,
                                       motivating_machine):
        golden, snapshots = motivating_machine.run_with_snapshots(
            interval=8)
        budget = 4 * golden.cycles + 256
        for cycle in (-1, 0, 7, 8, 23, golden.cycles - 1):
            injection = Injection(cycle, "v", 1)
            snapshot = pick_snapshot(snapshots, cycle)
            assert snapshot is not None
            full = motivating_machine.run(injection=injection,
                                          max_cycles=budget)
            tail = motivating_machine.run_from(snapshot,
                                               injection=injection,
                                               max_cycles=budget)
            assert tail.key() == full.key()
            assert tail.signature() == full.signature()
            assert tail.cycles == full.cycles
            assert tail.loads == full.loads

    def test_run_from_rejects_past_injection(self, motivating_machine):
        _, snapshots = motivating_machine.run_with_snapshots(interval=8)
        late = snapshots[2]       # cycle 16
        with pytest.raises(SimulationError):
            motivating_machine.run_from(late, injection=Injection(3, "v", 0))

    def test_invalid_interval(self, motivating_machine):
        with pytest.raises(SimulationError):
            motivating_machine.run_with_snapshots(interval=0)

    def test_faulted_runs_never_snapshot(self, motivating_machine):
        """A cycle=-1 upset is applied before the interpreter loop and
        must not slip past the clean-run guard — snapshots of a faulted
        machine would poison every resumed tail."""
        snapshots = []
        motivating_machine.run(injection=Injection(-1, "v", 0),
                               snapshot_interval=8, snapshots=snapshots)
        assert snapshots == []

    def test_pick_snapshot(self, motivating_machine):
        _, snapshots = motivating_machine.run_with_snapshots(interval=8)
        assert pick_snapshot(snapshots, -1).cycle == 0
        assert pick_snapshot(snapshots, 0).cycle == 0
        assert pick_snapshot(snapshots, 7).cycle == 0
        assert pick_snapshot(snapshots, 8).cycle == 8
        assert pick_snapshot(snapshots, 1000).cycle == snapshots[-1].cycle
        assert pick_snapshot([], 5) is None
        assert pick_snapshot(snapshots, -2) is None

    def test_injection_without_snapshot_fails_cleanly(
            self, motivating_machine, motivating_golden):
        plan = [PlannedRun(Injection(-2, "v", 0), None, None, None)]
        engine = CampaignEngine(motivating_machine, plan,
                                golden=motivating_golden)
        with pytest.raises(SimulationError, match="no golden snapshot"):
            engine.run()

    def test_whole_trace_interval_runs_from_cycle_0(
            self, motivating_function, motivating_machine,
            motivating_golden):
        """The parity baselines' interval leaves only the cycle-0
        snapshot, so no run reconverges or reuses a tail."""
        interval = whole_trace_interval(motivating_golden)
        _, snapshots = motivating_machine.run_with_snapshots(
            interval=interval)
        assert [snapshot.cycle for snapshot in snapshots] == [0]
        plan = plan_exhaustive(motivating_function, motivating_golden)
        engine = CampaignEngine(motivating_machine, plan,
                                golden=motivating_golden)
        reused = obs.metrics().counter("engine.tails_reused")
        before = reused.value
        collected(engine, checkpoint_interval=interval)
        assert reused.value == before
        collected(engine)
        assert reused.value > before


class TestEngineParityMotivating:
    def test_serial_engine_equals_scalar_reference(
            self, motivating_function, motivating_machine,
            motivating_golden, motivating_bec):
        """The engine's serial path records exactly what one plain
        from-cycle-0 ``Machine.run`` per planned injection yields."""
        plan = plan_bec(motivating_function, motivating_golden,
                        motivating_bec)
        engine = CampaignEngine(motivating_machine, plan,
                                golden=motivating_golden)
        aggregates = Aggregates()
        records = []
        for planned in plan:
            injected = motivating_machine.run(
                injection=planned.injection, max_cycles=engine.max_cycles)
            record = (planned, classify_effect(motivating_golden, injected),
                      injected.signature(), injected.byte_size())
            records.append(record)
            aggregates.add(*record[1:])
        base = CampaignResult(motivating_golden, aggregates)
        assert_identical((base, records), collected(engine))

    @pytest.mark.parametrize("kwargs", [
        {"workers": 4},
        {"checkpoint_interval": 8},
        {"workers": 4, "checkpoint_interval": 8},
    ])
    def test_engine_modes_identical(self, motivating_function,
                                    motivating_machine, motivating_golden,
                                    kwargs):
        plan = plan_exhaustive(motivating_function, motivating_golden)
        engine = CampaignEngine(motivating_machine, plan,
                                golden=motivating_golden)
        base = collected(engine, checkpoint_interval=whole_trace_interval(
            motivating_golden))
        assert_identical(base, collected(engine, **kwargs))

    @pytest.mark.parametrize("prune", [None, "liveness"])
    @pytest.mark.parametrize("core", Machine.CORES)
    def test_serial_path_builds_each_row_once(
            self, motivating_function, motivating_golden, core, prune):
        """The serial schedule hands the rows it classified to the
        emitter instead of building them again to lead each record."""
        if core == "batched" and not batch.numpy_available():
            pytest.skip("NumPy not installed")
        plan = CountingPlan(plan_exhaustive(motivating_function,
                                            motivating_golden))
        machine = Machine(motivating_function, memory_size=256, core=core)
        base = collected(CampaignEngine(machine, list(plan.plan),
                                        golden=motivating_golden),
                         prune=prune)
        counted = collected(CampaignEngine(machine, plan,
                                           golden=motivating_golden),
                            prune=prune)
        assert_identical(base, counted)
        assert plan.built == len(plan)

    def test_progress_callback(self, motivating_function,
                               motivating_machine, motivating_golden):
        plan = plan_exhaustive(motivating_function, motivating_golden)
        seen = []
        engine = CampaignEngine(motivating_machine, plan,
                                golden=motivating_golden)
        engine.run(workers=2, progress=lambda done, total:
                   seen.append((done, total)))
        assert seen[-1] == (len(plan), len(plan))
        assert [done for done, _ in seen] == sorted(done
                                                    for done, _ in seen)


@pytest.mark.parametrize("name,cycle_stride,bits", [
    ("bitcount", 97, (0, 13)),
    ("CRC32", 389, (5,)),
])
class TestEngineParityBenchmarks:
    """Serial vs workers=4 vs checkpointed on the compiled benchmarks
    (the motivating program above is the third parity subject)."""

    def _plans(self, name, cycle_stride, bits):
        run = benchmark_run(name)
        registers = run.function.registers()[::5]
        plan = strided_exhaustive_plan(run.function, run.golden,
                                       cycle_stride, registers, bits)
        return run, plan

    def test_parallel_and_checkpointed_identical(self, name, cycle_stride,
                                                 bits):
        run, plan = self._plans(name, cycle_stride, bits)
        engine = CampaignEngine(run.machine, plan, regs=run.regs,
                                golden=run.golden)
        base = collected(engine, checkpoint_interval=whole_trace_interval(
            run.golden))
        interval = max(1, run.golden.cycles // 16)
        assert_identical(base, collected(engine))
        assert_identical(base, collected(engine, workers=4))
        assert_identical(base, collected(engine,
                                         checkpoint_interval=interval))
        assert_identical(base, collected(engine, workers=4,
                                         checkpoint_interval=interval))


class TestEngineParityAcrossCores:
    """The engine's bit-identical-aggregates contract must hold across
    execution cores too: a campaign run on the threaded core (with all
    engine knobs on) equals the same campaign on the reference
    interpreter (:mod:`tests.fi.reference`)."""

    def test_motivating_campaign_identical_across_cores(
            self, motivating_function, motivating_golden):
        plan = plan_exhaustive(motivating_function, motivating_golden)
        reference_machine = ReferenceMachine(motivating_function,
                                             memory_size=256)
        fast_machine = Machine(motivating_function, memory_size=256)
        base = collected(CampaignEngine(reference_machine, plan,
                                        golden=motivating_golden),
                         checkpoint_interval=whole_trace_interval(
                             motivating_golden))
        fast = CampaignEngine(fast_machine, plan,
                              golden=motivating_golden)
        assert_identical(base, collected(fast))
        assert_identical(base, collected(fast, workers=4,
                                         checkpoint_interval=8))
        batched = CampaignEngine(
            Machine(motivating_function, memory_size=256, core="batched"),
            plan, golden=motivating_golden)
        assert_identical(base, collected(batched))
        assert_identical(base, collected(batched, workers=4,
                                         checkpoint_interval=8))

    def test_benchmark_campaign_identical_across_cores(self):
        run = benchmark_run("bitcount")
        registers = run.function.registers()[::5]
        plan = strided_exhaustive_plan(run.function, run.golden, 97,
                                       registers, (0, 13))
        reference_machine = ReferenceMachine(
            run.function, memory_image=run.machine.memory_image)
        base = collected(CampaignEngine(reference_machine, plan,
                                        regs=run.regs, golden=run.golden),
                         checkpoint_interval=whole_trace_interval(
                             run.golden))
        fast = CampaignEngine(run.machine, plan, regs=run.regs,
                              golden=run.golden)
        interval = max(1, run.golden.cycles // 16)
        assert_identical(base, collected(fast, workers=4,
                                         checkpoint_interval=interval))


class TestHardenedEngineParity:
    """The engine contract extends to hardened binaries: a mapped fault
    plan replayed on a protected benchmark must yield bit-identical
    aggregates serial vs parallel vs checkpointed and across cores,
    with the new `detected` effect class populated."""

    @pytest.fixture(scope="class")
    def hardened_bitcount(self):
        from repro.harden import harden
        from repro.harden.evaluate import strided_plan

        run = benchmark_run("bitcount")
        result = harden(run.function, "bec", budget=0.3,
                        golden=run.golden, bec=run.bec)
        machine = Machine(result.function,
                          memory_image=run.machine.memory_image)
        golden = machine.run(regs=run.regs)
        plan = result.map_plan(
            strided_plan(run.function, run.golden, 48), golden)
        return run, result, machine, golden, plan

    def test_modes_and_cores_identical(self, hardened_bitcount):
        run, result, machine, golden, plan = hardened_bitcount
        engine = CampaignEngine(machine, plan, regs=run.regs,
                                golden=golden)
        base = collected(engine, checkpoint_interval=whole_trace_interval(
            golden))
        assert base[0].effect_counts()["detected"] > 0
        interval = max(1, golden.cycles // 16)
        assert_identical(base, collected(engine))
        assert_identical(base, collected(engine, workers=4))
        assert_identical(base, collected(engine, workers=4,
                                         checkpoint_interval=interval))
        reference = ReferenceMachine(result.function,
                                     memory_image=run.machine.memory_image)
        reference_golden = reference.run(regs=run.regs)
        assert reference_golden.key() == golden.key()
        assert_identical(base, collected(
            CampaignEngine(reference, plan, regs=run.regs,
                           golden=reference_golden),
            checkpoint_interval=whole_trace_interval(reference_golden)))


class TestKillRecoveryParity:
    """The parity contract extends to worker death: a campaign whose
    worker is SIGKILLed mid-run (injected deterministically by
    repro.fi.chaos) must complete without hanging, with final
    aggregates, effect counts and trace signatures bit-identical to
    the serial baseline."""

    def test_motivating_killed_worker_parity(self, motivating_function,
                                             motivating_machine,
                                             motivating_golden,
                                             monkeypatch):
        from repro.fi import engine as engine_module
        from repro.fi.chaos import ChaosPolicy

        monkeypatch.setattr(engine_module, "RETRY_BACKOFF", 0.01)

        plan = plan_exhaustive(motivating_function, motivating_golden)
        engine = CampaignEngine(motivating_machine, plan,
                                golden=motivating_golden)
        base = collected(engine, checkpoint_interval=whole_trace_interval(
            motivating_golden))
        policy = ChaosPolicy().kill_worker(chunk=1, segment=2)
        healed, deltas = supervised(engine, workers=4, chunk_size=16,
                                    chaos=policy)
        assert deltas["engine.recoveries"] >= 1
        assert_identical(base, healed)

    def test_benchmark_killed_worker_parity_with_checkpoints(
            self, monkeypatch):
        from repro.fi import engine as engine_module
        from repro.fi.chaos import ChaosPolicy

        monkeypatch.setattr(engine_module, "RETRY_BACKOFF", 0.01)

        run = benchmark_run("bitcount")
        registers = run.function.registers()[::5]
        plan = strided_exhaustive_plan(run.function, run.golden, 97,
                                       registers, (0, 13))
        engine = CampaignEngine(run.machine, plan, regs=run.regs,
                                golden=run.golden)
        base = collected(engine, checkpoint_interval=whole_trace_interval(
            run.golden))
        interval = max(1, run.golden.cycles // 16)
        policy = ChaosPolicy().kill_worker(chunk=0, segment=0)
        healed, deltas = supervised(engine, workers=4, chunk_size=8,
                                    checkpoint_interval=interval,
                                    chaos=policy)
        assert deltas["engine.recoveries"] >= 1
        assert_identical(base, healed)

    @pytest.mark.parametrize("attempt,counter", [
        (0, "engine.recoveries"),
        (None, "engine.serial_degraded_chunks"),
    ])
    def test_pruned_runs_exact_under_recovery(
            self, motivating_function, motivating_machine,
            motivating_golden, monkeypatch, attempt, counter):
        """A killed worker's segments are re-run by a respawned worker
        (``attempt=0``) or serially in the parent (``attempt=None``
        kills every retry); either way each segment's pruned count is
        taken exactly once."""
        from repro.fi import engine as engine_module
        from repro.fi.chaos import ChaosPolicy

        monkeypatch.setattr(engine_module, "RETRY_BACKOFF", 0.01)

        plan = plan_exhaustive(motivating_function, motivating_golden)
        engine = CampaignEngine(motivating_machine, plan,
                                golden=motivating_golden)
        base = collected(engine, prune="liveness",
                         checkpoint_interval=whole_trace_interval(
                             motivating_golden))
        assert base[0].pruned_runs > 0
        policy = ChaosPolicy().kill_worker(chunk=1, segment=0,
                                           attempt=attempt)
        healed, deltas = supervised(engine, workers=4, chunk_size=16,
                                    prune="liveness", chaos=policy)
        assert deltas[counter] >= 1
        assert_identical(base, healed)
        assert healed[0].pruned_runs == base[0].pruned_runs


class TestSamplingCheckpointParity:
    def test_estimate_avf_checkpointed_is_identical(self,
                                                    motivating_function,
                                                    motivating_machine,
                                                    motivating_golden):
        from repro.fi.sampling import estimate_avf
        plain = estimate_avf(motivating_machine, motivating_function,
                             motivating_golden, 200, seed=7)
        checked = estimate_avf(motivating_machine, motivating_function,
                               motivating_golden, 200, seed=7,
                               checkpoint_interval=8)
        assert checked.avf == plain.avf
        assert checked.vulnerable == plain.vulnerable
        assert (checked.low, checked.high) == (plain.low, plain.high)
