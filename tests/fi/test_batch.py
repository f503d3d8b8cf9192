"""Tests for the lockstep-vectorized campaign core and its satellites.

The batched core's contract is the engine contract: ``CampaignResult``
aggregates — run order, per-run effects, trace signatures,
``effect_counts()``, ``vulnerable_runs()``, ``distinct_traces``,
``archived_bytes`` — must be bit-identical to the scalar cores for
every composition of lanes, workers, checkpoint intervals and the
liveness prune.  The scalar ``reference`` core is the oracle
throughout.
"""

import pytest

from repro.errors import SimulationError
from repro.experiments.common import benchmark_run
from repro.fi import batch
from repro.fi.campaign import (EFFECT_MASKED, PlannedRun, plan_bec,
                               plan_exhaustive)
from repro.fi.engine import CampaignEngine
from repro.fi.machine import (DEFAULT_MAX_CYCLES, Injection, Machine,
                              MemoryInjection)
from repro.fi.prune import LivenessPruner
from repro.fi.sampling import estimate_avf
from tests.fi.test_engine import (assert_identical, collected,
                                  strided_exhaustive_plan)

pytestmark = pytest.mark.skipif(not batch.numpy_available(),
                                reason="NumPy not installed")


@pytest.fixture(scope="module")
def motivating_batched(motivating_function):
    return Machine(motivating_function, memory_size=256, core="batched")


@pytest.fixture(scope="module")
def motivating_reference_result(motivating_function, motivating_golden):
    plan = plan_exhaustive(motivating_function, motivating_golden)
    machine = Machine(motivating_function, memory_size=256,
                      core="reference")
    return plan, collected(CampaignEngine(machine, plan,
                                          golden=motivating_golden))


class TestBatchedMachine:
    def test_single_runs_use_threaded_core(self, motivating_function,
                                           motivating_golden,
                                           motivating_batched):
        trace = motivating_batched.run()
        assert trace.key() == motivating_golden.key()
        injection = Injection(7, "v", 1)
        threaded = Machine(motivating_function, memory_size=256)
        assert motivating_batched.run(injection=injection).key() \
            == threaded.run(injection=injection).key()

    def test_unknown_core_rejected(self, motivating_function):
        with pytest.raises(SimulationError):
            Machine(motivating_function, core="simd")

    def test_invalid_site_fails_loudly(self, motivating_function,
                                       motivating_golden,
                                       motivating_batched):
        plan = [PlannedRun(Injection(3, "v", 99), None, None, None)]
        engine = CampaignEngine(motivating_batched, plan,
                                golden=motivating_golden)
        with pytest.raises(SimulationError):
            engine.run()


class TestBatchedEngineParity:
    @pytest.mark.parametrize("kwargs", [
        {},
        {"lanes": 1},
        {"lanes": 7},
        {"checkpoint_interval": 4},
        {"checkpoint_interval": 29, "lanes": 17},
        {"workers": 4},
        {"workers": 3, "lanes": 5},
        {"prune": "liveness"},
        {"prune": "liveness", "workers": 4, "checkpoint_interval": 8},
    ])
    def test_motivating_exhaustive(self, motivating_batched,
                                   motivating_golden,
                                   motivating_reference_result, kwargs,
                                   monkeypatch):
        plan, base = motivating_reference_result
        kwargs = dict(kwargs)
        if "lanes" in kwargs:
            monkeypatch.setattr(batch, "LANES", kwargs.pop("lanes"))
        engine = CampaignEngine(motivating_batched, plan,
                                golden=motivating_golden)
        result = collected(engine, **kwargs)
        assert result[0].vectorized
        assert_identical(base, result)

    def test_benchmark_strided_plan(self):
        run = benchmark_run("bitcount")
        registers = run.function.registers()[::5]
        plan = strided_exhaustive_plan(run.function, run.golden, 97,
                                       registers, (0, 13))
        base = collected(CampaignEngine(run.machine, plan, regs=run.regs,
                                        golden=run.golden))
        batched = Machine(run.function, core="batched",
                          memory_image=run.machine.memory_image)
        engine = CampaignEngine(batched, plan, regs=run.regs,
                                golden=run.golden)
        interval = max(1, run.golden.cycles // 16)
        assert_identical(base, collected(engine))
        assert_identical(base, collected(
            engine, checkpoint_interval=interval, workers=4,
            prune="liveness"))

    def test_benchmark_bec_plan(self):
        """The BEC plan is the non-masked residue — dominated by
        divergent lanes, i.e. the escape path."""
        run = benchmark_run("bitcount")
        plan = plan_bec(run.function, run.golden, run.bec)[::97]
        base = collected(CampaignEngine(run.machine, plan, regs=run.regs,
                                        golden=run.golden))
        batched = Machine(run.function, core="batched",
                          memory_image=run.machine.memory_image)
        assert_identical(base, collected(CampaignEngine(
            batched, plan, regs=run.regs, golden=run.golden)))

    def test_memory_and_multi_upsets_take_scalar_path(
            self, motivating_function, motivating_golden,
            motivating_batched):
        """Plans the lockstep core cannot represent (memory faults,
        post-trace flips) still classify bit-identically through the
        embedded scalar path."""
        plan = [
            PlannedRun(Injection(3, "v", 1), None, None, None),
            PlannedRun(MemoryInjection(5, 17, 3), None, None, None),
            PlannedRun(Injection(motivating_golden.cycles + 40, "v", 0),
                       None, None, None),
            PlannedRun(MemoryInjection(-1, 0, 0), None, None, None),
        ]
        reference = Machine(motivating_function, memory_size=256,
                            core="reference")
        base = collected(CampaignEngine(reference, plan,
                                        golden=motivating_golden))
        engine = CampaignEngine(motivating_batched, plan,
                                golden=motivating_golden)
        assert_identical(base, collected(engine))
        assert_identical(base, collected(engine, checkpoint_interval=8))

    def test_off_program_injections_take_scalar_path(
            self, motivating_function, motivating_golden,
            motivating_batched):
        """An injection into a register no instruction names has no
        slot: its plan entry runs on the scalar path and classifies
        masked, and the campaign equals the threaded engine's."""
        plan = []
        for cycle in (-1, 0, 9, 30, motivating_golden.cycles - 1):
            plan.append(PlannedRun(Injection(cycle, "v2", 1),
                                   None, None, None))
            plan.append(PlannedRun(Injection(cycle, "offprogram", 2),
                                   None, None, None))
        threaded = Machine(motivating_function, memory_size=256)
        base = collected(CampaignEngine(threaded, plan,
                                        golden=motivating_golden))
        assert all(effect == EFFECT_MASKED
                   for _, effect, _, _ in base[1][1::2])
        engine = CampaignEngine(motivating_batched, plan,
                                golden=motivating_golden)
        result = collected(engine)
        assert result[0].vectorized
        assert_identical(base, result)
        assert_identical(base, collected(engine, checkpoint_interval=8,
                                         prune="liveness"))
        _, snapshots = motivating_batched.run_with_snapshots(interval=8)
        classifier = batch.BatchClassifier(
            motivating_batched, plan, None, motivating_golden, snapshots,
            DEFAULT_MAX_CYCLES)
        assert sorted(classifier._entries) == list(range(0, len(plan), 2))

    def test_hardened_detected_class(self):
        """`check` traps (the hardened `detected` class) divergence-
        escape out of the lockstep batch and classify identically."""
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
        base = collected(CampaignEngine(machine, plan, regs=run.regs,
                                        golden=golden))
        assert base[0].effect_counts()["detected"] > 0
        batched = Machine(result.function, core="batched",
                          memory_image=run.machine.memory_image)
        assert_identical(base, collected(CampaignEngine(
            batched, plan, regs=run.regs, golden=golden)))

    def test_numpy_fallback_is_silent_and_identical(
            self, motivating_batched, motivating_golden,
            motivating_reference_result, monkeypatch):
        plan, base = motivating_reference_result
        monkeypatch.setattr(batch, "_np", None)
        assert not batch.numpy_available()
        engine = CampaignEngine(motivating_batched, plan,
                                golden=motivating_golden)
        fallback = collected(engine)
        assert not fallback[0].vectorized
        assert_identical(base, fallback)
        assert_identical(base, collected(engine, workers=4,
                                         checkpoint_interval=8))


class TestLivenessPrune:
    def test_prunes_only_provably_masked(self, motivating_function,
                                         motivating_golden):
        pruner = LivenessPruner(motivating_function, motivating_golden)
        machine = Machine(motivating_function, memory_size=256)
        plan = plan_exhaustive(motivating_function, motivating_golden)
        pruned = [planned for planned in plan
                  if pruner.provably_masked(planned.injection)]
        assert pruned, "expected some provably dead sites"
        for planned in pruned[::7]:
            injected = machine.run(injection=planned.injection)
            assert injected.key() == motivating_golden.key(), \
                planned.injection

    def test_post_trace_flip_is_masked(self, motivating_function,
                                       motivating_golden):
        pruner = LivenessPruner(motivating_function, motivating_golden)
        late = Injection(motivating_golden.cycles + 5, "v", 0)
        assert pruner.provably_masked(late)

    def test_memory_injection_never_pruned(self, motivating_function,
                                           motivating_golden):
        pruner = LivenessPruner(motivating_function, motivating_golden)
        assert not pruner.provably_masked(MemoryInjection(3, 0, 0))

    def test_invalid_bit_fails_loudly(self, motivating_function,
                                      motivating_golden):
        pruner = LivenessPruner(motivating_function, motivating_golden)
        with pytest.raises(SimulationError):
            pruner.provably_masked(Injection(0, "v", 99))

    @pytest.mark.parametrize("core", ["threaded", "reference", "batched"])
    def test_pruned_campaign_identical(self, motivating_function,
                                       motivating_golden,
                                       motivating_reference_result,
                                       core):
        plan, base = motivating_reference_result
        machine = Machine(motivating_function, memory_size=256,
                          core=core)
        engine = CampaignEngine(machine, plan, golden=motivating_golden)
        pruned = collected(engine, prune="liveness")
        assert pruned[0].pruned_runs > 0
        assert_identical(base, pruned)

    def test_pruned_benchmark_campaign_identical(self):
        run = benchmark_run("CRC32")
        registers = run.function.registers()[::5]
        plan = strided_exhaustive_plan(run.function, run.golden, 389,
                                       registers, (5,))
        engine = CampaignEngine(run.machine, plan, regs=run.regs,
                                golden=run.golden)
        base = collected(engine)
        pruned = collected(engine, prune="liveness")
        assert pruned[0].pruned_runs > 0
        assert_identical(base, pruned)

    def test_unknown_prune_mode_rejected(self, motivating_function,
                                         motivating_golden):
        machine = Machine(motivating_function, memory_size=256)
        engine = CampaignEngine(machine, [], golden=motivating_golden)
        with pytest.raises(SimulationError):
            engine.run(prune="static")


class TestBatchedSampling:
    @pytest.mark.parametrize("use_bec", [False, True])
    def test_estimate_identical(self, motivating_function,
                                motivating_machine, motivating_golden,
                                motivating_bec, motivating_batched,
                                use_bec):
        bec = motivating_bec if use_bec else None
        plain = estimate_avf(motivating_machine, motivating_function,
                             motivating_golden, 250, seed=13, bec=bec,
                             checkpoint_interval=8)
        batched = estimate_avf(motivating_batched, motivating_function,
                               motivating_golden, 250, seed=13, bec=bec,
                               checkpoint_interval=8)
        assert batched.avf == plain.avf
        assert batched.vulnerable == plain.vulnerable
        assert batched.simulator_runs == plain.simulator_runs
        assert (batched.low, batched.high) == (plain.low, plain.high)
