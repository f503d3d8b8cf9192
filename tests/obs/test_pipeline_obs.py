"""Integration tests: the pipeline reports into the obs singletons.

Campaigns count executed runs (merged back from forked workers),
sweeps embed their metrics delta, the store counts hits/misses and
emits structured quarantine events, and the batched core attributes
escapes per divergence program point.
"""

import json

import pytest

from repro import obs
from repro.fi import batch
from repro.fi.campaign import plan_exhaustive
from repro.fi.chaos import corrupt_chunk
from repro.fi.engine import CampaignEngine
from repro.fi.machine import Machine
from repro.store import CachingRunner, ResultStore, load_spec, run_sweep


@pytest.fixture
def mark():
    return obs.metrics().mark()


def delta_totals(mark):
    registry = obs.metrics()
    return registry.totals(registry.delta_since(mark))


@pytest.fixture
def small_plan(motivating_function, motivating_golden):
    return plan_exhaustive(motivating_function, motivating_golden)[:40]


class TestEngineMetrics:
    def test_serial_campaign_counts_runs(self, motivating_machine,
                                         motivating_golden, small_plan,
                                         mark):
        CampaignEngine(motivating_machine, small_plan,
                       golden=motivating_golden).run()
        totals = delta_totals(mark)
        assert totals["engine.runs_executed"] == len(small_plan)
        assert totals["engine.campaigns"] == 1

    def test_forked_workers_merge_their_delta(self, motivating_machine,
                                              motivating_golden,
                                              small_plan, mark):
        CampaignEngine(motivating_machine, small_plan,
                       golden=motivating_golden).run(
            workers=2, checkpoint_interval=8)
        totals = delta_totals(mark)
        assert totals["engine.runs_executed"] == len(small_plan)
        assert totals["engine.worker_spawns"] >= 2

    def test_recovery_counters_count_healings(
            self, motivating_machine, motivating_golden, small_plan, mark,
            monkeypatch):
        """Supervision telemetry lives only in the registry: a clean
        campaign adds nothing to ``engine.recoveries`` /
        ``engine.serial_degraded_chunks``, a killed worker adds to
        the former, and either way every run is counted once: the
        killed worker's delivered blocks were counted as they went
        home."""
        from repro.fi import engine as engine_module
        from repro.fi.chaos import ChaosPolicy

        monkeypatch.setattr(engine_module, "RETRY_BACKOFF", 0.01)
        engine = CampaignEngine(motivating_machine, small_plan,
                                golden=motivating_golden)
        engine.run(workers=2, chunk_size=8)
        totals = delta_totals(mark)
        assert totals.get("engine.recoveries", 0) == 0
        assert totals.get("engine.serial_degraded_chunks", 0) == 0
        assert totals["engine.runs_executed"] == len(small_plan)
        healed_mark = obs.metrics().mark()
        engine.run(workers=2, chunk_size=8,
                   chaos=ChaosPolicy().kill_worker(chunk=0, segment=1))
        totals = delta_totals(healed_mark)
        assert totals["engine.recoveries"] >= 1
        assert totals.get("engine.serial_degraded_chunks", 0) == 0
        assert totals["engine.runs_executed"] == len(small_plan)

    def test_campaign_spans_nest(self, motivating_machine,
                                 motivating_golden, small_plan):
        tracer = obs.tracer()
        tracer.start()
        try:
            CampaignEngine(motivating_machine, small_plan,
                           golden=motivating_golden).run(chunk_size=16)
        finally:
            tracer.stop()
        records = tracer.records()
        campaigns = [r for r in records if r["name"] == "engine.campaign"]
        chunks = [r for r in records if r["name"] == "engine.chunk"]
        assert len(campaigns) == 1
        assert len(chunks) == (len(small_plan) + 15) // 16
        assert all(chunk["parent"] == "engine.campaign"
                   for chunk in chunks)
        assert campaigns[0]["args"]["runs"] == len(small_plan)


class TestStoreMetrics:
    def test_hit_miss_and_byte_counters(self, tmp_path,
                                        motivating_machine,
                                        motivating_golden, small_plan,
                                        mark):
        with ResultStore(str(tmp_path / "s.sqlite")) as store:
            runner = CachingRunner(store)
            assert not runner.run(motivating_machine, small_plan,
                                  golden=motivating_golden).cached
            assert runner.run(motivating_machine, small_plan,
                              golden=motivating_golden).cached
        totals = delta_totals(mark)
        assert totals["store.misses"] == 1
        assert totals["store.hits"] == 1
        assert totals["store.bytes_in"] > 0

    def test_quarantine_emits_structured_event_and_warning(
            self, tmp_path, motivating_machine, motivating_golden,
            small_plan, mark):
        path = str(tmp_path / "s.sqlite")
        with ResultStore(path) as store:
            runner = CachingRunner(store)
            runner.run(motivating_machine, small_plan,
                       golden=motivating_golden)
            key = runner.last_key
            corrupt_chunk(store, key, chunk_index=0)
            before = len(obs.logger().events(name="store.quarantine"))
            with pytest.warns(RuntimeWarning, match="quarantined"):
                assert store.get(key) is None     # API compat: a miss
        events = obs.logger().events(name="store.quarantine")
        assert len(events) == before + 1
        fields = events[-1]["fields"]
        assert fields["key"] == key
        assert fields["chunk"] == 0
        assert fields["reason"] == "digest mismatch"
        assert fields["digest"]          # expected digest is carried
        totals = delta_totals(mark)
        assert totals["store.quarantined"] == 1


class TestSweepMetrics:
    SPEC = {
        "grid": {"kernels": ["bitcount"], "modes": ["bec"],
                 "harden": ["none"], "cores": ["threaded"]},
        "engine": {"max_runs": 25},
    }

    def _spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC))
        return load_spec(str(path))

    def test_warm_sweep_all_hits_zero_executions(self, tmp_path):
        spec = self._spec(tmp_path)
        with ResultStore(str(tmp_path / "s.sqlite")) as store:
            cold = run_sweep(spec, store)
            warm = run_sweep(spec, store)
        assert cold.metrics["engine.runs_executed"] > 0
        assert cold.metrics["sweep.cells"] == cold.cells_total
        # Fully warm: one store hit per cell, not a single executed run.
        assert warm.metrics["store.hits"] == warm.cells_total
        assert warm.metrics.get("engine.runs_executed", 0) == 0
        assert warm.simulator_runs == 0
        assert warm.to_json()["metrics"] == warm.metrics

    def test_sweep_spans_nest_cells(self, tmp_path):
        spec = self._spec(tmp_path)
        tracer = obs.tracer()
        tracer.start()
        try:
            with ResultStore(str(tmp_path / "s.sqlite")) as store:
                run_sweep(spec, store)
        finally:
            tracer.stop()
        records = tracer.records()
        cells = [r for r in records if r["name"] == "sweep.cell"]
        assert len(cells) == 1
        assert cells[0]["parent"] == "sweep"
        assert cells[0]["args"]["status"] == "run"


@pytest.mark.skipif(not batch.numpy_available(),
                    reason="NumPy not installed")
class TestBatchMetrics:
    def test_escapes_labeled_by_divergence_site(self, motivating_function,
                                                motivating_golden,
                                                mark):
        machine = Machine(motivating_function, memory_size=256,
                          core="batched")
        plan = plan_exhaustive(motivating_function, motivating_golden)
        CampaignEngine(machine, plan, golden=motivating_golden).run(
            checkpoint_interval=8)
        registry = obs.metrics()
        delta = registry.delta_since(mark)
        retired = {dict(key).get("outcome"): value for key, value
                   in delta["batch.lanes_retired"]["children"].items()}
        assert sum(retired.values()) == len(plan)
        assert retired.get("masked", 0) > 0
        escapes = delta.get("batch.escapes", {"children": {}})["children"]
        assert sum(escapes.values()) == retired.get("escape", 0)
        for key in escapes:
            labels = dict(key)
            # Every escape is attributed to a real instruction.
            pp = int(labels["pp"])
            opcode = motivating_function.instruction_at(pp).opcode.name
            assert labels["opcode"] == opcode


class TestDisabledOverheadSurface:
    def test_disabled_tracer_allocates_nothing(self):
        tracer = obs.tracer()
        assert not tracer.enabled
        first = tracer.span("engine.chunk", index=1)
        second = tracer.span("store.get", key="k")
        assert first is second           # the shared no-op singleton
