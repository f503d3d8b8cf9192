"""Tests for the streaming sink protocol and the bounded-memory bound.

Three layers: unit tests of the sink building blocks (the engine's
block emitter, progress adaptation, collection), parity of the
streamed engine across chunk sizes × workers × pruning (aggregates,
run order and chunk boundaries must be bit-identical to the serial
path), and the bounded-memory bound — peak resident memory under
tracemalloc is governed by ``chunk_size``, not plan length.
"""

import tempfile
import tracemalloc

import pytest

from repro import obs
from repro.errors import SimulationError
from repro.fi.campaign import plan_exhaustive
from repro.fi.engine import BlockEmitter, CampaignEngine
from repro.fi.machine import Machine
from repro.fi.sink import (AggregateSink, CollectSink, ProgressSink,
                           RunSink, TeeSink)
from tests.fi.reference import whole_trace_interval
from tests.fi.test_engine import assert_identical, collected


class RecordingSink(RunSink):
    """Captures the full protocol interaction for assertions."""

    def __init__(self):
        self.meta = None
        self.chunks = []
        self.summary = None

    def begin(self, meta):
        self.meta = meta

    def consume(self, chunk):
        self.chunks.append(list(chunk))

    def finish(self, summary):
        self.summary = summary

    @property
    def records(self):
        return [record for chunk in self.chunks for record in chunk]


def fake_record(value):
    return (f"effect-{value}", bytes([value % 251]), value)


class TestBlockEmitter:
    """The engine's one schedule: part ``k`` of each block of
    ``n_parts × chunk_size`` rows is ``block[k::n_parts]``, and the
    emitter merges the parts back into plan order and re-cuts them at
    ``chunk_size`` boundaries."""

    @staticmethod
    def _dealt(emitter):
        """Every ``(part, block, records)`` the schedule deals, each
        row's record standing in for its classification."""
        return [(part, block,
                 [fake_record(index) for index in emitter.rows(part, block)])
                for part in range(emitter.n_parts)
                for block in emitter.blocks(part)]

    def test_parts_are_strided_segments(self):
        """Part ``k`` of block ``s`` holds the rows of segment ``s`` of
        the strided deal ``plan[k::n_parts]`` cut into ``chunk_size``
        segments, which is what ``ChaosPolicy.kill_worker(chunk=k,
        segment=s)`` names."""
        for n_items in range(1, 40):
            for n_parts in range(1, 5):
                for chunk_size in range(1, 8):
                    emitter = BlockEmitter(range(n_items), None,
                                           chunk_size, n_parts)
                    for part in range(n_parts):
                        mine = range(n_items)[part::n_parts]
                        assert [emitter.rows(part, block)
                                for block in emitter.blocks(part)] == [
                            mine[low:low + chunk_size]
                            for low in range(0, len(mine), chunk_size)]

    def test_one_part_emits_chunk_size_pieces(self):
        plan = [f"planned-{index}" for index in range(10)]
        sink = RecordingSink()
        emitter = BlockEmitter(plan, sink, 4)
        for part, block, records in self._dealt(emitter):
            emitter.add(part, block, records)
        assert [len(chunk) for chunk in sink.chunks] == [4, 4, 2]
        assert [record[0] for record in sink.records] == plan
        assert [record[1:] for record in sink.records] \
            == [fake_record(index) for index in range(10)]

    @pytest.mark.parametrize("n_items,n_chunks,chunk_size", [
        (1, 1, 1), (10, 3, 2), (17, 4, 3), (16, 4, 4), (23, 5, 7),
        (8, 8, 1),
    ])
    def test_restores_plan_order_for_any_arrival_order(
            self, n_items, n_chunks, chunk_size):
        # Deliver the parts in an adversarial (reversed) order.
        plan = [f"planned-{index}" for index in range(n_items)]
        sink = RecordingSink()
        emitter = BlockEmitter(plan, sink, chunk_size, n_chunks)
        for part, block, records in reversed(self._dealt(emitter)):
            emitter.add(part, block, records, pruned=1)
        assert sink.records == [(plan[index],) + fake_record(index)
                                for index in range(n_items)]
        assert [len(chunk) for chunk in sink.chunks] == [
            len(plan[low:low + chunk_size])
            for low in range(0, n_items, chunk_size)]
        assert emitter.pruned == len(self._dealt(emitter))

    def test_emits_a_block_once_all_its_parts_arrive(self):
        plan = [f"planned-{index}" for index in range(4)]
        sink = RecordingSink()
        # Two parts of one-row chunks: blocks [0, 1] and [2, 3].
        emitter = BlockEmitter(plan, sink, 1, 2)
        emitter.add(0, 0, [fake_record(0)])
        emitter.add(1, 1, [fake_record(3)])
        assert sink.chunks == []
        emitter.add(1, 0, [fake_record(1)])
        assert sink.records == [(plan[index],) + fake_record(index)
                                for index in range(2)]
        emitter.add(0, 1, [fake_record(2)])
        assert [len(chunk) for chunk in sink.chunks] == [1, 1, 1, 1]
        assert sink.records == [(plan[index],) + fake_record(index)
                                for index in range(4)]


class TestProgressSink:
    def _drive(self, total, chunk_sizes):
        seen = []
        sink = ProgressSink(lambda done, all_: seen.append((done, all_)))
        sink.begin({"total_runs": total})
        for size in chunk_sizes:
            sink.consume([None] * size)
        sink.finish({})
        return seen

    def test_monotone_and_final(self):
        seen = self._drive(10, [4, 4, 2])
        assert seen == [(4, 10), (8, 10), (10, 10)]
        assert [done for done, _ in seen] \
            == sorted(done for done, _ in seen)

    def test_empty_campaign_still_reports_completion(self):
        assert self._drive(0, []) == [(0, 0)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_campaign_reports_its_final_count_once(
            self, motivating_function, motivating_machine,
            motivating_golden, workers):
        plan = plan_exhaustive(motivating_function, motivating_golden)
        seen = []
        CampaignEngine(motivating_machine, plan,
                       golden=motivating_golden).run(
            workers=workers, chunk_size=64,
            progress=lambda done, total: seen.append((done, total)))
        assert seen[-1] == (len(plan), len(plan))
        assert seen.count(seen[-1]) == 1
        assert len(seen) == -(-len(plan) // 64)


class TestCollectSink:
    def test_keeps_every_record_in_plan_order(self):
        sink = CollectSink()
        sink.begin({"total_runs": 5})
        sink.consume([fake_record(index) for index in range(3)])
        sink.consume([fake_record(index) for index in range(3, 5)])
        sink.finish({})
        assert sink.records == [fake_record(index) for index in range(5)]
        sink.begin({"total_runs": 0})      # a new campaign starts empty
        assert sink.records == []

    def test_multi_chunk_campaign_opens_no_temp_file(
            self, monkeypatch, motivating_function, motivating_machine,
            motivating_golden):
        """Records of a campaign larger than its chunk size live only
        in the sinks that keep them: nothing spills to disk."""

        def no_temp_file(*args, **kwargs):
            raise AssertionError("campaign opened a temp file")

        monkeypatch.setattr(tempfile, "TemporaryFile", no_temp_file)
        plan = plan_exhaustive(motivating_function, motivating_golden)
        engine = CampaignEngine(motivating_machine, plan,
                                golden=motivating_golden)
        sink = CollectSink()
        result = engine.run(chunk_size=16, sink=sink)
        assert len(plan) > 16
        assert result.n_runs == len(plan) == len(sink.records)
        assert [planned for planned, _, _, _ in sink.records] == plan

    def test_raising_sink_fails_the_campaign_and_engine_recovers(
            self, motivating_function, motivating_machine,
            motivating_golden):
        """A sink failing mid-stream propagates its error, and the
        same engine then runs a clean campaign."""

        class ExplodingSink(RunSink):
            def consume(self, chunk):
                raise OSError(28, "No space left on device")

        plan = plan_exhaustive(motivating_function, motivating_golden)
        engine = CampaignEngine(motivating_machine, plan,
                                golden=motivating_golden)
        with pytest.raises(OSError):
            engine.run(chunk_size=16, sink=ExplodingSink())
        result = engine.run(chunk_size=16)
        assert result.n_runs == len(plan)


class TestAggregateSink:
    def test_counts_without_retaining_records(self):
        sink = AggregateSink()
        sink.begin({"total_runs": 3})
        sink.consume([(None, "masked", b"\x01", 5),
                      (None, "sdc", b"\x02", 7)])
        sink.consume([(None, "sdc", b"\x02", 7)])
        sink.finish({})
        aggregates = sink.aggregates
        assert aggregates.n_runs == 3
        assert aggregates.effect_counts()["sdc"] == 2
        assert aggregates.vulnerable == 2
        assert aggregates.distinct_traces == 2
        assert aggregates.archived_bytes == 12


class TestTeeSink:
    def test_fans_out_in_order(self):
        first, second = RecordingSink(), RecordingSink()
        tee = TeeSink([first, second])
        tee.begin({"total_runs": 2})
        tee.consume([fake_record(0), fake_record(1)])
        tee.finish({"wall_time": 1.0})
        for sink in (first, second):
            assert sink.meta == {"total_runs": 2}
            assert sink.records == [fake_record(0), fake_record(1)]
            assert sink.summary == {"wall_time": 1.0}


class TestStreamingParity:
    """Chunk size is a parity knob: any value must reproduce the
    one-chunk aggregates and run order bit-identically, with or
    without workers, checkpointing and pruning."""

    @pytest.fixture(scope="class")
    def campaign(self, motivating_function, motivating_machine,
                 motivating_golden):
        plan = plan_exhaustive(motivating_function, motivating_golden)
        engine = CampaignEngine(motivating_machine, plan,
                                golden=motivating_golden)
        return engine, collected(
            engine, chunk_size=len(plan),
            checkpoint_interval=whole_trace_interval(motivating_golden))

    @pytest.mark.parametrize("kwargs", [
        {"chunk_size": 1},
        {"chunk_size": 7},
        {"chunk_size": 64},
        {"chunk_size": 7, "workers": 4},
        {"chunk_size": 64, "workers": 4, "checkpoint_interval": 8},
        {"chunk_size": 33, "prune": "liveness"},
        {"chunk_size": 33, "workers": 4, "prune": "liveness"},
    ])
    def test_chunked_equals_unchunked(self, campaign, kwargs):
        engine, base = campaign
        assert_identical(base, collected(engine, **kwargs))

    def test_invalid_chunk_size(self, campaign):
        engine, _ = campaign
        with pytest.raises(SimulationError):
            engine.run(chunk_size=0)

    def test_user_sink_sees_plan_ordered_stream(
            self, motivating_function, motivating_machine,
            motivating_golden):
        plan = plan_exhaustive(motivating_function, motivating_golden)
        engine = CampaignEngine(motivating_machine, plan,
                                golden=motivating_golden)
        sink = RecordingSink()
        result = engine.run(workers=2, chunk_size=50, sink=sink,
                            prune="liveness")
        assert sink.meta["total_runs"] == len(plan)
        assert result.pruned_runs > 0
        assert sink.summary == {"wall_time": result.wall_time,
                                "pruned_runs": result.pruned_runs}
        assert all(len(chunk) <= 50 for chunk in sink.chunks)
        assert [planned for planned, _, _, _ in sink.records] == plan
        _, serial = collected(engine, chunk_size=len(plan))
        assert sink.records == serial


    #: No block size (``workers × 7``) divides the 944-row plan.
    BOUNDARY_CHUNK = 7

    def _chunked(self, function, golden, core, **kwargs):
        """``(chunk lengths, records)`` of the motivating exhaustive
        campaign on *core* with ``BOUNDARY_CHUNK``-record chunks."""
        machine = Machine(function, memory_size=256, core=core)
        plan = plan_exhaustive(function, golden)
        assert all(len(plan) % (workers * self.BOUNDARY_CHUNK)
                   for workers in (1, 2, 3))
        sink = RecordingSink()
        CampaignEngine(machine, plan, golden=golden).run(
            chunk_size=self.BOUNDARY_CHUNK, sink=sink, **kwargs)
        return [len(chunk) for chunk in sink.chunks], sink.records

    @pytest.mark.parametrize("core", Machine.CORES)
    @pytest.mark.parametrize("workers", [2, 3])
    def test_chunk_boundaries_equal_serial(
            self, motivating_function, motivating_golden, core, workers):
        """The sink's chunk lengths, which the archive's bytes depend
        on, not only its records, are the serial run's."""
        serial = self._chunked(motivating_function, motivating_golden,
                               core)
        lengths, _ = serial
        assert set(lengths[:-1]) == {self.BOUNDARY_CHUNK}
        assert 0 < lengths[-1] < self.BOUNDARY_CHUNK
        assert self._chunked(motivating_function, motivating_golden,
                             core, workers=workers) == serial

    @pytest.mark.parametrize("core", Machine.CORES)
    def test_chunk_boundaries_survive_serial_degrade(
            self, motivating_function, motivating_golden, core,
            monkeypatch):
        from repro.fi import engine as engine_module
        from repro.fi.chaos import ChaosPolicy

        monkeypatch.setattr(engine_module, "RETRY_BACKOFF", 0.01)
        serial = self._chunked(motivating_function, motivating_golden,
                               core)
        registry = obs.metrics()
        mark = registry.mark()
        policy = ChaosPolicy().kill_worker(chunk=1, segment=3,
                                           attempt=None)
        degraded = self._chunked(motivating_function, motivating_golden,
                                 core, workers=3, chaos=policy)
        totals = registry.totals(registry.delta_since(mark))
        assert totals.get("engine.serial_degraded_chunks", 0) >= 1
        assert degraded == serial


class TestBoundedMemory:
    """The tentpole's acceptance bound: peak resident per-run records
    are O(chunk_size), independent of plan length, on both cores and
    with or without liveness pruning."""

    def _tiled_plan(self, function, golden, factor):
        # A large exhaustive plan: the full register file × cycle grid,
        # tiled (duplicate injections are legal planned runs), so plan
        # length grows without changing per-run simulation cost.
        return list(plan_exhaustive(function, golden)) * factor

    def _peak(self, machine, golden, plan, chunk_size, prune):
        engine = CampaignEngine(machine, plan, golden=golden)
        tracemalloc.start()
        engine.run(checkpoint_interval=8, chunk_size=chunk_size,
                   prune=prune)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    @pytest.mark.parametrize("prune", [None, "liveness"])
    @pytest.mark.parametrize("core", Machine.CORES)
    def test_streamed_peak_is_bounded_by_chunk_size_not_plan(
            self, motivating_function, motivating_golden, core, prune):
        machine = Machine(motivating_function, memory_size=256, core=core)
        small = self._tiled_plan(motivating_function, motivating_golden,
                                 4)
        large = self._tiled_plan(motivating_function, motivating_golden,
                                 16)
        # Unmeasured warm-up: one-time compilation (the threaded tiers,
        # the batched op table) must not inflate the small plan's peak.
        self._peak(machine, motivating_golden, small, 64, prune)
        peak_small_plan = self._peak(machine, motivating_golden, small,
                                     64, prune)
        peak_large_plan = self._peak(machine, motivating_golden, large,
                                     64, prune)
        # 4x the plan must not grow the streamed peak materially (the
        # generous factor absorbs allocator noise, not a linear term:
        # a materializing engine would grow ~4x here).
        assert peak_large_plan < 2 * peak_small_plan
        # The one-chunk (fully resident) run of the same large plan
        # costs a multiple of the streamed peak.
        peak_resident = self._peak(machine, motivating_golden, large,
                                   len(large), prune)
        assert peak_large_plan < peak_resident / 2
        # Outside the measured window: the streamed run's record
        # stream equals the one-chunk run's, in plan order.
        engine = CampaignEngine(machine, large, golden=motivating_golden)
        assert_identical(
            collected(engine, checkpoint_interval=8, chunk_size=len(large),
                      prune=prune),
            collected(engine, checkpoint_interval=8, chunk_size=64,
                      prune=prune))
