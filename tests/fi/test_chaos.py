"""Tests for the pipeline chaos harness (repro.fi.chaos).

The repo measures how programs survive injected faults; these tests
inject faults into the measuring pipeline itself — SIGKILLed workers,
failing sinks, locked stores, corrupted archives — and assert the
self-healing paths hold the same contract as every other engine knob:
bit-identical aggregates, no hangs, no crashes.
"""

import sqlite3

import pytest

from repro.fi.campaign import plan_exhaustive
from repro.fi.chaos import (ChaosError, ChaosPolicy, ChaosSink,
                            corrupt_chunk, drop_chunk, truncate_chunk)
from repro.fi import engine as engine_module
from repro.fi.engine import CampaignEngine
from repro.store.db import ChunkCapture, archive_meta, encode_chunk
from tests.fi.reference import whole_trace_interval
from tests.fi.test_engine import assert_identical, collected, supervised


def archive_run(engine, store, key):
    """Run *engine* in 64-record chunks and archive it under *key*."""
    capture = ChunkCapture()
    result = engine.run(chunk_size=64, sink=capture)
    store.archive(key, capture.chunks,
                  archive_meta(result, capture.chunk_size))
    return result


class TestChaosPolicy:
    def test_rules_match_exactly_and_are_bounded(self):
        policy = ChaosPolicy().on("point", match={"a": 1}, times=2)
        assert not policy.fire("point", a=2)
        assert not policy.fire("other", a=1)
        assert policy.fire("point", a=1)
        assert policy.fire("point", a=1, extra="ignored")
        assert not policy.fire("point", a=1)      # times exhausted
        assert policy.fired == 2

    def test_rule_exception_is_raised(self):
        policy = ChaosPolicy().on("p", exc=ChaosError("boom"))
        with pytest.raises(ChaosError):
            policy.fire("p")
        assert policy.fired == 1

    def test_fail_sink_defaults_to_disk_full(self):
        policy = ChaosPolicy().fail_sink()
        with pytest.raises(OSError) as excinfo:
            policy.fire("sink.consume", index=0)
        assert excinfo.value.errno == 28

    def test_lock_store_raises_locked(self):
        policy = ChaosPolicy().lock_store(times=1)
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            policy.fire("store.commit", attempt=0)

    def test_chaos_sink_fires_per_chunk_ordinal(self):
        policy = ChaosPolicy().fail_sink(index=1)
        sink = ChaosSink(policy)
        sink.begin({})
        sink.consume([None])                      # ordinal 0: no rule
        with pytest.raises(OSError):
            sink.consume([None])                  # ordinal 1 fires
        sink.finish({})
        assert policy.fired == 1

    def test_fire_value_returns_the_rule_payload(self):
        policy = ChaosPolicy().skew_clock(90.0)
        assert policy.fire_value("dist.skew_clock") == 90.0
        assert policy.fire_value("other.point", default=0.0) == 0.0
        assert policy.fire_value("other.point") is None
        assert policy.fired >= 1

    def test_dist_fault_points_match_their_ordinals(self):
        policy = ChaosPolicy().expire_lease(1).expire_lease(3)
        assert not policy.fire("dist.expire_lease", ordinal=0)
        assert policy.fire("dist.expire_lease", ordinal=1)
        assert not policy.fire("dist.expire_lease", ordinal=2)
        assert policy.fire("dist.expire_lease", ordinal=3)
        assert policy.fired == 2

    def test_kill_dist_worker_matches_phase(self):
        policy = ChaosPolicy().kill_dist_worker(0, phase="claim")
        rule = policy.rules[-1]
        assert rule.point == "dist.cell"
        assert rule.match == {"ordinal": 0, "phase": "claim"}
        assert rule.action == "kill"


@pytest.fixture(scope="module")
def baseline(motivating_function, motivating_machine, motivating_golden):
    plan = plan_exhaustive(motivating_function, motivating_golden)
    engine = CampaignEngine(motivating_machine, plan,
                            golden=motivating_golden)
    return engine, collected(engine, checkpoint_interval=whole_trace_interval(
        motivating_golden))


class TestWorkerKill:
    @pytest.fixture(autouse=True)
    def fast_backoff(self, monkeypatch):
        monkeypatch.setattr(engine_module, "RETRY_BACKOFF", 0.01)

    def test_killed_worker_recovers_bit_identical(self, baseline):
        engine, base = baseline
        policy = ChaosPolicy().kill_worker(chunk=0, segment=1)
        healed, deltas = supervised(engine, workers=4, chunk_size=16,
                                    chaos=policy)
        assert deltas["engine.recoveries"] >= 1
        assert deltas["engine.serial_degraded_chunks"] == 0
        assert_identical(base, healed)

    def test_multiple_killed_workers_recover(self, baseline):
        engine, base = baseline
        policy = (ChaosPolicy()
                  .kill_worker(chunk=0, segment=0)
                  .kill_worker(chunk=2, segment=3))
        healed, deltas = supervised(engine, workers=4, chunk_size=16,
                                    chaos=policy)
        assert deltas["engine.recoveries"] >= 2
        assert_identical(base, healed)

    def test_unrecoverable_worker_degrades_to_serial(self, baseline,
                                                     monkeypatch):
        """A chunk whose worker dies on every respawn must exhaust the
        retry budget and finish in-parent — slower, never wrong."""
        monkeypatch.setattr(engine_module, "WORKER_RETRIES", 1)
        engine, base = baseline
        policy = ChaosPolicy().kill_worker(chunk=0, segment=0,
                                           attempt=None)
        healed, deltas = supervised(engine, workers=2, chunk_size=16,
                                    chaos=policy)
        assert deltas["engine.serial_degraded_chunks"] >= 1
        assert_identical(base, healed)

    def test_kill_mid_stream_preserves_earlier_segments(self, baseline):
        """Dying after streaming some segments must not double-count
        them when the respawned worker re-runs the remainder."""
        engine, base = baseline
        policy = ChaosPolicy().kill_worker(chunk=1, segment=4)
        healed, deltas = supervised(engine, workers=2, chunk_size=16,
                                    chaos=policy)
        assert deltas["engine.recoveries"] >= 1
        assert_identical(base, healed)


class TestSinkChaos:
    def test_failing_sink_aborts_cleanly_and_engine_recovers(
            self, baseline):
        engine, base = baseline
        policy = ChaosPolicy().fail_sink(index=0)
        with pytest.raises(OSError):
            engine.run(chunk_size=16, chaos=policy)
        assert policy.fired == 1
        # The teardown left no poisoned state behind: the same engine
        # immediately runs a clean campaign with identical aggregates.
        assert_identical(base, collected(engine, chunk_size=16))

    def test_failing_sink_with_workers_terminates(self, baseline):
        engine, base = baseline
        policy = ChaosPolicy().fail_sink(index=2)
        with pytest.raises(OSError):
            engine.run(workers=4, chunk_size=16, chaos=policy)
        assert_identical(base, collected(engine, workers=4, chunk_size=16))


class TestStoreChaos:
    def test_locked_commits_are_absorbed(self, tmp_path, baseline):
        from repro.store import ResultStore

        engine, base = baseline
        policy = ChaosPolicy().lock_store(times=2)
        with ResultStore(str(tmp_path / "s.sqlite"),
                         chaos=policy) as store:
            archive_run(engine, store, "key")
            assert policy.fired == 2          # two attempts retried
            cached = store.get("key")
            assert cached is not None
            assert cached.effect_counts() == base[0].effect_counts()

    def test_lock_exhaustion_propagates_and_rolls_back(self, tmp_path,
                                                       baseline):
        from repro.store import ResultStore
        from repro.store.db import COMMIT_RETRIES

        result, records = baseline[1]
        blob, raw_size = encode_chunk(records[:64])
        policy = ChaosPolicy().lock_store(times=COMMIT_RETRIES + 10)
        with ResultStore(str(tmp_path / "s.sqlite"),
                         chaos=policy) as store:
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                store.archive("key", [(blob, 64, raw_size)],
                              archive_meta(result, 64))
            assert policy.fired == COMMIT_RETRIES + 1
            assert store.get("key") is None   # rolled back, not partial
            (chunk_rows,) = store._connection.execute(
                "SELECT COUNT(*) FROM campaign_chunks").fetchone()
            assert chunk_rows == 0


class TestAtRestCorruption:
    @pytest.fixture
    def archived(self, tmp_path, baseline):
        from repro.store import ResultStore

        store = ResultStore(str(tmp_path / "s.sqlite"))
        archive_run(baseline[0], store, "key")
        yield store
        store.close()

    def test_corrupt_chunk_is_a_clean_miss(self, archived):
        corrupt_chunk(archived, "key", chunk_index=0)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert archived.get("key") is None

    def test_truncated_chunk_is_a_clean_miss(self, archived):
        truncate_chunk(archived, "key", chunk_index=1)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert archived.get("key") is None

    def test_dropped_chunk_is_a_clean_miss(self, archived):
        drop_chunk(archived, "key", chunk_index=0)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert archived.get("key") is None

    def test_helpers_validate_the_target(self, archived):
        with pytest.raises(KeyError):
            corrupt_chunk(archived, "absent")
        with pytest.raises(KeyError):
            truncate_chunk(archived, "key", chunk_index=999)
