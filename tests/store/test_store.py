"""Tests for the SQLite result store and the caching runner."""

import pytest

from repro.bec.analysis import run_bec
from repro.bench.motivating import count_years
from repro.fi import engine as engine_module
from repro.fi.campaign import plan_bec, plan_exhaustive
from repro.fi.engine import CampaignEngine
from repro.fi.machine import Machine
from repro.fi.sink import CollectSink, RunSink, TeeSink
from repro.store import CachingRunner, ResultStore
from repro.store.db import (ChunkCapture, archive_meta, decode_chunk,
                            encode_chunk)


@pytest.fixture(scope="module")
def function():
    return count_years()


@pytest.fixture(scope="module")
def machine(function):
    return Machine(function, memory_size=256)


@pytest.fixture(scope="module")
def golden(machine):
    return machine.run()


@pytest.fixture(scope="module")
def plan(function, golden):
    return plan_bec(function, golden, run_bec(function))


@pytest.fixture
def store(tmp_path):
    with ResultStore(str(tmp_path / "store.sqlite")) as opened:
        yield opened


@pytest.fixture
def small_chunks(monkeypatch):
    """Campaigns archive in 7-record chunks, so a small plan spans
    several ``campaign_chunks`` rows."""
    monkeypatch.setattr(engine_module, "DEFAULT_CHUNK_SIZE", 7)


class StreamSink(RunSink):
    """Keeps the whole protocol interaction: ``begin`` meta, every
    chunk as delivered, the ``finish`` summary."""

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


def assert_same_aggregates(base, other):
    assert other.n_runs == base.n_runs
    assert other.effect_counts() == base.effect_counts()
    assert other.distinct_traces == base.distinct_traces
    assert other.archived_bytes == base.archived_bytes
    assert other.vulnerable_runs() == base.vulnerable_runs()


def pragmas(connection):
    """``(journal_mode, busy_timeout in ms)`` of an open connection."""
    (mode,) = connection.execute("PRAGMA journal_mode").fetchone()
    (timeout,) = connection.execute("PRAGMA busy_timeout").fetchone()
    return mode, timeout


def assert_same_records(base, other):
    assert len(other) == len(base)
    for (planned_a, effect_a, sig_a), (planned_b, effect_b, sig_b) \
            in zip(base, other):
        assert effect_a == effect_b
        assert sig_a == sig_b
        assert planned_a.injection.cycle == planned_b.injection.cycle
        assert planned_a.injection.reg == planned_b.injection.reg
        assert planned_a.injection.bit == planned_b.injection.bit
        assert (planned_a.pp, planned_a.rep, planned_a.epoch) \
            == (planned_b.pp, planned_b.rep, planned_b.epoch)


class TestRoundtrip:
    def test_encode_decode_is_lossless(self, machine, plan, golden):
        records = CollectSink()
        CampaignEngine(machine, plan, golden=golden).run(sink=records)
        blob, raw_size = encode_chunk(records.records)
        assert 0 < len(blob) < raw_size
        assert_same_records([record[:3] for record in records.records],
                            decode_chunk(blob))

    def test_store_persists_across_reopen(self, tmp_path, machine, plan,
                                          golden):
        path = str(tmp_path / "persist.sqlite")
        executed, replayed = CollectSink(), CollectSink()
        with ResultStore(path) as store:
            runner = CachingRunner(store)
            fresh = runner.run(machine, plan, golden=golden, sink=executed)
            assert not fresh.cached
        with ResultStore(path) as store:
            runner = CachingRunner(store)
            cached = runner.run(machine, plan, golden=golden, sink=replayed)
            assert cached.cached
            assert_same_aggregates(fresh, cached)
        assert replayed.records == executed.records

    def test_missing_key_is_none(self, store):
        assert store.get("0" * 32) is None
        assert store.provenance("0" * 32) is None
        assert "0" * 32 not in store


class TestCachingRunner:
    def test_hit_miss_accounting(self, store, machine, plan, golden):
        runner = CachingRunner(store)
        executed, replayed = CollectSink(), CollectSink()
        first = runner.run(machine, plan, golden=golden, sink=executed)
        second = runner.run(machine, plan, golden=golden, sink=replayed)
        assert (runner.hits, runner.misses) == (1, 1)
        assert runner.simulator_runs == len(plan)
        assert not first.cached and second.cached
        assert_same_aggregates(first, second)
        assert replayed.records == executed.records

    def test_sink_without_golden_is_rejected(self, store, machine, plan):
        """A hit could not hand ``begin`` the golden trace a miss's
        engine computes, so a sink needs the caller's golden."""
        with pytest.raises(ValueError, match="golden"):
            CachingRunner(store).run(machine, plan, sink=CollectSink())
        assert len(store) == 0

    def test_storeless_runner_executes_without_keying(
            self, monkeypatch, machine, plan, golden):
        """Without a store the runner is the engine: no content key, no
        chunk capture, the caller's sink fed directly."""
        def forbidden(*args, **kwargs):
            raise AssertionError("a storeless runner keyed or encoded")

        monkeypatch.setattr("repro.store.runner.campaign_key", forbidden)
        monkeypatch.setattr("repro.store.db.encode_chunk", forbidden)
        direct, through = CollectSink(), CollectSink()
        expected = CampaignEngine(machine, plan, golden=golden).run(
            sink=direct)
        runner = CachingRunner()
        result = runner.run(machine, plan, golden=golden, sink=through)
        assert through.records == direct.records
        assert_same_aggregates(result, expected)
        assert result.cached is False
        assert runner.misses == 1 and runner.hits == 0
        assert runner.simulator_runs == len(plan)
        assert runner.last_key is None and runner.last_capture is None

    @pytest.mark.usefixtures("small_chunks")
    @pytest.mark.parametrize("prune", [None, "liveness"])
    def test_hit_replays_the_miss_stream_into_the_sink(
            self, store, machine, plan, golden, prune):
        """A hit streams the archive into the caller's sink exactly as
        the miss's engine streamed it: same begin meta, same chunking,
        same ``(planned, effect, signature, byte_size)`` records."""
        runner = CachingRunner(store)
        executed, replayed = StreamSink(), StreamSink()
        fresh = runner.run(machine, plan, golden=golden, prune=prune,
                           sink=executed)
        cached = runner.run(machine, plan, golden=golden, prune=prune,
                            sink=replayed)
        assert not fresh.cached and cached.cached
        assert len(executed.chunks) > 1
        assert replayed.chunks == executed.chunks
        for field in ("total_runs", "vectorized", "chunk_size"):
            assert replayed.meta[field] == executed.meta[field]
        assert replayed.meta["plan"] == plan
        assert replayed.meta["golden"] is golden
        assert replayed.summary == {"wall_time": fresh.wall_time,
                                    "pruned_runs": fresh.pruned_runs}
        assert executed.summary == replayed.summary
        assert cached.n_runs == len(plan)

    def test_parity_knobs_share_one_cell(self, store, machine, plan,
                                         golden):
        runner = CachingRunner(store)
        executed, replayed = CollectSink(), CollectSink()
        serial = runner.run(machine, plan, golden=golden, sink=executed)
        parallel = runner.run(machine, plan, golden=golden, workers=2,
                              checkpoint_interval=8, sink=replayed)
        assert parallel.cached
        assert_same_aggregates(serial, parallel)
        assert replayed.records == executed.records
        assert len(store) == 1

    def test_different_plans_are_different_cells(self, store, machine,
                                                 function, plan, golden):
        runner = CachingRunner(store)
        runner.run(machine, plan, golden=golden)
        exhaustive = plan_exhaustive(function, golden)[:40]
        runner.run(machine, exhaustive, golden=golden)
        assert runner.misses == 2
        assert len(store) == 2

    def test_force_reexecutes(self, store, machine, plan, golden):
        populate = CachingRunner(store)
        populate.run(machine, plan, golden=golden)
        forced = CachingRunner(store, force=True)
        result = forced.run(machine, plan, golden=golden)
        assert not result.cached
        assert forced.misses == 1 and forced.hits == 0
        assert len(store) == 1

    def test_prune_is_a_distinct_cell_with_same_aggregates(
            self, store, machine, plan, golden):
        runner = CachingRunner(store)
        plain = runner.run(machine, plan, golden=golden)
        pruned = runner.run(machine, plan, golden=golden,
                            prune="liveness")
        assert runner.misses == 2
        assert pruned.effect_counts() == plain.effect_counts()
        cached = runner.run(machine, plan, golden=golden,
                            prune="liveness")
        assert cached.cached
        assert cached.pruned_runs == pruned.pruned_runs
        assert runner.simulator_runs \
            == 2 * len(plan) - pruned.pruned_runs

    def test_provenance_recorded(self, store, machine, plan, golden):
        import repro

        runner = CachingRunner(store)
        runner.run(machine, plan, golden=golden)
        key = runner.key_for(machine, plan)
        provenance = store.provenance(key)
        assert provenance["n_runs"] == len(plan)
        assert provenance["repro_version"] == repro.__version__
        assert provenance["created_at"]
        stats = store.stats()
        assert stats["results"] == 1
        assert stats["archived_runs"] == len(plan)


class TestSchemaVersioning:
    def test_incompatible_schema_misses(self, store, machine, plan,
                                        golden):
        """Rows stamped with any other payload layout — a future one,
        or the retired monolithic v1 — miss and are recomputed."""
        runner = CachingRunner(store)
        runner.run(machine, plan, golden=golden)
        key = runner.key_for(machine, plan)
        for version in (0, 1):
            store._connection.execute(
                "UPDATE campaign_results SET schema_version = ?",
                (version,))
            store._connection.commit()
            assert store.get(key) is None
            assert key not in store and len(store) == 0
            rerun = runner.run(machine, plan, golden=golden)
            assert not rerun.cached
            assert key in store


class TestSchemaMigration:
    """The chunked payload layout: archived records and aggregates
    replay exactly, and the compression accounting is recorded."""

    def test_chunked_roundtrip_matches_engine_result(
            self, store, machine, plan, golden):
        capture, executed = ChunkCapture(), CollectSink()
        result = CampaignEngine(machine, plan, golden=golden).run(
            chunk_size=7, sink=TeeSink([capture, executed]))
        assert len(capture.chunks) > 1
        store.archive("chunked", capture.chunks,
                      archive_meta(result, capture.chunk_size))
        chunked = store.get("chunked")
        assert chunked.cached
        assert_same_aggregates(result, chunked)
        assert chunked.pruned_runs == result.pruned_runs
        assert chunked.vectorized == result.vectorized
        assert chunked.wall_time == result.wall_time
        replayed = CollectSink()
        store.replay("chunked", replayed, plan, golden)
        assert replayed.records == executed.records

    def test_compression_accounting(self, store, machine, plan, golden):
        runner = CachingRunner(store)
        runner.run(machine, plan, golden=golden)
        provenance = store.provenance(runner.key_for(machine, plan))
        assert 0 < provenance["compressed_bytes"] \
            < provenance["uncompressed_bytes"]
        stats = store.stats()
        assert stats["compressed_bytes"] \
            == provenance["compressed_bytes"]
        assert stats["uncompressed_bytes"] \
            == provenance["uncompressed_bytes"]


class TestIntegrity:
    """Digest-verified replay: a corrupted chunk row must degrade to a
    quarantined clean miss (and a re-execution that heals the store),
    never a crash — and ``verify()`` must report exactly the bad row."""

    pytestmark = pytest.mark.usefixtures("small_chunks")

    def _populate(self, store, machine, plan, golden, sink=None):
        runner = CachingRunner(store)
        fresh = runner.run(machine, plan, golden=golden, sink=sink)
        return fresh, runner.key_for(machine, plan)

    def test_chunks_carry_digests(self, store, machine, plan, golden):
        from repro.store.db import chunk_digest

        _, key = self._populate(store, machine, plan, golden)
        rows = store._connection.execute(
            "SELECT payload, digest FROM campaign_chunks "
            "WHERE key = ?", (key,)).fetchall()
        assert rows
        for payload, digest in rows:
            assert digest == chunk_digest(payload)

    def test_corrupt_chunk_misses_quarantines_and_heals(
            self, store, machine, plan, golden):
        from repro.fi.chaos import corrupt_chunk

        executed = CollectSink()
        fresh, key = self._populate(store, machine, plan, golden,
                                    sink=executed)
        corrupt_chunk(store, key, chunk_index=1)
        with pytest.warns(RuntimeWarning, match="digest mismatch"):
            assert store.get(key) is None
        assert store.quarantined() == [(key, 1, "digest mismatch")]
        # The clean miss makes the caching runner re-execute; the
        # rewrite replaces the damaged archive and clears quarantine.
        rerun_records = CollectSink()
        rerun = CachingRunner(store).run(machine, plan, golden=golden,
                                         sink=rerun_records)
        assert not rerun.cached
        assert_same_aggregates(fresh, rerun)
        assert rerun_records.records == executed.records
        assert store.quarantined() == []
        healed = store.get(key)
        assert healed is not None
        assert_same_aggregates(fresh, healed)
        # The rewritten archive holds the fresh run's records.
        replayed = CollectSink()
        store.replay(key, replayed, plan, golden)
        assert replayed.records == executed.records

    def test_quarantined_key_keeps_missing_without_rewarning(
            self, store, machine, plan, golden):
        from repro.fi.chaos import corrupt_chunk

        _, key = self._populate(store, machine, plan, golden)
        corrupt_chunk(store, key)
        with pytest.warns(RuntimeWarning):
            assert store.get(key) is None
        assert store.get(key) is None    # already quarantined: silent

    def test_pre_digest_row_decode_guard(self, store, machine, plan,
                                         golden):
        """Rows archived before the digest column existed (NULL digest)
        fall back to decode validation: corruption surfaces as a
        quarantining KeyError on load, and the key misses afterwards."""
        _, key = self._populate(store, machine, plan, golden)
        store._connection.execute(
            "UPDATE campaign_chunks SET digest = NULL, payload = ? "
            "WHERE key = ? AND chunk_index = 0",
            (b"not zlib at all", key))
        store._connection.commit()
        result = store.get(key)          # meta + digests look fine
        assert result is not None
        with pytest.warns(RuntimeWarning, match="quarantined"):
            with pytest.raises(KeyError):
                store.replay(key, CollectSink(), plan, golden)
        assert store.get(key) is None    # quarantine now blocks the hit

    def test_verify_clean_store(self, store, machine, plan, golden):
        self._populate(store, machine, plan, golden)
        report = store.verify()
        assert report["ok"]
        assert report["corrupt"] == []
        assert report["quarantined"] == 0
        assert report["results"] == 1
        assert report["chunks"] > 1

    def test_verify_reports_exactly_the_corrupt_row(self, store, machine,
                                                    function, plan,
                                                    golden):
        from repro.fi.chaos import corrupt_chunk

        _, key = self._populate(store, machine, plan, golden)
        other = plan_exhaustive(function, golden)[:40]
        runner = CachingRunner(store)
        runner.run(machine, other, golden=golden)
        corrupt_chunk(store, key, chunk_index=2)
        with pytest.warns(RuntimeWarning):
            report = store.verify()
        assert not report["ok"]
        assert report["corrupt"] == [{"key": key, "chunk_index": 2,
                                      "reason": "digest mismatch"}]
        assert report["quarantined"] == 1
        assert report["results"] == 2

    def test_verify_flags_missing_chunk(self, store, machine, plan,
                                        golden):
        from repro.fi.chaos import drop_chunk

        _, key = self._populate(store, machine, plan, golden)
        drop_chunk(store, key, chunk_index=0)
        with pytest.warns(RuntimeWarning):
            report = store.verify()
        assert not report["ok"]
        assert {"key": key, "chunk_index": 0,
                "reason": "missing chunk"} in report["corrupt"]

    def test_wal_and_busy_timeout_active(self, store):
        mode, timeout = pragmas(store._connection)
        assert mode == "wal"
        assert timeout >= 1000


def _hammer_store(path, worker_id, iterations):
    """One concurrent-writer process: archive many small campaigns into
    a shared store.  Any surfaced ``database is locked`` kills the
    process, which the parent test observes as a nonzero exitcode."""
    from repro.fi.campaign import Aggregates, CampaignResult, PlannedRun
    from repro.fi.machine import Injection
    from repro.store import ResultStore

    records = [(PlannedRun(Injection(0, "r", bit), 0, None, None),
                "masked", bytes([bit])) for bit in range(4)]
    aggregates = Aggregates()
    for _, effect, signature in records:
        aggregates.add(effect, signature, 1)
    result = CampaignResult(golden=None, aggregates=aggregates)
    chunks = [(blob, 2, raw_size) for blob, raw_size
              in (encode_chunk(records[:2]), encode_chunk(records[2:]))]
    with ResultStore(path) as store:
        for iteration in range(iterations):
            store.archive(f"key-{worker_id}-{iteration % 3}", chunks,
                          archive_meta(result, 2))


class TestConcurrentWriters:
    """Acceptance: two processes writing the same store concurrently
    both complete without ``database is locked`` surfacing."""

    def test_two_processes_share_one_store(self, tmp_path):
        import multiprocessing

        path = str(tmp_path / "shared.sqlite")
        context = multiprocessing.get_context("fork")
        workers = [context.Process(target=_hammer_store,
                                   args=(path, worker_id, 30))
                   for worker_id in range(2)]
        for process in workers:
            process.start()
        for process in workers:
            process.join(timeout=120)
        assert [process.exitcode for process in workers] == [0, 0]
        with ResultStore(path) as store:
            assert len(store) == 6       # 2 writers x 3 rotating keys
            report = store.verify()
            assert report["ok"]


class TestStoreKnobs:
    """Operator knobs: the busy timeout ($REPRO_STORE_TIMEOUT, else the
    built-in default) and quarantine clearing."""

    def test_env_timeout_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_TIMEOUT", "12.5")
        with ResultStore(str(tmp_path / "env.sqlite")) as store:
            assert pragmas(store._connection) == ("wal", 12500)

    @pytest.mark.parametrize("opener", ["queue", "jobs"])
    def test_every_database_opens_alike(self, tmp_path, monkeypatch,
                                        opener):
        """The dist queue and the service tables open through the same
        ``connect`` as the store: WAL, and $REPRO_STORE_TIMEOUT."""
        from repro.dist.queue import WorkQueue
        from repro.service.jobs import JobsTable

        monkeypatch.setenv("REPRO_STORE_TIMEOUT", "7.25")
        cls = {"queue": WorkQueue, "jobs": JobsTable}[opener]
        table = cls(str(tmp_path / "sub" / f"{opener}.sqlite"))
        try:
            assert pragmas(table._connection) == ("wal", 7250)
        finally:
            table.close()

    def test_unparseable_env_warns_and_falls_back(self, tmp_path,
                                                  monkeypatch):
        from repro.store.db import BUSY_TIMEOUT

        monkeypatch.setenv("REPRO_STORE_TIMEOUT", "a while")
        with pytest.warns(RuntimeWarning, match="REPRO_STORE_TIMEOUT"):
            store = ResultStore(str(tmp_path / "bad.sqlite"))
        with store:
            assert pragmas(store._connection)[1] == BUSY_TIMEOUT * 1000

    def test_clear_quarantine_workflow(self, store, machine, plan,
                                       golden, small_chunks):
        """The post-repair loop: corruption quarantines a key; once the
        damaged rows are repaired (here: deleted), ``verify
        --clear-quarantine`` gives the store a clean bill instead of
        reporting stale evidence forever."""
        from repro.fi.chaos import corrupt_chunk

        runner = CachingRunner(store)
        runner.run(machine, plan, golden=golden)
        key = runner.key_for(machine, plan)
        corrupt_chunk(store, key, chunk_index=1)
        with pytest.warns(RuntimeWarning):
            report = store.verify()
        assert not report["ok"]
        assert report["quarantined"] == 1

        # "Repair" by dropping the damaged key's rows entirely.
        store._connection.execute(
            "DELETE FROM campaign_chunks WHERE key = ?", (key,))
        store._connection.execute(
            "DELETE FROM campaign_results WHERE key = ?", (key,))
        store._connection.commit()

        report = store.verify(clear_quarantine=True)
        assert report["ok"]
        assert report["cleared"] == 1
        assert report["quarantined"] == 0
        assert store.quarantined() == []

    def test_clear_quarantine_noop_on_clean_store(self, store):
        assert store.clear_quarantine() == 0
        report = store.verify(clear_quarantine=True)
        assert report["ok"]
        assert report["cleared"] == 0
