"""Tests for the distributed worker loop (repro.dist.worker)."""

import multiprocessing
import os

import pytest

from repro.dist.queue import DEFAULT_LEASE_SECONDS, WorkQueue
from repro.dist.worker import DistWorker, policy_from_specs
from repro.fi.chaos import ChaosPolicy
from repro.store import ResultStore, parse_spec, run_sweep
from repro.store.db import COMMIT_RETRIES
from tests.store.test_sweep import outcome_fields

SPEC_DATA = {
    "grid": {"kernels": ["bitcount"], "modes": ["bec", "ior"],
             "harden": ["none", "bec"], "budgets": [0.3]},
    "engine": {"max_runs": 20},
}


def make_spec(data=None, name="wtest"):
    return parse_spec(data or SPEC_DATA, name=name)


def archive_rows(store):
    """The store's archived bytes, raw.  PlannedRun tuples compare
    Injections by identity, so bit-identity is asserted on the SQLite
    rows themselves."""
    chunks = store._connection.execute(
        "SELECT key, chunk_index, payload, digest FROM campaign_chunks "
        "ORDER BY key, chunk_index").fetchall()
    results = store._connection.execute(
        "SELECT key, payload, n_runs FROM campaign_results "
        "ORDER BY key").fetchall()
    return chunks, results


@pytest.fixture
def queue(tmp_path):
    with WorkQueue(str(tmp_path / "queue.sqlite")) as opened:
        yield opened


@pytest.fixture
def store(tmp_path):
    with ResultStore(str(tmp_path / "store.sqlite")) as opened:
        yield opened


def drain(queue, store, **overrides):
    options = {"worker_id": "w0", "max_idle_seconds": 5.0}
    options.update(overrides)
    worker = DistWorker(queue, store, **options)
    return worker.run()


class TestWorkerLoop:
    def test_drains_queue_bit_identically_to_serial(self, queue,
                                                    store, tmp_path):
        spec = make_spec()
        with ResultStore(str(tmp_path / "serial.sqlite")) as serial:
            report = run_sweep(spec, serial)
            assert len(queue.enqueue(spec)) == len(spec.cells())
            stats = drain(queue, store)
            assert stats["done"] == len(spec.cells())
            assert stats["failed"] == stats["superseded"] == 0
            assert queue.drained()
            assert archive_rows(store) == archive_rows(serial)
        assert store.verify()["ok"]
        status = queue.status()
        assert status["workers"] == {"w0": len(spec.cells())}
        # Executed cells record the runs they simulated (plan runs
        # minus pruned ones), summing to the serial sweep's count.
        rows = queue.cells()
        assert not any(row["cached"] for row in rows)
        assert sum(row["sim_runs"] for row in rows) \
            == report.simulator_runs > 0

    def test_warm_store_commits_via_cached_envelopes(self, queue,
                                                     store):
        spec = make_spec()
        run_sweep(spec, store)
        warm_rows = archive_rows(store)
        queue.enqueue(spec)
        stats = drain(queue, store)
        assert stats["done"] == len(spec.cells())
        assert queue.drained()
        # Cached completion re-writes nothing: the rows are untouched.
        assert archive_rows(store) == warm_rows
        assert all(row["cached"] and row["sim_runs"] == 0
                   for row in queue.cells())

    def test_max_cells_bounds_one_pass(self, queue, store):
        spec = make_spec()
        queue.enqueue(spec)
        stats = drain(queue, store, max_cells=1)
        assert stats["done"] == 1
        assert not queue.drained()

    def test_unrunnable_cell_is_poisoned_not_looped(self, queue,
                                                    store):
        spec = make_spec({"grid": {"kernels": ["no-such-kernel"]},
                          "engine": {"max_runs": 5}})
        queue.enqueue(spec, max_attempts=2)
        stats = drain(queue, store)
        assert stats["failed"] == 2
        assert stats["done"] == 0
        assert queue.counts()["poisoned"] == 1
        assert queue.drained()
        (row,) = queue.cells()
        assert row["state"] == "poisoned"
        assert row["attempts"] == 2
        assert "no-such-kernel" in row["last_error"]


class TestWorkerChaos:
    def test_store_that_stays_locked_fails_the_lease(self, queue,
                                                     tmp_path):
        spec = make_spec({"grid": {"kernels": ["bitcount"]},
                          "engine": {"max_runs": 5}})
        queue.enqueue(spec, max_attempts=1)
        policy = ChaosPolicy().lock_store(times=COMMIT_RETRIES + 10)
        with ResultStore(str(tmp_path / "locked.sqlite"),
                         chaos=policy) as locked:
            stats = drain(queue, locked)
            assert len(locked) == 0
        assert stats["failed"] == 1
        (row,) = queue.cells()
        assert row["state"] == "poisoned"
        assert "locked" in row["last_error"]

    def test_forfeited_lease_still_commits_idempotently(self, queue,
                                                        store):
        """With no rival claimant the original token still holds the
        lease after a forced expiry, so the lone worker's commit is
        'done'; the superseded path needs a second worker (soak
        test)."""
        spec = make_spec()
        queue.enqueue(spec)
        policy = policy_from_specs(["expire_lease=0"])
        stats = drain(queue, store, chaos=policy)
        assert policy.fired >= 1
        assert stats["done"] == len(spec.cells())
        assert queue.drained()
        assert store.verify()["ok"]


def _drain_files(queue_path, store_path, worker_id):
    with WorkQueue(queue_path) as queue, \
            ResultStore(store_path) as store:
        drain(queue, store, worker_id=worker_id)


TWO_KERNELS = {
    "grid": {"kernels": ["bitcount", "CRC32"], "modes": ["bec", "ior"]},
    "engine": {"max_runs": 20},
}


class TestKernelAffineWorkers:
    @staticmethod
    def _drain_forked(tmp_path, count):
        """*count* forked workers drain the two-kernel spec; returns
        the queue rows."""
        queue_path = str(tmp_path / "queue.sqlite")
        store_path = str(tmp_path / "store.sqlite")
        with WorkQueue(queue_path) as queue:
            queue.enqueue(make_spec(TWO_KERNELS))
        context = multiprocessing.get_context("fork")
        workers = [context.Process(target=_drain_files,
                                   args=(queue_path, store_path, f"w{index}"))
                   for index in range(count)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert [worker.exitcode for worker in workers] == [0] * count
        with WorkQueue(queue_path) as queue:
            assert queue.drained()
            rows = queue.cells()
        assert all(row["state"] == "done" for row in rows)
        with ResultStore(store_path) as store:
            assert store.verify()["ok"]
        return rows

    def test_two_workers_start_on_distinct_kernels(self, tmp_path):
        """A worker runs one cell at a time, so its earliest completed
        cell is its first claim; the second claimant prefers the
        kernel the first does not hold."""
        firsts = {}
        for row in sorted(self._drain_forked(tmp_path, 2),
                          key=lambda row: row["completed_at"]):
            firsts.setdefault(row["worker"], row["cell"].kernel)
        assert len(set(firsts.values())) == len(firsts)

    def test_more_workers_than_kernels_drain_the_queue(self, tmp_path):
        rows = self._drain_forked(tmp_path, 4)
        assert sorted({row["cell"].kernel for row in rows}) == [
            "CRC32", "bitcount"]

    def test_killed_sweep_child_is_replaced_at_once(self, tmp_path,
                                                    monkeypatch):
        """A chaos kill of one forked sweep worker in its first cell
        (computed, not archived): its lease is expired at once, the
        cell is re-leased without waiting out the lease, and the
        report is the serial one."""
        spec = make_spec(TWO_KERNELS)
        with ResultStore(str(tmp_path / "serial.sqlite")) as serial:
            expected = run_sweep(spec, serial, workers=1, max_retries=1)
        marker = str(tmp_path / "killed")
        parent = os.getpid()
        init = DistWorker.__init__

        def arm_one_child(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if os.getpid() == parent:
                return
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return
            self.chaos = ChaosPolicy().kill_dist_worker(0)

        monkeypatch.setattr(DistWorker, "__init__", arm_one_child)
        with ResultStore(str(tmp_path / "forked.sqlite")) as forked:
            report = run_sweep(spec, forked, workers=2, max_retries=1)
            assert forked.verify()["ok"]
        assert os.path.exists(marker)
        assert outcome_fields(report) == outcome_fields(expected)
        assert not report.failed
        assert report.metrics["dist.lease_reclaims"] == 1
        assert report.wall_time < DEFAULT_LEASE_SECONDS / 2


class TestPolicyFromSpecs:
    def test_empty_is_none(self):
        assert policy_from_specs([]) is None
        assert policy_from_specs(None) is None

    def test_all_faults_parse(self):
        policy = policy_from_specs(
            ["kill_cell=1", "kill_claim=2", "expire_lease=0",
             "skew_clock=120.5"])
        assert len(policy.rules) == 4

    @pytest.mark.parametrize("bad", [
        "torch_the_queue=1",        # unknown fault
        "forge_envelope=0",         # not a fault point
        "kill_cell",                # missing value
        "kill_cell=",               # empty value
    ])
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ValueError):
            policy_from_specs([bad])
