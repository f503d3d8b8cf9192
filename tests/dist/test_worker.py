"""Tests for the distributed worker loop (repro.dist.worker)."""

import pytest

from repro.dist.queue import WorkQueue
from repro.dist.worker import DistWorker, policy_from_specs
from repro.fi.chaos import ChaosPolicy
from repro.store import ResultStore, parse_spec, run_sweep
from repro.store.db import COMMIT_RETRIES

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
