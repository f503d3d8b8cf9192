"""Tests for the lease-based work queue (repro.dist.queue)."""

import multiprocessing
import time

import pytest

from repro.fi.chaos import ChaosPolicy
from repro.store.spec import parse_spec
from repro.dist.queue import WorkQueue, cell_id, spec_digest


def make_spec(kernels=("bitcount",), harden=("none", "bec")):
    return parse_spec({"grid": {"kernels": list(kernels),
                                "harden": list(harden),
                                "budgets": [0.3]},
                       "engine": {"max_runs": 10}}, name="qtest")


@pytest.fixture
def queue(tmp_path):
    with WorkQueue(str(tmp_path / "queue.sqlite")) as opened:
        yield opened


class TestEnqueue:
    def test_enqueues_every_cell(self, queue):
        spec = make_spec()
        inserted = queue.enqueue(spec)
        assert len(inserted) == len(spec.cells()) == 2
        assert queue.counts() == {"pending": 2, "leased": 0,
                                  "done": 0, "poisoned": 0}

    def test_idempotent(self, queue):
        spec = make_spec()
        queue.enqueue(spec)
        assert queue.enqueue(spec) == []
        assert queue.counts()["pending"] == 2

    def test_spec_roundtrips_through_the_queue(self, queue):
        spec = make_spec()
        digest = queue.add_spec(spec)
        loaded = queue.load_spec(digest)
        assert loaded.name == spec.name
        assert loaded.cells() == spec.cells()
        assert spec_digest(loaded) == digest

    def test_unknown_spec_digest_raises(self, queue):
        with pytest.raises(KeyError):
            queue.load_spec("feedfacedeadbeef")

    @pytest.mark.parametrize("max_attempts", [0, -1])
    def test_max_attempts_below_one_is_rejected(self, queue,
                                                max_attempts):
        """Such a cell could never be claimed: workers would idle and
        ``dist status`` would report it pending forever."""
        with pytest.raises(ValueError, match="max_attempts"):
            queue.enqueue(make_spec(), max_attempts=max_attempts)
        assert queue.counts()["pending"] == 0

    def test_cells_set_the_claim_order(self, queue):
        spec = make_spec(kernels=("bitcount", "CRC32"),
                         harden=("none",))
        order = spec.cells()[::-1]
        queue.enqueue(spec, cells=order)
        assert [row["cell"] for row in queue.cells()] == order
        assert queue.claim("w0").cell == order[0]

    def test_cell_identity_is_stable(self):
        spec = make_spec()
        digest = spec_digest(spec)
        cell = spec.cells()[0]
        assert cell_id(digest, cell) == cell_id(digest, cell)
        assert cell_id(digest, cell) \
            != cell_id(digest, spec.cells()[1])


class TestLeasing:
    def test_claim_returns_oldest_cell_with_token(self, queue):
        spec = make_spec()
        queue.enqueue(spec)
        lease = queue.claim("w0", lease_seconds=30)
        assert lease.cell in spec.cells()
        assert lease.attempts == 1
        assert lease.token
        assert lease.expires > time.time()
        assert queue.counts()["leased"] == 1

    def test_two_claims_take_distinct_cells(self, queue):
        queue.enqueue(make_spec())
        first = queue.claim("w0")
        second = queue.claim("w1")
        assert first.cell_id != second.cell_id
        assert queue.claim("w2") is None    # nothing left to claim

    def test_claims_follow_spec_order(self, queue):
        """One spec's cells share an ``enqueued_at``; ties break by
        insertion order, not by cell-id hash."""
        spec = make_spec(kernels=("bitcount", "CRC32", "AES"))
        cells = spec.cells()
        digest = spec_digest(spec)
        assert sorted(cells, key=lambda cell: cell_id(digest, cell)) \
            != cells
        queue.enqueue(spec)
        claimed = [queue.claim("w0").cell for _ in cells]
        assert claimed == cells
        assert [row["cell"] for row in queue.cells()] == cells

    def test_renew_extends_only_the_held_lease(self, queue):
        queue.enqueue(make_spec())
        lease = queue.claim("w0", lease_seconds=1)
        assert queue.renew(lease.token, lease_seconds=60)
        assert not queue.renew("stale-token")

    def test_expired_lease_is_reclaimed_with_attempt_bump(self, queue):
        queue.enqueue(make_spec(harden=("none",)))
        lease = queue.claim("w0", lease_seconds=30)
        queue.force_expire(lease.token)
        reclaimed = queue.claim("w1", lease_seconds=30)
        assert reclaimed.cell_id == lease.cell_id
        assert reclaimed.attempts == 2
        assert reclaimed.token != lease.token
        # The original token no longer renews or completes.
        assert not queue.renew(lease.token)
        assert queue.complete(lease.token) == "superseded"

    def test_live_lease_is_not_reclaimable(self, queue):
        queue.enqueue(make_spec(harden=("none",)))
        queue.claim("w0", lease_seconds=60)
        assert queue.claim("w1") is None

    def test_attempts_are_bounded(self, queue):
        queue.enqueue(make_spec(harden=("none",)),
                      max_attempts=2)
        for _ in range(2):
            lease = queue.claim("w0", lease_seconds=30)
            queue.force_expire(lease.token)
        assert queue.claim("w0") is None
        report = queue.reap()
        assert report["poisoned"] == 1
        assert queue.counts()["poisoned"] == 1
        assert queue.drained()


class TestKernelAffinity:
    """A claim takes the next cell of a kernel the claimant holds, else
    the first cell of a kernel no other worker holds, else, when the
    claimant holds no kernel of the spec, the first claimable cell."""

    def test_workers_never_interleave_kernels(self, queue):
        spec = make_spec(kernels=("bitcount", "CRC32"))
        queue.enqueue(spec)
        kernels = {"w0": [], "w1": []}
        while True:
            claimed = False
            for worker in kernels:
                lease = queue.claim(worker, lease_seconds=30)
                if lease is not None:
                    kernels[worker].append(lease.cell.kernel)
                    queue.complete(lease.token)
                    claimed = True
            if not claimed:
                break
        assert queue.drained()
        assert kernels == {"w0": ["bitcount", "bitcount"],
                           "w1": ["CRC32", "CRC32"]}

    def test_holder_takes_its_kernel_before_older_cells(self, queue):
        queue.enqueue(make_spec(kernels=("bitcount", "CRC32")))
        queue.claim("w0", lease_seconds=30)            # bitcount
        crc = queue.claim("w1", lease_seconds=30)      # CRC32
        queue.complete(crc.token)
        # bitcount's second cell is older, but w0 holds bitcount.
        assert queue.claim("w1", lease_seconds=30).cell.kernel == "CRC32"

    def test_fresh_worker_takes_a_held_kernel(self, queue):
        """A one-kernel spec keeps every fresh worker busy."""
        queue.enqueue(make_spec())
        first = queue.claim("w0", lease_seconds=30)
        second = queue.claim("w1", lease_seconds=30)
        assert second.cell.kernel == first.cell.kernel
        assert second.cell_id != first.cell_id

    def test_holder_leaves_another_workers_kernel_alone(self, queue):
        """A worker done with its own kernels does not repeat another
        worker's set-up for that worker's last cells."""
        queue.enqueue(make_spec(kernels=("bitcount", "CRC32")))
        assert queue.claim("w0", lease_seconds=30).cell.kernel \
            == "bitcount"
        for _ in range(2):
            lease = queue.claim("w1", lease_seconds=30)
            assert lease.cell.kernel == "CRC32"
            queue.complete(lease.token)
        assert queue.claim("w1", lease_seconds=30) is None
        assert queue.claim("w2", lease_seconds=30).cell.kernel \
            == "bitcount"

    def test_hold_is_per_spec(self, queue):
        """Another spec's cells of the same kernel share no compiled
        kernel, variants or analyses, so a hold does not cover them."""
        queue.enqueue(make_spec())
        other = parse_spec({"grid": {"kernels": ["bitcount"]},
                            "engine": {"max_runs": 20}}, name="qtest")
        queue.enqueue(other)
        first = queue.claim("w0", lease_seconds=30)
        second = queue.claim("w1", lease_seconds=30)
        assert first.spec_digest == spec_digest(make_spec())
        assert second.spec_digest == spec_digest(other)

    @pytest.mark.parametrize("skew, claimable", [(0.0, False),
                                                 (15.0, False),
                                                 (31.0, True)])
    def test_kernel_is_claimable_once_the_hold_lapses(self, tmp_path,
                                                      skew, claimable):
        """w0 completed one bitcount cell and let the lease on the
        next one expire; w1 ran both CRC32 cells.  w0's completion
        holds bitcount for *lease_seconds*, so only then does w1 take
        the cell w0 left."""
        path = str(tmp_path / "queue.sqlite")
        with WorkQueue(path) as queue:
            queue.enqueue(make_spec(kernels=("bitcount", "CRC32")))
            queue.complete(queue.claim("w0", lease_seconds=30).token)
            held = queue.claim("w0", lease_seconds=30)
            queue.force_expire(held.token)
            for _ in range(2):
                queue.complete(queue.claim("w1", lease_seconds=30).token)
        with WorkQueue(path, chaos=ChaosPolicy().skew_clock(skew)) \
                as later:
            lease = later.claim("w1", lease_seconds=30)
        if not claimable:
            assert lease is None
        else:
            assert lease.cell_id == held.cell_id
            assert lease.attempts == 2

    def test_expire_worker_releases_a_dead_workers_leases(self, queue):
        queue.enqueue(make_spec(kernels=("bitcount", "CRC32"),
                                harden=("none",)))
        lease = queue.claim("w0", lease_seconds=60)
        queue.claim("w1", lease_seconds=60)
        assert queue.expire_worker("w0") == 1
        assert queue.expire_worker("w0") == 0
        reclaimed = queue.claim("w2", lease_seconds=60)
        assert reclaimed.cell_id == lease.cell_id
        assert queue.claim("w2", lease_seconds=60) is None


class TestCompletion:
    def test_complete_is_token_guarded(self, queue):
        queue.enqueue(make_spec(harden=("none",)))
        lease = queue.claim("w0")
        assert queue.complete(lease.token, result_key="k") == "done"
        assert queue.counts()["done"] == 1
        assert queue.drained()
        # Double completion is superseded, not an error.
        assert queue.complete(lease.token, result_key="k") \
            == "superseded"

    def test_fail_returns_cell_to_pending(self, queue):
        queue.enqueue(make_spec(harden=("none",)))
        lease = queue.claim("w0")
        assert queue.fail(lease.token, "boom") == "pending"
        rows = queue.cells()
        assert rows[0]["state"] == "pending"
        assert "boom" in rows[0]["last_error"]

    def test_fail_poisons_after_max_attempts(self, queue):
        queue.enqueue(make_spec(harden=("none",)), max_attempts=2)
        queue.fail(queue.claim("w0").token, "boom 1")
        assert queue.fail(queue.claim("w0").token, "boom 2") \
            == "poisoned"
        assert queue.counts()["poisoned"] == 1
        (row,) = queue.cells()
        assert row["state"] == "poisoned"
        assert row["attempts"] == 2
        assert row["last_error"] == "boom 2"

    def test_stale_fail_is_superseded(self, queue):
        queue.enqueue(make_spec(harden=("none",)))
        lease = queue.claim("w0")
        queue.force_expire(lease.token)
        queue.claim("w1")
        assert queue.fail(lease.token, "late") == "superseded"


class TestReapAndStatus:
    def test_reap_expires_stale_leases(self, queue):
        queue.enqueue(make_spec())
        lease = queue.claim("w0", lease_seconds=30)
        queue.force_expire(lease.token)
        report = queue.reap()
        assert report == {"expired": 1, "poisoned": 0}
        assert queue.counts()["pending"] == 2

    def test_status_reports_from_queue_state_alone(self, queue):
        queue.enqueue(make_spec())
        lease = queue.claim("w0")
        queue.complete(lease.token, result_key="k")
        status = queue.status()
        assert status["cells"] == 2
        assert status["states"]["done"] == 1
        assert status["states"]["pending"] == 1
        assert status["workers"] == {"w0": 1}
        assert not status["drained"]


class TestClockSkew:
    def test_skewed_clock_sees_leases_expired(self, tmp_path):
        path = str(tmp_path / "queue.sqlite")
        with WorkQueue(path) as plain:
            plain.enqueue(make_spec(harden=("none",)))
            plain.claim("w-slow", lease_seconds=60)
            policy = ChaosPolicy().skew_clock(120.0)
            with WorkQueue(path, chaos=policy) as skewed:
                assert skewed.now() > time.time() + 60
                lease = skewed.claim("w-fast", lease_seconds=60)
            assert lease is not None
            assert lease.attempts == 2
            assert policy.fired >= 1

    def test_unskewed_clock_is_wall_time(self, queue):
        assert abs(queue.now() - time.time()) < 1.0


def _claim_worker(path, results):
    with WorkQueue(path) as queue:
        lease = queue.claim("racer", lease_seconds=30)
        results.put_nowait(None if lease is None else lease.cell_id)


class TestConcurrency:
    def test_racing_claims_never_double_lease(self, tmp_path):
        """N processes race claim() on a 2-cell queue: exactly two win
        and they win different cells (the single-statement UPDATE is
        the mutual exclusion)."""
        path = str(tmp_path / "queue.sqlite")
        with WorkQueue(path) as queue:
            queue.enqueue(make_spec())
        context = multiprocessing.get_context("fork")
        results = context.Queue()
        workers = [context.Process(target=_claim_worker,
                                   args=(path, results))
                   for _ in range(6)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
        claimed = [results.get(timeout=5) for _ in workers]
        wins = [identity for identity in claimed if identity]
        assert len(wins) == 2
        assert len(set(wins)) == 2
