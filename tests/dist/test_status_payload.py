"""The shared status shape (`repro dist status --json` and the
service's status endpoint) and the queue schema migration."""

import sqlite3

import pytest

from repro.dist.queue import WorkQueue, spec_digest
from repro.store.spec import parse_spec


def make_spec(max_runs=10, name="ptest"):
    return parse_spec({"grid": {"kernels": ["bitcount"],
                                "harden": ["none", "bec"],
                                "budgets": [0.3]},
                       "engine": {"max_runs": max_runs}}, name=name)


@pytest.fixture
def queue(tmp_path):
    with WorkQueue(str(tmp_path / "queue.sqlite")) as opened:
        yield opened


class TestStatusPayload:
    def test_shape_is_queue_state_only(self, queue):
        """The status carries queue state only, with no quarantine
        list: a poisoned row already holds its attempts and last
        error."""
        queue.enqueue(make_spec())
        status = queue.status()
        assert set(status) == {"cells", "states", "stale_leases",
                               "drained", "workers"}
        assert "quarantine" not in status

    def test_spec_scoping(self, queue):
        spec_a, spec_b = make_spec(10), make_spec(20)
        queue.enqueue(spec_a)
        queue.enqueue(spec_b)
        digest_a = spec_digest(spec_a)
        other = queue.claim("w0")
        assert other.spec_digest == digest_a
        queue.complete(other.token, result_key="k")
        scoped = queue.status(digest_a)
        assert scoped["cells"] == 2
        assert scoped["states"]["done"] == 1
        assert queue.status(spec_digest(spec_b))["states"]["done"] == 0
        assert queue.status()["cells"] == 4

    def test_completion_accounting_lands_in_cells(self, queue):
        queue.enqueue(make_spec())
        lease = queue.claim("w0")
        queue.complete(lease.token, result_key="k1", cached=False,
                       sim_runs=7)
        lease = queue.claim("w0")
        queue.complete(lease.token, result_key="k2", cached=True,
                       sim_runs=0)
        by_key = {row["result_key"]: row for row in queue.cells()}
        assert by_key["k1"]["cached"] is False
        assert by_key["k1"]["sim_runs"] == 7
        assert by_key["k1"]["completed_at"] is not None
        assert by_key["k2"]["cached"] is True
        assert by_key["k2"]["sim_runs"] == 0


class TestSchemaMigration:
    def test_old_queue_file_gains_accounting_columns(self, tmp_path):
        """A queue created before the cached/sim_runs columns opens
        cleanly: ALTER TABLE retrofits them with safe defaults."""
        path = str(tmp_path / "old.sqlite")
        with WorkQueue(path) as queue:
            queue.enqueue(make_spec())
        connection = sqlite3.connect(path)
        connection.executescript("""
            ALTER TABLE dist_queue DROP COLUMN cached;
            ALTER TABLE dist_queue DROP COLUMN sim_runs;
        """)
        connection.close()
        with WorkQueue(path) as reopened:
            rows = reopened.cells()
            assert rows and all(row["cached"] is False and
                                row["sim_runs"] == 0
                                for row in rows)
            lease = reopened.claim("w0")
            assert reopened.complete(lease.token, result_key="k",
                                     sim_runs=3) == "done"
            done = [row for row in reopened.cells()
                    if row["state"] == "done"]
            assert done[0]["sim_runs"] == 3

    def test_old_quarantine_table_is_ignored(self, tmp_path):
        """A queue file that still holds the retired dist_quarantine
        event log opens, drains and reports as usual; the table is
        left alone."""
        path = str(tmp_path / "old.sqlite")
        with WorkQueue(path) as queue:
            queue.enqueue(make_spec())
        connection = sqlite3.connect(path)
        connection.executescript("""
            CREATE TABLE dist_quarantine (
                event_id INTEGER PRIMARY KEY AUTOINCREMENT,
                cell_id TEXT NOT NULL, worker TEXT,
                reason TEXT NOT NULL, detected_at TEXT NOT NULL);
            INSERT INTO dist_quarantine (cell_id, worker, reason,
                                         detected_at)
                VALUES ('cell-x', 'w0', 'bad signature', 'then');
        """)
        connection.close()
        with WorkQueue(path) as reopened:
            while (lease := reopened.claim("w0")) is not None:
                reopened.complete(lease.token, result_key="k")
            status = reopened.status()
            assert status["drained"]
            assert status["states"]["done"] == 2
            assert "quarantine" not in status
        connection = sqlite3.connect(path)
        (events,) = connection.execute(
            "SELECT COUNT(*) FROM dist_quarantine").fetchone()
        connection.close()
        assert events == 1
