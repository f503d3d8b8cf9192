"""The services layer in isolation: jobs table, submission,
report accounting — no HTTP, no threads."""

import sqlite3

import pytest

from repro.dist.queue import WorkQueue
from repro.service.jobs import (JobNotFound, JobService, JobsTable,
                                campaign_spec)
from repro.store import ResultStore
from repro.store.spec import SweepSpecError

SPEC = {"grid": {"kernels": ["bitcount"], "modes": ["bec"],
                 "harden": ["none", "bec"], "budgets": [0.3],
                 "cores": ["threaded"]},
        "engine": {"max_runs": 10}}


@pytest.fixture
def harness(tmp_path):
    queue_path = str(tmp_path / "queue.sqlite")
    store_path = str(tmp_path / "store.sqlite")
    queue = WorkQueue(queue_path)
    store = ResultStore(store_path)
    jobs = JobsTable(queue_path)
    woken = []
    service = JobService(queue, store, jobs,
                         wake=lambda: woken.append(True))
    yield service, queue, woken
    jobs.close()
    queue.close()
    store.close()


class TestJobsTable:
    def test_upsert_counts_submissions(self, tmp_path):
        jobs = JobsTable(str(tmp_path / "q.sqlite"))
        first = jobs.record_submission("j1", "nightly", "sweep",
                                       actor="key:abc")
        assert first["submissions"] == 1
        second = jobs.record_submission("j1", "nightly", "sweep")
        assert second["submissions"] == 2
        assert second["created_at"] == first["created_at"]
        assert second["last_submitted_at"] >= \
            first["last_submitted_at"]
        jobs.close()

    def test_unknown_job_raises(self, tmp_path):
        jobs = JobsTable(str(tmp_path / "q.sqlite"))
        with pytest.raises(JobNotFound):
            jobs.get("missing")
        jobs.close()

    def test_opens_a_table_with_retired_columns(self, tmp_path):
        """A jobs table created with the retired webhook columns still
        opens; its rows read back without them."""
        path = str(tmp_path / "old.sqlite")
        seed = sqlite3.connect(path)
        seed.executescript("""
            CREATE TABLE service_jobs (
                job_id TEXT PRIMARY KEY, name TEXT NOT NULL,
                kind TEXT NOT NULL, actor TEXT,
                created_at REAL NOT NULL, submissions INTEGER NOT NULL,
                last_submitted_at REAL NOT NULL,
                webhook_url TEXT, webhook_state TEXT);
            INSERT INTO service_jobs VALUES
                ('old', 'nightly', 'sweep', 'key:abc', 1.0, 1, 1.0,
                 'http://127.0.0.1:9/hook', 'pending');
        """)
        seed.close()
        jobs = JobsTable(path)
        try:
            again = jobs.record_submission("old", "nightly", "sweep",
                                           actor="key:def")
            fresh = jobs.record_submission("new", "grid", "sweep")
            assert again["submissions"] == 2
            assert again["actor"] == "key:def"
            assert fresh["submissions"] == 1
            assert jobs.get("old") == again
            listed = jobs.jobs()
            assert [job["job_id"] for job in listed] == ["old", "new"]
            for job in listed:
                assert set(job) == {"job_id", "name", "kind", "actor",
                                    "created_at", "submissions",
                                    "last_submitted_at"}
        finally:
            jobs.close()


class TestCampaignSpec:
    def test_wraps_one_cell(self):
        data = campaign_spec({"kernel": "CRC32", "mode": "bec",
                              "harden": "bec", "budget": 0.5,
                              "core": "batched",
                              "engine": {"max_runs": 9}})
        assert data["grid"] == {"kernels": ["CRC32"],
                                "modes": ["bec"], "harden": ["bec"],
                                "budgets": [0.5],
                                "cores": ["batched"]}
        assert data["engine"] == {"max_runs": 9}

    def test_defaults(self):
        data = campaign_spec({})
        assert data["grid"]["kernels"] == ["bitcount"]
        assert "budgets" not in data["grid"]


class TestSubmission:
    def test_submit_enqueues_and_wakes(self, harness):
        service, queue, woken = harness
        result = service.submit(SPEC, name="unit")
        assert result["enqueued"] == 2
        assert result["idempotent"] is False
        assert queue.counts()["pending"] == 2
        assert woken

    def test_resubmit_is_idempotent(self, harness):
        service, queue, woken = harness
        first = service.submit(SPEC)
        again = service.submit(SPEC)
        assert again["job_id"] == first["job_id"]
        assert again["idempotent"] is True
        assert again["already_queued"] == 2
        assert queue.counts()["pending"] == 2

    def test_malformed_spec_raises_before_any_state(self, harness):
        service, queue, woken = harness
        with pytest.raises(SweepSpecError):
            service.submit({"grid": {"bogus": True}})
        assert queue.counts() == {"pending": 0, "leased": 0,
                                  "done": 0, "poisoned": 0}
        assert not woken


class TestReportAccounting:
    def drain(self, queue, sim_runs=10, cached=False):
        while True:
            lease = queue.claim("w0")
            if lease is None:
                break
            queue.complete(lease.token, result_key=None,
                           cached=cached, sim_runs=sim_runs)

    def test_first_submission_counts_runs(self, harness):
        service, queue, _ = harness
        job_id = service.submit(SPEC)["job_id"]
        self.drain(queue)
        totals = service.report(job_id)["totals"]
        assert totals["cells_run"] == 2
        assert totals["simulator_runs"] == 20

    def test_resubmission_counts_zero(self, harness):
        service, queue, _ = harness
        job_id = service.submit(SPEC)["job_id"]
        self.drain(queue)
        service.submit(SPEC)
        totals = service.report(job_id)["totals"]
        assert totals["simulator_runs"] == 0
        assert totals["cells_cached"] == 2
        assert totals["cells_run"] == 0

    def test_store_served_cells_count_zero_runs(self, harness):
        service, queue, _ = harness
        job_id = service.submit(SPEC)["job_id"]
        self.drain(queue, cached=True, sim_runs=0)
        totals = service.report(job_id)["totals"]
        assert totals["simulator_runs"] == 0
        assert totals["cells_cached"] == 2

    def test_status_includes_job_metadata(self, harness):
        service, queue, _ = harness
        job_id = service.submit(SPEC, name="meta")["job_id"]
        status = service.status(job_id)
        assert status["cells"] == 2
        assert status["job"]["name"] == "meta"
        with pytest.raises(JobNotFound):
            service.status("nope")
