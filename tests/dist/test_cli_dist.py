"""Tests for the ``repro dist`` CLI family."""

import json

import pytest

from repro.cli import main

SPEC_JSON = """
{
  "grid": {
    "kernels": ["bitcount"],
    "modes": ["bec", "ior"]
  },
  "engine": {"max_runs": 20}
}
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(SPEC_JSON)
    return str(path)


@pytest.fixture
def paths(tmp_path):
    return {"queue": str(tmp_path / "queue.sqlite"),
            "store": str(tmp_path / "store.sqlite")}


def dist(command, paths, *extra):
    argv = ["dist", command, "--queue", paths["queue"]]
    if command == "work":
        argv += ["--store", paths["store"], "--max-idle", "5"]
    return main(argv + list(extra))


class TestDistCli:
    def test_enqueue_work_status_reap_roundtrip(self, spec_file,
                                                paths, capsys):
        assert main(["dist", "enqueue", spec_file,
                     "--queue", paths["queue"]]) == 0
        assert "2 cells enqueued" in capsys.readouterr().out

        # Undrained queue: status reports progress and exits nonzero.
        assert dist("status", paths) == 1
        assert "2 pending" in capsys.readouterr().out

        assert dist("work", paths, "--worker-id", "cli-w0") == 0
        out = capsys.readouterr().out
        assert "cli-w0: 2 cells done" in out

        assert dist("status", paths) == 0
        assert "2 done" in capsys.readouterr().out
        assert dist("reap", paths) == 0

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_enqueue_rejects_max_attempts_below_one(self, spec_file,
                                                    paths, value,
                                                    capsys):
        with pytest.raises(SystemExit) as exited:
            main(["dist", "enqueue", spec_file, "--queue",
                  paths["queue"], "--max-attempts", value])
        assert exited.value.code == 2
        assert "--max-attempts" in capsys.readouterr().err

    def test_enqueue_is_idempotent(self, spec_file, paths, capsys):
        main(["dist", "enqueue", spec_file, "--queue", paths["queue"]])
        capsys.readouterr()
        assert main(["dist", "enqueue", spec_file,
                     "--queue", paths["queue"]]) == 0
        assert "0 cells enqueued, 2 already queued" \
            in capsys.readouterr().out

    def test_status_json_report(self, spec_file, paths, tmp_path,
                                capsys):
        main(["dist", "enqueue", spec_file, "--queue", paths["queue"]])
        dist("work", paths)
        report_path = tmp_path / "status.json"
        assert dist("status", paths, "--json", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        assert report["drained"] is True
        assert report["states"]["done"] == 2
        assert "quarantine" not in report

    def test_work_metrics_snapshot(self, spec_file, paths, tmp_path,
                                   capsys):
        main(["dist", "enqueue", spec_file, "--queue", paths["queue"]])
        metrics_path = tmp_path / "metrics.json"
        assert dist("work", paths, "--metrics", str(metrics_path)) == 0
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["kind"] == "metrics"
        # The registry is process-global, so other tests may have
        # bumped these already: assert presence and a floor.
        totals = snapshot["totals"]
        assert totals["dist.lease_grants"] >= 2
        assert totals["dist.completions"] >= 2
        assert totals["dist.cells"] >= 2

    def test_malformed_chaos_spec_exits(self, paths):
        with pytest.raises(SystemExit, match="unknown fault"):
            dist("work", paths, "--chaos", "torch_the_queue=1")

    def test_missing_spec_exits(self, paths):
        with pytest.raises(SystemExit, match="cannot load sweep spec"):
            main(["dist", "enqueue", "no-such-spec.json",
                  "--queue", paths["queue"]])

    @pytest.mark.parametrize("command", ["status", "reap"])
    def test_missing_queue_exits(self, command, tmp_path):
        """A read-only command on a mistyped queue path exits nonzero
        and creates neither the file nor its directory."""
        missing = tmp_path / "nope" / "typo.sqlite"
        with pytest.raises(SystemExit, match="no such file") as error:
            main(["dist", command, "--queue", str(missing)])
        assert error.value.code != 0
        assert not missing.parent.exists()

    def test_status_lists_poisoned_cells(self, tmp_path, paths,
                                         capsys):
        spec = tmp_path / "broken.json"
        spec.write_text('{"grid": {"kernels": ["no-such-kernel"]}}')
        main(["dist", "enqueue", str(spec), "--queue", paths["queue"],
              "--max-attempts", "1"])
        assert dist("work", paths) == 0
        capsys.readouterr()
        assert dist("status", paths) == 1
        captured = capsys.readouterr()
        assert "1 poisoned" in captured.out
        assert "after 1 attempts" in captured.err
        assert "no-such-kernel" in captured.err

    def test_work_rejects_bad_worker_count(self, paths):
        with pytest.raises(SystemExit, match="--workers"):
            dist("work", paths, "--workers", "0")
