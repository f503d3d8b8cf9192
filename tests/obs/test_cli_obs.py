"""CLI surface tests for ``--trace`` / ``--metrics`` and
``repro obs summarize``."""

import json

import pytest

from repro.cli import main

MINIC = """
int main() {
    int total = 0;
    for (int i = 1; i <= 5; i++) total += i * 3;
    out(total);
    return total;
}
"""


@pytest.fixture
def minic_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(MINIC)
    return str(path)


def test_campaign_trace_and_metrics_artifacts(minic_file, tmp_path,
                                              capsys):
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    assert main(["campaign", minic_file, "--execute", "20",
                 "--trace", str(trace_path),
                 "--metrics", str(metrics_path)]) == 0
    trace = json.loads(trace_path.read_text())
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    assert {e["name"] for e in events} >= {"engine.campaign",
                                           "engine.chunk"}
    assert all(e["ph"] == "X" for e in events)
    chunk = next(e for e in events if e["name"] == "engine.chunk")
    assert chunk["args"]["parent"] == "engine.campaign"
    metrics = json.loads(metrics_path.read_text())
    assert metrics["kind"] == "metrics"
    assert metrics["totals"]["engine.runs_executed"] >= 20
    assert metrics["families"]["engine.runs_executed"]["kind"] \
        == "counter"


def test_forked_campaign_traces_every_worker(minic_file, tmp_path):
    """Each forked worker ships its own ``engine.worker`` span and its
    ``engine.chunk`` spans home, under its own pid."""
    trace_path = tmp_path / "trace.json"
    assert main(["campaign", minic_file, "--execute", "200",
                 "--workers", "2", "--trace", str(trace_path)]) == 0
    events = json.loads(trace_path.read_text())["traceEvents"]
    parent = {e["pid"] for e in events if e["name"] == "engine.campaign"}
    workers = [e["pid"] for e in events if e["name"] == "engine.worker"]
    chunks = {e["pid"] for e in events if e["name"] == "engine.chunk"}
    assert len(workers) == len(set(workers)) == 2
    assert chunks == set(workers)
    assert not parent & chunks and len(parent) == 1


def test_metrics_dash_prints_to_stdout(minic_file, capsys):
    assert main(["campaign", minic_file, "--execute", "5",
                 "--metrics", "-"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("\n{\n") + 1:])
    assert payload["kind"] == "metrics"


def test_obs_summarize_renders_self_time_table(minic_file, tmp_path,
                                               capsys):
    trace_path = tmp_path / "trace.json"
    main(["campaign", minic_file, "--execute", "10",
          "--trace", str(trace_path)])
    capsys.readouterr()
    assert main(["obs", "summarize", str(trace_path)]) == 0
    table = capsys.readouterr().out
    assert "engine.campaign" in table
    assert "(accounted wall)" in table
    assert "self %" in table


def test_obs_summarize_missing_file_fails_cleanly(tmp_path):
    with pytest.raises(SystemExit, match="cannot load trace"):
        main(["obs", "summarize", str(tmp_path / "absent.json")])


def test_sweep_metrics_flag(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "grid": {"kernels": ["bitcount"], "modes": ["bec"],
                 "harden": ["none"], "cores": ["threaded"]},
        "engine": {"max_runs": 10},
    }))
    store = str(tmp_path / "store.sqlite")
    assert main(["sweep", str(spec_path), "--store", store]) == 0
    metrics_path = tmp_path / "warm.json"
    assert main(["sweep", str(spec_path), "--store", store,
                 "--metrics", str(metrics_path)]) == 0
    totals = json.loads(metrics_path.read_text())["totals"]
    assert totals["store.hits"] >= 1
