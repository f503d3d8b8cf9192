"""Tests for the span tracer, Chrome export, the structured logger
and the ``obs summarize`` self-time computation."""

import json
import os

import pytest

from repro.obs.log import StructLogger
from repro.obs.spans import NULL_SPAN, Tracer, to_chrome
from repro.obs.summarize import load_trace, render_table, self_times


@pytest.fixture
def tracer():
    tracer = Tracer()
    tracer.start()
    yield tracer
    tracer.stop()


class TestTracer:
    def test_disabled_returns_shared_null_span(self):
        tracer = Tracer()
        span = tracer.span("anything", key="value")
        assert span is NULL_SPAN
        with span as inner:
            inner.set("still", "noop")
        assert tracer.records() == []

    def test_nesting_is_lexical_and_deterministic(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        records = tracer.records()
        # Spans record on exit: children first, the outer span last.
        assert [r["name"] for r in records] \
            == ["inner", "inner", "outer"]
        assert [r["parent"] for r in records] == ["outer", "outer", None]
        outer = records[-1]
        for inner in records[:2]:
            assert inner["ts"] >= outer["ts"]
            assert inner["ts"] + inner["dur"] \
                <= outer["ts"] + outer["dur"] + 1e-6

    def test_ring_capacity_bounds_memory(self):
        tracer = Tracer()
        tracer.start(capacity=4)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        names = [r["name"] for r in tracer.records()]
        assert names == ["s6", "s7", "s8", "s9"]
        tracer.stop()

    def test_forked_child_degrades_to_noop(self, tracer):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:                     # child
            os.close(read_fd)
            verdict = b"null" if tracer.span("child") is NULL_SPAN \
                else b"span"
            os.write(write_fd, verdict)
            os._exit(0)
        os.close(write_fd)
        try:
            assert os.read(read_fd, 4) == b"null"
        finally:
            os.close(read_fd)
            os.waitpid(pid, 0)
        assert tracer.span("parent") is not NULL_SPAN

    def test_jsonl_stream(self, tracer, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer.start(stream=str(path))
        with tracer.span("a", k=1):
            pass
        tracer.stop()
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert [line["name"] for line in lines] == ["a"]
        assert lines[0]["args"] == {"k": 1}


class TestChromeExport:
    def test_event_schema(self, tracer, tmp_path):
        with tracer.span("outer", runs=3):
            with tracer.span("inner"):
                pass
        path = tmp_path / "trace.json"
        n_events = tracer.export_chrome(str(path))
        assert n_events == 2
        data = json.loads(path.read_text())
        assert data["displayTimeUnit"] == "ms"
        events = data["traceEvents"]
        assert [e["name"] for e in events] == ["outer", "inner"]
        for event in events:
            assert event["ph"] == "X"
            assert event["cat"] == "repro"
            assert isinstance(event["ts"], float)
            assert isinstance(event["dur"], float)
            assert event["pid"] == os.getpid()
            assert isinstance(event["tid"], int)
        assert events[1]["args"]["parent"] == "outer"
        assert events[0]["args"] == {"runs": 3}

    def test_events_sorted_by_start_time(self, tracer):
        for name in ("b", "a"):
            with tracer.span(name):
                pass
        events = to_chrome(tracer.records())["traceEvents"]
        assert events[0]["name"] == "b"     # earlier start first
        assert events[0]["ts"] <= events[1]["ts"]


class TestSummarize:
    def _event(self, name, ts, dur, tid=0, pid=1):
        return {"name": name, "ph": "X", "ts": ts, "dur": dur,
                "pid": pid, "tid": tid}

    def test_self_time_excludes_direct_children(self):
        events = [self._event("parent", 0, 100),
                  self._event("child", 10, 30),
                  self._event("child", 50, 20),
                  self._event("grandchild", 15, 5)]
        aggregate = self_times(events)
        assert aggregate["parent"]["self"] == pytest.approx(50)
        assert aggregate["child"]["self"] == pytest.approx(45)
        assert aggregate["grandchild"]["self"] == pytest.approx(5)
        assert aggregate["child"]["count"] == 2

    def test_lanes_do_not_nest_across_tids(self):
        events = [self._event("a", 0, 100, tid=0),
                  self._event("b", 10, 50, tid=1)]
        aggregate = self_times(events)
        assert aggregate["a"]["self"] == pytest.approx(100)
        assert aggregate["b"]["self"] == pytest.approx(50)

    def test_render_table_columns_and_footer(self):
        events = [self._event("engine.campaign", 0, 2000),
                  self._event("engine.chunk", 100, 500)]
        table = render_table(events)
        lines = table.splitlines()
        assert lines[0].split() == ["span", "count", "total", "ms",
                                    "self", "ms", "self", "%"]
        assert any(line.startswith("engine.campaign") for line in lines)
        assert lines[-1].startswith("(accounted wall)")

    def test_render_table_empty(self):
        assert render_table([]) == "(no span events)"

    def test_load_trace_accepts_all_three_shapes(self, tmp_path,
                                                 tracer):
        with tracer.span("a"):
            pass
        chrome = tmp_path / "chrome.json"
        tracer.export_chrome(str(chrome))
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(
            json.loads(chrome.read_text())["traceEvents"]))
        jsonl = tmp_path / "spans.jsonl"
        jsonl.write_text("\n".join(
            json.dumps(record) for record in tracer.records()) + "\n")
        for path in (chrome, bare, jsonl):
            events = load_trace(str(path))
            assert [e["name"] for e in events] == ["a"]


class TestStructLogger:
    def test_ring_and_filters(self):
        logger = StructLogger(capacity=3)
        logger.debug("noise")
        logger.warning("engine.worker_died", chunk=2, exitcode=-9)
        logger.error("sweep.cell_failed", kernel="crc")
        assert [r["event"] for r in logger.events(level="warning")] \
            == ["engine.worker_died", "sweep.cell_failed"]
        (death,) = logger.events(name="engine.worker_died")
        assert death["fields"] == {"chunk": 2, "exitcode": -9}
        logger.info("a")
        logger.info("b")
        assert len(logger.records) == 3      # capacity bound

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            StructLogger().log("fatal", "x")

    def test_stream_rendering_respects_level(self, tmp_path):
        import io

        stream = io.StringIO()
        logger = StructLogger(stream=stream, level="warning")
        logger.info("quiet")
        logger.warning("store.quarantine", key="k", chunk=0)
        text = stream.getvalue()
        assert "quiet" not in text
        assert "WARNING store.quarantine chunk=0 key='k'" in text
