"""Tests for the metrics registry: labeled families, the fork-safe
delta protocol, rollups and both export formats."""

import json
import threading

import pytest

from repro.obs.metrics import (DEFAULT_BUCKETS, MetricsRegistry,
                               escape_label_value, parse_exposition,
                               prometheus_name)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestFamilies:
    def test_counter_identity_and_increments(self, registry):
        counter = registry.counter("store.hits")
        counter.inc()
        counter.inc(4)
        assert registry.counter("store.hits") is counter
        assert counter.value == 5

    def test_counters_reject_negative(self, registry):
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_labeled_children_are_distinct(self, registry):
        registry.counter("batch.escapes", pp="3", opcode="BEQ").inc(2)
        registry.counter("batch.escapes", pp="7", opcode="BNE").inc()
        totals = registry.totals()
        assert totals["batch.escapes"] == 3
        samples = registry.snapshot()["batch.escapes"]["samples"]
        assert {frozenset(s["labels"].items()): s["value"]
                for s in samples} == {
                    frozenset({("pp", "3"), ("opcode", "BEQ")}): 2,
                    frozenset({("pp", "7"), ("opcode", "BNE")}): 1}

    def test_label_order_is_irrelevant(self, registry):
        a = registry.counter("c", x="1", y="2")
        b = registry.counter("c", y="2", x="1")
        assert a is b

    def test_kind_conflict_rejected(self, registry):
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_histogram_buckets_and_rollup(self, registry):
        histogram = registry.histogram("t", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(6.05)
        assert histogram.bucket_counts() == [1, 2, 1]
        assert histogram.cumulative() == [(0.1, 1), (1.0, 3),
                                          (float("inf"), 4)]
        totals = registry.totals()
        assert totals["t.count"] == 4
        assert totals["t.sum"] == pytest.approx(6.05)

    def test_reset_drops_families(self, registry):
        registry.counter("a").inc()
        registry.reset()
        assert registry.snapshot() == {}


class TestThreadSafety:
    def test_concurrent_increments_lose_nothing(self, registry):
        counter = registry.counter("n")
        histogram = registry.histogram("h", buckets=(1.0,))

        def work():
            for _ in range(10_000):
                counter.inc()
                histogram.observe(0.5)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 80_000
        assert histogram.count == 80_000

    def test_concurrent_family_creation(self, registry):
        errors = []

        def work(base):
            try:
                for index in range(500):
                    registry.counter("fam", lane=str(index % 17)).inc()
            except Exception as exc:          # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert registry.totals()["fam"] == 8 * 500


class TestDeltaProtocol:
    def test_delta_since_is_exact(self, registry):
        registry.counter("a").inc(3)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        mark = registry.mark()
        registry.counter("a").inc(2)
        registry.counter("b", k="v").inc()
        registry.histogram("h", buckets=(1.0,)).observe(2.0)
        delta = registry.delta_since(mark)
        assert delta["a"]["children"][()] == 2
        assert delta["b"]["children"][(("k", "v"),)] == 1
        assert delta["h"]["children"][()]["count"] == 1
        assert delta["h"]["children"][()]["counts"] == [0, 1]

    def test_empty_delta_when_nothing_happened(self, registry):
        registry.counter("a").inc()
        assert registry.delta_since(registry.mark()) == {}

    def test_merge_adds_counters_and_histograms(self, registry):
        worker = MetricsRegistry()        # simulates the forked copy
        worker.counter("engine.runs_executed").inc(7)
        worker.histogram("h", buckets=(1.0,)).observe(0.5)
        mark = worker.mark()
        worker.counter("engine.runs_executed").inc(5)
        worker.histogram("h", buckets=(1.0,)).observe(3.0)
        registry.counter("engine.runs_executed").inc(100)
        registry.merge(worker.delta_since(mark))
        assert registry.totals()["engine.runs_executed"] == 105
        assert registry.totals()["h.count"] == 1

    def test_dump_round_trips_through_totals(self, registry):
        registry.counter("a").inc(2)
        registry.counter("a", k="v").inc(3)
        assert registry.totals(registry.dump()) == {"a": 5}


class TestExports:
    def test_to_json_shape(self, registry):
        registry.counter("store.hits").inc(2)
        data = json.loads(registry.to_json())
        assert data["totals"] == {"store.hits": 2}
        assert data["families"]["store.hits"]["kind"] == "counter"

    def test_prometheus_name_prefix_and_sanitizing(self):
        assert prometheus_name("store.hits") == "repro_store_hits"
        assert prometheus_name("a-b c") == "repro_a_b_c"

    def test_exposition_round_trip(self, registry):
        registry.counter("store.hits").inc(3)
        registry.counter("batch.escapes", pp="12", opcode="BEQ").inc(2)
        registry.histogram("g", buckets=(1.0,)).observe(-1)
        registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
        text = registry.to_prometheus()
        types, samples = parse_exposition(text)
        assert types["repro_store_hits"] == "counter"
        assert types["repro_lat"] == "histogram"
        assert samples[("repro_store_hits", frozenset())] == 3
        assert samples[("repro_batch_escapes",
                        frozenset({("pp", "12"),
                                   ("opcode", "BEQ")}))] == 2
        assert samples[("repro_g_sum", frozenset())] == -1
        assert samples[("repro_lat_count", frozenset())] == 1
        assert samples[("repro_lat_bucket",
                        frozenset({("le", "+Inf")}))] == 1

    def test_histogram_buckets_are_cumulative_in_exposition(self,
                                                            registry):
        histogram = registry.histogram("h", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 9.0):
            histogram.observe(value)
        _, samples = parse_exposition(registry.to_prometheus())
        assert samples[("repro_h_bucket", frozenset({("le", "0.1")}))] \
            == 1
        # Integral bounds render without the trailing ".0".
        assert samples[("repro_h_bucket", frozenset({("le", "1")}))] \
            == 2
        assert samples[("repro_h_bucket", frozenset({("le", "+Inf")}))] \
            == 3

    def test_label_escaping_round_trips(self, registry):
        hostile = 'quote " backslash \\ newline \n end'
        registry.counter("c", path=hostile).inc()
        escaped = escape_label_value(hostile)
        assert '\\"' in escaped and "\\n" in escaped
        _, samples = parse_exposition(registry.to_prometheus())
        assert samples[("repro_c", frozenset({("path", hostile)}))] == 1

    def test_help_line_emitted(self, registry):
        registry.counter("c", help="what it counts").inc()
        assert "# HELP repro_c what it counts" \
            in registry.to_prometheus()

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
