"""Streaming run sinks: the engine→consumer dataflow protocol.

:class:`repro.fi.engine.CampaignEngine` used to materialize every
per-run record before anything downstream saw one — O(plan) resident
memory, and the store archived the finished list as one monolithic
payload.  This module inverts that dataflow: the engine *pushes* run
records to a :class:`RunSink` in bounded, plan-ordered chunks as they
retire, and everything downstream — aggregates, the SQLite archive,
progress reporting, callers that keep records — consumes the stream
incrementally.  A sink is the only way per-run records reach a caller:
the engine's :class:`repro.fi.campaign.CampaignResult` carries
aggregates alone, and a store hit replays its archive into the
caller's sink (:meth:`repro.store.runner.CachingRunner.run`).

The protocol is three calls, in order::

    sink.begin(meta)        # once, before any record retires
    sink.consume(chunk)     # zero or more times, chunks in plan order
    sink.finish(summary)    # once, after the last record

*meta* describes the campaign before execution: ``total_runs``,
``vectorized``, ``chunk_size``, plus the resident ``plan`` and
``golden`` trace for sinks that want them.  Each *chunk* is a list of
``(planned, effect, signature, byte_size)`` tuples — consecutive plan
entries, exactly ``chunk_size`` of them but in the last chunk — and
chunks arrive strictly in plan order regardless of the execution
schedule (serial, forked workers, lockstep lanes): every schedule
feeds the engine's one :class:`repro.fi.engine.BlockEmitter`, which
restores plan order *before* the sink boundary, so every sink
observes the same byte-identical record stream, cut at the same
chunk boundaries, as the serial engine produces.
*summary* carries post-execution facts: ``wall_time`` and
``pruned_runs`` (known only once every record has retired, since
liveness pruning happens as each part of the plan runs).

Memory model: a sink that retains nothing per-run (like
:class:`AggregateSink`) gives the whole pipeline O(chunk_size) peak
resident records regardless of plan length; :class:`CollectSink`
keeps all of them, for callers that want them.

Built-in sinks compose with :class:`TeeSink`; anything matching the
three-call protocol (duck-typed, no inheritance required) can join the
fan-out — :class:`repro.store.db.ChunkCapture` encodes the stream for
the result store without this module importing the store.
"""

import time

from repro import obs
from repro.fi.campaign import Aggregates


class RunSink:
    """Base consumer of a streamed campaign; every hook is optional."""

    def begin(self, meta):
        """Called once before any record retires."""

    def consume(self, chunk):
        """Called with each plan-ordered records chunk as it retires."""

    def finish(self, summary):
        """Called once after the last record has been consumed."""


class TeeSink(RunSink):
    """Fans one record stream out to several sinks, in order.

    As the single point every campaign's chunk stream passes through,
    the tee also attributes consume time to each downstream sink
    (``sink.consume_seconds{sink=<ClassName>}``), so a slow archive
    writer or progress callback shows up in the metrics snapshot.
    """

    def __init__(self, sinks):
        self.sinks = list(sinks)
        registry = obs.metrics()
        self._timed = [(sink, registry.histogram(
            "sink.consume_seconds",
            help="Per-sink chunk consume time",
            sink=type(sink).__name__)) for sink in self.sinks]

    def begin(self, meta):
        for sink in self.sinks:
            sink.begin(meta)

    def consume(self, chunk):
        for sink, histogram in self._timed:
            start = time.perf_counter()
            sink.consume(chunk)
            histogram.observe(time.perf_counter() - start)

    def finish(self, summary):
        for sink in self.sinks:
            sink.finish(summary)


class AggregateSink(RunSink):
    """Incremental aggregates with zero per-run retention.

    Feeds every record into a :class:`repro.fi.campaign.Aggregates`
    accumulator and drops it — the aggregate numbers are bit-identical
    to a scan of the materialized record list because the stream
    arrives in plan order.
    """

    def __init__(self):
        self.aggregates = Aggregates()

    def consume(self, chunk):
        add = self.aggregates.add
        for _, effect, signature, byte_size in chunk:
            add(effect, signature, byte_size)


class ProgressSink(RunSink):
    """Adapts the chunk stream to a ``callable(done, total)``.

    ``done`` counts every retired record — simulated, vectorized and
    liveness-pruned alike, since pruned entries sit in the stream at
    their plan positions — so the callback advances
    monotonically from 0 to ``total_runs`` and always ends on
    ``(total, total)`` (also for an empty plan).
    """

    def __init__(self, callback):
        self.callback = callback
        self._done = 0
        self._total = 0

    def begin(self, meta):
        self._done = 0
        self._total = meta["total_runs"]

    def consume(self, chunk):
        self._done += len(chunk)
        self.callback(self._done, self._total)

    def finish(self, summary):
        # The last chunk already reported (total, total), except on an
        # empty plan, which has no chunks.
        if self._done != self._total or not self._total:
            self.callback(self._total, self._total)


class CollectSink(RunSink):
    """Keeps every record it consumes, in plan order: the way a caller
    that needs per-run effects or signatures (AVF sampling, hardening
    conversions, parity checks) reads them from a fresh campaign or a
    store replay.  Retains O(plan) records, so attach it only where
    they are wanted."""

    def __init__(self):
        self.records = []

    def begin(self, meta):
        self.records = []

    def consume(self, chunk):
        self.records.extend(chunk)
