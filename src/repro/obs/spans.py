"""Nested timed spans with Chrome trace-event export.

The :class:`Tracer` is **off by default** and costs one attribute
check plus a shared no-op singleton per ``span()`` call while
disabled — the instrumented hot paths (per-chunk, per-cell, per-store
op) pay nothing measurable until someone passes ``--trace``.

Enabled, every ``with tracer.span("engine.chunk", index=3):`` block
records one completed-span dict — microsecond start/duration on the
``perf_counter_ns`` clock, process id, a small stable thread lane id,
the lexical parent span's name, and free-form args — into a bounded
in-memory ring, optionally streaming each record as a JSONL line.

Nesting is tracked per thread with an explicit stack, so parentage is
deterministic (lexical, not inferred from timestamps).

Fork safety: a forked child inherits an enabled tracer, but
``span()`` checks the recording pid and degrades to the no-op
singleton in a child that has not called :meth:`Tracer.follow_fork`,
so no process writes to a ring it cannot ship back.  Every worker the
package forks goes through :class:`repro.fork.ForkPool`, whose child
wrapper calls :meth:`Tracer.follow_fork` and sends what
:meth:`Tracer.take` returns with each message; the parent adds the
spans to its ring with :meth:`Tracer.extend`.  They keep the child's
pid, so each worker renders as its own process row.

:func:`to_chrome` converts the ring to Chrome trace-event JSON
(``"X"`` complete events, microsecond ``ts``/``dur``) that loads
directly in Perfetto or ``chrome://tracing``.
"""

import collections
import json
import os
import threading
import time

#: Completed spans retained in the ring before the oldest drop off.
DEFAULT_RING_CAPACITY = 65536


class _NullSpan:
    """Shared do-nothing span: the entire disabled-mode surface."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, key, value):
        return self


NULL_SPAN = _NullSpan()


class Span:
    """One live span; records itself to the tracer on ``__exit__``."""

    __slots__ = ("_tracer", "name", "args", "_start_ns", "_parent")

    def __init__(self, tracer, name, args):
        self._tracer = tracer
        self.name = name
        self.args = args
        self._start_ns = None
        self._parent = None

    def set(self, key, value):
        """Attach/overwrite one argument (visible in the export)."""
        self.args[key] = value
        return self

    def __enter__(self):
        stack = self._tracer._stack()
        self._parent = stack[-1].name if stack else None
        stack.append(self)
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        end_ns = time.perf_counter_ns()
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        self._tracer._record_span(self, end_ns)
        return False


class Tracer:
    """Span recorder: ring buffer, optional JSONL stream, pid guard."""

    def __init__(self, capacity=DEFAULT_RING_CAPACITY):
        self._records = collections.deque(maxlen=capacity)
        self.enabled = False
        self._pid = None
        self._epoch_ns = 0
        self._local = threading.local()
        self._tids = {}
        self._tid_lock = threading.Lock()
        self._stream = None
        self._owns_stream = False

    # -- lifecycle ---------------------------------------------------------

    def start(self, capacity=None, stream=None):
        """Begin recording.  *stream* (a path or writable file object)
        additionally emits each completed span as one JSON line."""
        if capacity is not None:
            self._records = collections.deque(maxlen=capacity)
        else:
            self._records.clear()
        if isinstance(stream, (str, os.PathLike)):
            self._stream = open(stream, "w", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = stream
            self._owns_stream = False
        self._tids = {}
        self._epoch_ns = time.perf_counter_ns()
        self._pid = os.getpid()
        self.enabled = True
        return self

    def stop(self):
        """Stop recording; the ring stays readable until ``start``."""
        self.enabled = False
        if self._stream is not None and self._owns_stream:
            self._stream.close()
        self._stream = None
        self._owns_stream = False

    def clear(self):
        self._records.clear()

    def follow_fork(self):
        """Call in a forked child: the ring restarts empty, and if the
        parent was recording, the child records under its own pid with
        the parent's epoch, so its spans line up with the parent's once
        they are shipped back.  The child does not write the parent's
        stream."""
        self._records = collections.deque(maxlen=self._records.maxlen)
        self._pid = os.getpid()
        self._stream = None
        self._owns_stream = False

    def take(self):
        """The completed spans, oldest first, removed from the ring."""
        records = list(self._records)
        self._records.clear()
        return records

    def extend(self, records):
        """Add spans another process recorded (see
        :meth:`follow_fork`), streaming them like this process's own."""
        for record in records:
            self._append(record)

    # -- span creation -----------------------------------------------------

    def span(self, name, **args):
        """A context-manager span, or the shared no-op singleton when
        recording is off (or this is a forked child that did not
        :meth:`follow_fork`)."""
        if not self.enabled or os.getpid() != self._pid:
            return NULL_SPAN
        return Span(self, name, args)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread_tid(self):
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            with self._tid_lock:
                tid = self._tids.setdefault(ident, len(self._tids))
        return tid

    def _record_span(self, span, end_ns):
        if not self.enabled:
            return                      # stopped while the span was open
        record = {
            "name": span.name,
            "ts": (span._start_ns - self._epoch_ns) / 1000.0,
            "dur": (end_ns - span._start_ns) / 1000.0,
            "pid": self._pid,
            "tid": self._thread_tid(),
            "parent": span._parent,
            "args": span.args,
        }
        self._append(record)

    def _append(self, record):
        self._records.append(record)
        if self._stream is not None:
            self._stream.write(json.dumps(record, sort_keys=True,
                                          default=str) + "\n")

    # -- access / export ---------------------------------------------------

    def records(self):
        """Completed spans, oldest first."""
        return list(self._records)

    def export_chrome(self, path):
        """Write the ring as a Chrome trace-event JSON file."""
        payload = to_chrome(self.records())
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, default=str)
            handle.write("\n")
        return len(payload["traceEvents"])


def to_chrome(records):
    """Chrome trace-event JSON object for a list of span records.

    Every span becomes one ``"X"`` (complete) event with microsecond
    ``ts``/``dur``; the lexical parent rides in ``args.parent``.  The
    result loads in Perfetto / ``chrome://tracing`` as-is.
    """
    events = []
    for record in sorted(records, key=lambda r: (r["ts"], -r["dur"])):
        args = dict(record["args"])
        if record["parent"] is not None:
            args["parent"] = record["parent"]
        events.append({
            "name": record["name"],
            "cat": "repro",
            "ph": "X",
            "ts": record["ts"],
            "dur": record["dur"],
            "pid": record["pid"],
            "tid": record["tid"],
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
