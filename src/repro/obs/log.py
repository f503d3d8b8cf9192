"""Structured, leveled key-value event log.

The pipeline's operational events — a quarantined store row, a dead
worker, a commit retry, a failed sweep cell — used to surface as
``RuntimeWarning``\\ s and progress-line prints, which are invisible
unless the right ``-W`` flag happens to be set and impossible to
machine-consume.  :class:`StructLogger` records them as structured
events instead: a level, an event name, and key-value fields
(quarantine events carry the store key and digest, worker deaths
carry chunk/attempt/exitcode).

Events land in a bounded in-memory ring (what tests and the CLI
inspect) and, when a *stream* is attached, render as one
``level event key=value ...`` line each.  The ring is always on —
appending a dict to a deque is far below the noise floor of the
operations being logged — and warning-compat call sites keep emitting
their ``RuntimeWarning`` alongside the event.
"""

import collections
import time

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

#: Events retained in the ring before the oldest drop off.
DEFAULT_CAPACITY = 4096


class StructLogger:
    """Leveled key-value event recorder with an optional text stream."""

    def __init__(self, capacity=DEFAULT_CAPACITY, stream=None,
                 level="info"):
        self.records = collections.deque(maxlen=capacity)
        self.stream = stream
        self.level = level

    def log(self, level, event, **fields):
        if level not in LEVELS:
            raise ValueError(f"unknown log level {level!r}")
        record = {"ts": time.time(), "level": level, "event": event,
                  "fields": fields}
        self.records.append(record)
        if self.stream is not None \
                and LEVELS[level] >= LEVELS[self.level]:
            body = " ".join(f"{key}={value!r}"
                            for key, value in sorted(fields.items()))
            print(f"{level.upper():7s} {event} {body}".rstrip(),
                  file=self.stream)
        return record

    def debug(self, event, **fields):
        return self.log("debug", event, **fields)

    def info(self, event, **fields):
        return self.log("info", event, **fields)

    def warning(self, event, **fields):
        return self.log("warning", event, **fields)

    def error(self, event, **fields):
        return self.log("error", event, **fields)

    def events(self, name=None, level=None):
        """Recorded events, optionally filtered by event name and/or
        minimum level (the test/reporting accessor)."""
        floor = LEVELS[level] if level is not None else 0
        return [record for record in self.records
                if (name is None or record["event"] == name)
                and LEVELS[record["level"]] >= floor]

    def clear(self):
        self.records.clear()
