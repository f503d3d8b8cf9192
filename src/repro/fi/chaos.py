"""Deterministic fault injection for the campaign pipeline itself.

This repo measures how *programs* survive injected faults; this module
applies the same discipline to the pipeline that does the measuring.
A :class:`ChaosPolicy` is a set of rules bound to **named injection
points** — places in the engine, the sinks and the store that consult
the policy at well-defined moments:

``worker.segment``
    Fired by a forked campaign worker immediately before it classifies
    one strided segment (context: ``chunk``, ``segment``, ``attempt``).
    The ``kill`` action SIGKILLs the worker process on the spot —
    the supervisor in :class:`repro.fi.engine.CampaignEngine` must
    detect the death and re-assign the unfinished segments.

``sink.consume``
    Fired by the :class:`ChaosSink` the engine appends to its sink
    fan-out when a policy is threaded through ``run(chaos=...)``
    (context: ``index``, the 0-based chunk ordinal).  Raising here
    models a sink failing mid-stream (disk full, broken pipe) and
    exercises the engine's sink-teardown path.

``store.commit``
    Fired by :class:`repro.store.db.ResultStore` inside its retrying
    commit wrapper, once per attempt (context: ``attempt``).  Raising
    ``sqlite3.OperationalError("database is locked")`` here proves the
    backoff-and-retry path without needing a second real writer.

``dist.cell``
    Fired by a distributed worker (:mod:`repro.dist.worker`) around
    each leased cell (context: ``ordinal``, the 0-based count of cells
    this worker has claimed, and ``phase`` — ``"claim"`` right after
    the lease is granted, ``"run"`` right before the result is
    archived).  The ``kill`` action models a host vanishing mid-cell;
    the lease must expire and another worker must reclaim the cell.

``dist.expire_lease``
    Fired once per claimed cell (context: ``ordinal``).  A firing rule
    makes the worker *forfeit* its lease — stop heartbeating and force
    the deadline into the past — so another worker reclaims the cell
    while this one keeps computing (the stale-token / superseded-commit
    path).

``dist.skew_clock``
    Consulted via :meth:`ChaosPolicy.fire_value` by the work queue's
    clock (context: none).  The rule's ``payload`` (seconds) is added
    to the queue's notion of *now*, modelling a worker whose clock
    runs fast — its leases look expired to everyone else.

Rules are exact-match on their context and fire a bounded number of
``times`` (default once), so every schedule is reproducible: the same
policy against the same plan injects the same faults.  Policies are
plain Python objects inherited by forked workers, which is exactly how
the engine's snapshots travel too.

The module also provides direct *at-rest* corruption helpers for the
store — :func:`corrupt_chunk` and :func:`truncate_chunk` — used by the
chaos test-suite and the CI chaos job to prove that a damaged archive
degrades to a clean miss (quarantine), never a crash.
"""

import os
import signal


class ChaosError(Exception):
    """Raised by an injection rule configured with ``exc=ChaosError``
    (the default failure payload for sink faults)."""


class ChaosRule:
    """One armed injection: fires at *point* when every key of *match*
    equals the fired context, at most *times* times."""

    __slots__ = ("point", "match", "times", "fired", "exc", "action",
                 "payload")

    def __init__(self, point, match=None, times=1, exc=None, action=None,
                 payload=None):
        self.point = point
        self.match = dict(match or {})
        self.times = times
        self.fired = 0
        self.exc = exc            # exception instance/factory to raise
        self.action = action      # "kill" -> SIGKILL the current process
        self.payload = payload    # value returned by fire_value()

    def matches(self, point, context):
        if point != self.point or self.fired >= self.times:
            return False
        return all(context.get(key) == value
                   for key, value in self.match.items())


class ChaosPolicy:
    """A deterministic set of pipeline-fault rules.

    Build one with the convenience constructors and thread it through
    ``CampaignEngine.run(chaos=policy)`` and/or
    ``ResultStore(path, chaos=policy)``::

        policy = ChaosPolicy().kill_worker(chunk=0, segment=1)
        engine.run(workers=4, chaos=policy)   # worker 0 dies, run heals

    ``fired`` counts every rule activation, so tests can assert the
    fault actually happened (a chaos test that silently injects
    nothing proves nothing).
    """

    def __init__(self):
        self.rules = []

    # -- generic -----------------------------------------------------------

    def on(self, point, match=None, times=1, exc=None, action=None,
           payload=None):
        """Arm a raw rule; prefer the named constructors below."""
        self.rules.append(ChaosRule(point, match=match, times=times,
                                    exc=exc, action=action,
                                    payload=payload))
        return self

    # -- named injections --------------------------------------------------

    def kill_worker(self, chunk, segment, attempt=0):
        """SIGKILL the worker executing strided chunk *chunk* right
        before it classifies segment *segment*.  By default only the
        first attempt dies, so the supervisor's re-assignment succeeds;
        pass ``attempt=None`` to kill every retry too (exercising the
        bounded-retry / serial-degrade path)."""
        match = {"chunk": chunk, "segment": segment}
        if attempt is not None:
            match["attempt"] = attempt
        times = 1 if attempt is not None else 1 << 30
        return self.on("worker.segment", match=match, times=times,
                       action="kill")

    def fail_sink(self, index=0, exc=None, times=1):
        """Raise from the engine's sink fan-out when chunk ordinal
        *index* is consumed (default: an ``OSError`` modelling a full
        disk)."""
        if exc is None:
            exc = OSError(28, "No space left on device (chaos)")
        return self.on("sink.consume", match={"index": index},
                       times=times, exc=exc)

    def lock_store(self, times=2):
        """Make the next *times* store commit attempts raise
        ``database is locked`` before touching SQLite, exercising the
        store's retry-with-backoff wrapper."""
        import sqlite3

        return self.on("store.commit", times=times,
                       exc=sqlite3.OperationalError("database is locked"))

    # -- host-level (distributed) injections -------------------------------

    def kill_dist_worker(self, ordinal, phase="run"):
        """SIGKILL a distributed worker around its *ordinal*-th claimed
        cell: ``phase="claim"`` dies holding a fresh untouched lease,
        ``phase="run"`` (default) dies after computing but before
        committing — the worst case the reclaim path must absorb."""
        return self.on("dist.cell",
                       match={"ordinal": ordinal, "phase": phase},
                       action="kill")

    def expire_lease(self, ordinal=0):
        """Make the worker forfeit the lease on its *ordinal*-th cell —
        heartbeats stop and the deadline is forced into the past — so
        the cell is reclaimed while the original worker keeps going."""
        return self.on("dist.expire_lease", match={"ordinal": ordinal})

    def skew_clock(self, seconds):
        """Skew the work queue's clock by *seconds* (positive = fast):
        every lease comparison this process makes sees ``now + skew``."""
        return self.on("dist.skew_clock", times=1 << 30, payload=seconds)

    # -- firing ------------------------------------------------------------

    @property
    def fired(self):
        """Total rule activations across every injection point."""
        return sum(rule.fired for rule in self.rules)

    def fire(self, point, **context):
        """Consult the policy at a named injection point.

        Applies the first matching armed rule: raises its exception,
        or executes its action (``"kill"`` = SIGKILL self — never
        returns).  Returns True when a rule fired, False otherwise.
        """
        for rule in self.rules:
            if not rule.matches(point, context):
                continue
            rule.fired += 1
            if rule.action == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            if rule.exc is not None:
                raise rule.exc
            return True
        return False

    def fire_value(self, point, default=None, **context):
        """Like :meth:`fire`, but returns the matching rule's
        ``payload`` (or *default* when no rule matches) instead of
        True/False — for injection points that need a *value*, like
        ``dist.skew_clock``.  Value rules never raise or kill."""
        for rule in self.rules:
            if not rule.matches(point, context):
                continue
            rule.fired += 1
            return rule.payload
        return default


class ChaosSink:
    """The sink the engine appends when a chaos policy is threaded
    through ``run(chaos=...)``: fires ``sink.consume`` per retiring
    chunk so a rule can fail the stream mid-campaign.  Duck-typed to
    the :class:`repro.fi.sink.RunSink` protocol."""

    def __init__(self, policy):
        self.policy = policy
        self._index = 0

    def begin(self, meta):
        self._index = 0

    def consume(self, chunk):
        index = self._index
        self._index += 1
        self.policy.fire("sink.consume", index=index)

    def finish(self, summary):
        pass


# -- at-rest store corruption (test/CI helpers) ---------------------------

def corrupt_chunk(store, key, chunk_index=0, offset=None):
    """Flip one byte of an archived chunk payload in place, bypassing
    every integrity layer — what a bad disk or a torn write leaves
    behind.  Returns the corrupted payload length."""
    row = store._connection.execute(
        "SELECT payload FROM campaign_chunks "
        "WHERE key = ? AND chunk_index = ?",
        (key, chunk_index)).fetchone()
    if row is None:
        raise KeyError(f"no chunk {chunk_index} under {key}")
    payload = bytearray(row[0])
    position = (len(payload) // 2) if offset is None else offset
    payload[position] ^= 0xFF
    store._connection.execute(
        "UPDATE campaign_chunks SET payload = ? "
        "WHERE key = ? AND chunk_index = ?",
        (bytes(payload), key, chunk_index))
    store._connection.commit()
    return len(payload)


def truncate_chunk(store, key, chunk_index=0, keep=4):
    """Truncate an archived chunk payload to *keep* bytes — a torn
    write that leaves a syntactically broken zlib stream behind."""
    row = store._connection.execute(
        "SELECT payload FROM campaign_chunks "
        "WHERE key = ? AND chunk_index = ?",
        (key, chunk_index)).fetchone()
    if row is None:
        raise KeyError(f"no chunk {chunk_index} under {key}")
    store._connection.execute(
        "UPDATE campaign_chunks SET payload = ? "
        "WHERE key = ? AND chunk_index = ?",
        (row[0][:keep], key, chunk_index))
    store._connection.commit()


def drop_chunk(store, key, chunk_index=0):
    """Delete one chunk row outright — the archive is now shorter than
    its meta row promises (a lost write)."""
    store._connection.execute(
        "DELETE FROM campaign_chunks "
        "WHERE key = ? AND chunk_index = ?", (key, chunk_index))
    store._connection.commit()
