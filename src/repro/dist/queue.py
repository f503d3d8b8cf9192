"""Lease-based distributed work queue over SQLite.

The queue holds one row per sweep cell, keyed by a digest of the spec
and the cell's coordinates.  Workers *claim* cells by taking a
time-bounded **lease**: a single atomic ``UPDATE`` moves the oldest
eligible row — pending, or leased with an expired deadline — to this
worker, stamps a fresh unique lease token, and bumps the attempt
counter.  Because the connection runs in autocommit mode the claim is
one SQLite statement: two workers racing on the same row cannot both
win, and no explicit transaction bracketing is needed.

Lease lifecycle::

    pending ──claim──► leased ──complete──► done
       ▲                 │  ▲
       │                 │  └── renew (heartbeat, token-guarded)
       ├────fail─────────┤
       └──lease expired──┘        attempts ≥ max ──► poisoned

A lease is *renewed* by the worker's heartbeat (wired to the engine's
per-chunk progress callback); a worker that dies simply stops renewing
and the row becomes claimable again at ``lease_expires`` — no failure
detector, no coordinator process, just clocks.  Attempts are counted
at claim time and bounded by ``max_attempts``: a cell that keeps
killing its workers ends up **poisoned** (excluded from claims,
reported by ``repro dist status``) instead of looping forever — the
host-level analogue of PR 7's bounded worker retries.

Claims are **kernel-affine**, so as a rule one worker computes each
kernel's compile, hardened variants, BEC analyses, golden runs and
plans: a worker *holds* a spec's kernel while it has an unexpired lease
on one of its cells or completed one less than a lease duration ago.
A claim takes the next eligible cell of a kernel the claimant holds;
failing that, the first eligible cell of a kernel no other worker
holds.  A worker that holds no kernel of the spec then takes the first
eligible cell even of a held kernel, so a one-kernel spec keeps every
fresh worker busy; a worker that holds one waits instead of repeating
another's set-up (at most a lease duration, until the hold lapses).

Completion is token-guarded: ``complete`` succeeds only for the
*current* leaseholder.  A worker whose lease expired mid-cell and was
re-leased elsewhere gets ``"superseded"`` back — its result bytes were
still archived (content-addressed commits are idempotent, so
at-least-once delivery double-commits harmlessly) but the queue-state
transition belongs to the new leaseholder.

Time is read through :meth:`WorkQueue.now`, which consults the
``dist.skew_clock`` chaos point — so tests can model a fast clock
without monkeypatching ``time.time`` process-wide.

Everything the queue does is counted through :mod:`repro.obs`
(``dist.lease_grants`` / ``renewals`` / ``expiries`` / ``reclaims``,
``dist.poisoned``, ``dist.completions``, ``dist.superseded``), so a
``--metrics`` snapshot of any worker shows the protocol at work.
"""

import hashlib
import json
import time
import uuid
from collections import namedtuple
from datetime import datetime, timezone

from repro import obs
from repro.store.db import connect
from repro.store.spec import SweepCell, parse_spec

#: Seconds a fresh lease lasts before anyone else may reclaim the
#: cell; renewed by the worker's heartbeat well before expiry.
DEFAULT_LEASE_SECONDS = 60.0

#: Claims a cell may consume before it is poisoned.
DEFAULT_MAX_ATTEMPTS = 3

_SCHEMA = """
CREATE TABLE IF NOT EXISTS dist_specs (
    digest      TEXT PRIMARY KEY,
    name        TEXT NOT NULL,
    payload     TEXT NOT NULL,
    created_at  TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS dist_queue (
    cell_id       TEXT PRIMARY KEY,
    spec_digest   TEXT NOT NULL,
    cell          TEXT NOT NULL,
    state         TEXT NOT NULL DEFAULT 'pending',
    attempts      INTEGER NOT NULL DEFAULT 0,
    max_attempts  INTEGER NOT NULL,
    worker        TEXT,
    lease_token   TEXT,
    lease_expires REAL,
    enqueued_at   REAL NOT NULL,
    completed_at  REAL,
    result_key    TEXT,
    last_error    TEXT,
    cached        INTEGER NOT NULL DEFAULT 0,
    sim_runs      INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS dist_queue_state
    ON dist_queue (state, lease_expires)
"""

#: One granted lease: everything a worker needs to execute the cell
#: and prove, at completion, that it was the leaseholder.
Lease = namedtuple("Lease", ["cell_id", "token", "spec_digest", "cell",
                             "attempts", "expires"])


def spec_digest(spec):
    """Content digest of a sweep spec (its decoded source dict)."""
    blob = json.dumps(spec.data, sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def cell_id(digest, cell):
    """Stable identity of one cell within one spec."""
    blob = json.dumps([digest, list(cell)], sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def _encode_cell(cell):
    return json.dumps(cell._asdict(), sort_keys=True,
                      separators=(",", ":"))


def _decode_cell(text):
    data = json.loads(text)
    return SweepCell(**{field: data[field]
                        for field in SweepCell._fields})


class WorkQueue:
    """The shared cell queue, one SQLite file all workers open.

    Every method is safe to call from any process at any time; the
    claim path's atomicity is the single-statement ``UPDATE``, so no
    caller ever holds a transaction open across process boundaries.
    """

    def __init__(self, path, chaos=None):
        self.path = path
        self.chaos = chaos
        # Autocommit: each statement is its own transaction, so the
        # claim UPDATE is atomic without explicit BEGIN/COMMIT.
        self._connection = connect(path, isolation_level=None)
        self._connection.executescript(_SCHEMA)
        self._migrate()

    def _migrate(self):
        """Bring a pre-existing queue file up to the current schema.

        ``CREATE TABLE IF NOT EXISTS`` leaves old tables alone, so the
        completion-accounting columns (``cached``, ``sim_runs`` —
        added for the campaign service's per-submission run counts)
        are retrofitted with ``ALTER TABLE``; old rows read as
        uncached / zero runs, which only over-counts on reports that
        span the upgrade.
        """
        present = {row[1] for row in self._connection.execute(
            "PRAGMA table_info(dist_queue)")}
        for column, declaration in (
                ("cached", "INTEGER NOT NULL DEFAULT 0"),
                ("sim_runs", "INTEGER NOT NULL DEFAULT 0")):
            if column not in present:
                self._connection.execute(
                    f"ALTER TABLE dist_queue "
                    f"ADD COLUMN {column} {declaration}")

    def close(self):
        self._connection.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- time --------------------------------------------------------------

    def now(self):
        """The queue's notion of now — wall clock plus any armed
        ``dist.skew_clock`` chaos payload."""
        skew = 0.0
        if self.chaos is not None:
            skew = self.chaos.fire_value("dist.skew_clock",
                                         default=0.0) or 0.0
        return time.time() + skew

    # -- enqueue -----------------------------------------------------------

    def add_spec(self, spec):
        """Register a spec's source under its digest (idempotent)."""
        digest = spec_digest(spec)
        payload = json.dumps({"name": spec.name, "data": spec.data},
                             sort_keys=True, separators=(",", ":"))
        self._connection.execute(
            "INSERT OR IGNORE INTO dist_specs "
            "(digest, name, payload, created_at) VALUES (?, ?, ?, ?)",
            (digest, spec.name, payload,
             datetime.now(timezone.utc).isoformat()))
        return digest

    def load_spec(self, digest):
        """Rebuild the :class:`repro.store.spec.SweepSpec` a digest
        names (``KeyError`` when unknown)."""
        row = self._connection.execute(
            "SELECT payload FROM dist_specs WHERE digest = ?",
            (digest,)).fetchone()
        if row is None:
            raise KeyError(f"unknown spec digest {digest}")
        payload = json.loads(row[0])
        return parse_spec(payload["data"], name=payload["name"])

    def enqueue(self, spec, max_attempts=DEFAULT_MAX_ATTEMPTS,
                cells=None):
        """Register *spec* and enqueue every cell of its grid, in the
        order of *cells* (default: spec order), which is the order
        claims take them in.

        Idempotent: a cell already queued (any state) is left alone,
        so re-enqueueing a partially drained spec only tops up what is
        missing.  Returns the cell ids actually inserted.  Raises
        ``ValueError`` when *max_attempts* is below 1: such a cell
        could never be claimed.
        """
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be at least 1, got {max_attempts}")
        digest = self.add_spec(spec)
        inserted = []
        now = self.now()
        for cell in spec.cells() if cells is None else cells:
            identity = cell_id(digest, cell)
            cursor = self._connection.execute(
                "INSERT OR IGNORE INTO dist_queue "
                "(cell_id, spec_digest, cell, max_attempts, enqueued_at)"
                " VALUES (?, ?, ?, ?, ?)",
                (identity, digest, _encode_cell(cell), max_attempts,
                 now))
            if cursor.rowcount:
                inserted.append(identity)
        obs.metrics().counter("dist.enqueued").inc(len(inserted))
        return inserted

    # -- leasing -----------------------------------------------------------

    def claim(self, worker, lease_seconds=DEFAULT_LEASE_SECONDS):
        """Atomically lease an eligible cell to *worker*: the oldest of
        a kernel *worker* holds, else the oldest of a kernel no other
        worker holds, else — only when *worker* holds no kernel of that
        spec — the oldest (see the module docstring; insertion order
        breaks ties, so one spec's cells are claimed in enqueue order).
        *lease_seconds* is both the new lease's length and how long a
        completion keeps its kernel held.

        Eligible: pending, or leased past its deadline — both only
        while attempts remain.  Returns a :class:`Lease` or ``None``
        when nothing is claimable right now (which is not the same as
        the queue being drained: cells leased to live workers, and
        cells of kernels they hold, are unfinished — see
        :meth:`drained`).
        """
        token = uuid.uuid4().hex
        now = self.now()
        eligible = ("(state = 'pending' OR (state = 'leased' "
                    "AND lease_expires < :now)) "
                    "AND attempts < max_attempts")
        holding = ("((state = 'leased' AND lease_expires >= :now) "
                   "OR (state = 'done' AND completed_at > :held_since))")
        kernel = "spec_digest, json_extract(cell, '$.kernel')"

        def held(by):
            return (f"({kernel}) IN (SELECT {kernel} FROM dist_queue "
                    f"WHERE worker {by} :worker AND {holding})")
        mine, others = held("="), held("!=")
        cursor = self._connection.execute(
            f"UPDATE dist_queue SET state = 'leased', worker = :worker, "
            f"lease_token = :token, lease_expires = :expires, "
            f"attempts = attempts + 1 "
            f"WHERE cell_id = (SELECT cell_id FROM dist_queue "
            f"WHERE {eligible} AND ({mine} OR NOT {others} OR "
            f"spec_digest NOT IN (SELECT spec_digest FROM dist_queue "
            f"WHERE worker = :worker AND {holding})) "
            f"ORDER BY {mine} DESC, {others}, enqueued_at, rowid "
            f"LIMIT 1) AND {eligible}",
            {"worker": worker, "token": token,
             "expires": now + lease_seconds, "now": now,
             "held_since": now - lease_seconds})
        if not cursor.rowcount:
            return None
        row = self._connection.execute(
            "SELECT cell_id, spec_digest, cell, attempts, lease_expires "
            "FROM dist_queue WHERE lease_token = ?", (token,)).fetchone()
        identity, digest, cell_text, attempts, expires = row
        registry = obs.metrics()
        registry.counter("dist.lease_grants", worker=worker).inc()
        if attempts > 1:
            registry.counter("dist.lease_reclaims", worker=worker).inc()
            obs.logger().warning("dist.lease_reclaimed", cell=identity,
                                 worker=worker, attempt=attempts)
        return Lease(identity, token, digest, _decode_cell(cell_text),
                     attempts, expires)

    def renew(self, token, lease_seconds=DEFAULT_LEASE_SECONDS):
        """Heartbeat: push the lease deadline out, provided *token*
        still holds the lease.  False means the lease was lost (the
        caller should finish quietly and expect ``superseded``)."""
        cursor = self._connection.execute(
            "UPDATE dist_queue SET lease_expires = ? "
            "WHERE lease_token = ? AND state = 'leased'",
            (self.now() + lease_seconds, token))
        renewed = bool(cursor.rowcount)
        if renewed:
            obs.metrics().counter("dist.lease_renewals").inc()
        return renewed

    def force_expire(self, token):
        """Forfeit a lease: yank its deadline into the past so the
        next claim reclaims the cell immediately (the
        ``dist.expire_lease`` chaos handler, and an operator tool)."""
        cursor = self._connection.execute(
            "UPDATE dist_queue SET lease_expires = ? "
            "WHERE lease_token = ? AND state = 'leased'",
            (self.now() - 1.0, token))
        if cursor.rowcount:
            obs.metrics().counter("dist.lease_expiries").inc()
        return bool(cursor.rowcount)

    def expire_worker(self, worker):
        """Expire every lease *worker* holds, as :meth:`force_expire`
        does one: for a worker known to be dead, whose cells should not
        wait out their leases.  Returns the number of leases expired."""
        now = self.now()
        cursor = self._connection.execute(
            "UPDATE dist_queue SET lease_expires = ? "
            "WHERE worker = ? AND state = 'leased' AND lease_expires >= ?",
            (now - 1.0, worker, now))
        if cursor.rowcount:
            obs.metrics().counter("dist.lease_expiries").inc(
                cursor.rowcount)
        return cursor.rowcount

    # -- completion --------------------------------------------------------

    def complete(self, token, result_key=None, cached=False,
                 sim_runs=0):
        """Mark the leased cell done — token-guarded.

        Returns ``"done"`` when this call retired the cell, or
        ``"superseded"`` when the token no longer holds the lease (it
        expired and was reclaimed, or the cell is already done): the
        caller's archive bytes still stand, the state transition just
        was not theirs to make.

        *cached* and *sim_runs* record how the cell was satisfied —
        served from the content-addressed store, or executed with this
        many simulator runs — so per-submission accounting (the
        campaign service's ``totals.simulator_runs``) can be derived
        from queue state alone.
        """
        cursor = self._connection.execute(
            "UPDATE dist_queue SET state = 'done', completed_at = ?, "
            "result_key = ?, cached = ?, sim_runs = ?, "
            "lease_token = NULL, lease_expires = NULL "
            "WHERE lease_token = ? AND state = 'leased'",
            (self.now(), result_key, 1 if cached else 0,
             int(sim_runs), token))
        if cursor.rowcount:
            obs.metrics().counter("dist.completions").inc()
            return "done"
        obs.metrics().counter("dist.superseded").inc()
        return "superseded"

    def fail(self, token, error):
        """Report a failed attempt — token-guarded.

        The cell returns to ``pending`` while attempts remain and is
        ``poisoned`` once they are exhausted; returns the new state
        (or ``"superseded"`` when the token no longer held the lease).
        """
        row = self._connection.execute(
            "SELECT attempts, max_attempts FROM dist_queue "
            "WHERE lease_token = ? AND state = 'leased'",
            (token,)).fetchone()
        if row is None:
            obs.metrics().counter("dist.superseded").inc()
            return "superseded"
        attempts, max_attempts = row
        state = "poisoned" if attempts >= max_attempts else "pending"
        cursor = self._connection.execute(
            "UPDATE dist_queue SET state = ?, worker = NULL, "
            "lease_token = NULL, lease_expires = NULL, last_error = ? "
            "WHERE lease_token = ? AND state = 'leased'",
            (state, str(error)[:500], token))
        if not cursor.rowcount:        # lost a race with a reclaim
            obs.metrics().counter("dist.superseded").inc()
            return "superseded"
        if state == "poisoned":
            obs.metrics().counter("dist.poisoned").inc()
        return state

    # -- maintenance -------------------------------------------------------

    def reap(self):
        """Sweep the queue once: expired leases back to ``pending``
        (or ``poisoned`` when out of attempts).  Normally claims do
        this lazily; ``repro dist reap`` makes it explicit so status
        output reflects reality even with no worker running.  Returns
        ``{"expired": .., "poisoned": ..}``.
        """
        now = self.now()
        registry = obs.metrics()
        poisoned = self._connection.execute(
            "UPDATE dist_queue SET state = 'poisoned', worker = NULL, "
            "lease_token = NULL, lease_expires = NULL, "
            "last_error = COALESCE(last_error, 'lease expired') "
            "WHERE state = 'leased' AND lease_expires < ? "
            "AND attempts >= max_attempts", (now,)).rowcount
        expired = self._connection.execute(
            "UPDATE dist_queue SET state = 'pending', worker = NULL, "
            "lease_token = NULL, lease_expires = NULL "
            "WHERE state = 'leased' AND lease_expires < ?",
            (now,)).rowcount
        if expired:
            registry.counter("dist.lease_expiries").inc(expired)
        if poisoned:
            registry.counter("dist.poisoned").inc(poisoned)
        return {"expired": expired, "poisoned": poisoned}

    # -- introspection -----------------------------------------------------

    def _scope(self, spec_digest):
        """SQL fragment + params restricting a query to one spec's
        cells (or to everything when *spec_digest* is ``None``)."""
        if spec_digest is None:
            return "", ()
        return " AND spec_digest = ?", (spec_digest,)

    def counts(self, spec_digest=None):
        """Row counts by state (absent states count 0), optionally
        scoped to one spec's cells."""
        scope, params = self._scope(spec_digest)
        counts = {"pending": 0, "leased": 0, "done": 0, "poisoned": 0}
        for state, count in self._connection.execute(
                f"SELECT state, COUNT(*) FROM dist_queue "
                f"WHERE 1=1{scope} GROUP BY state", params):
            counts[state] = count
        return counts

    def drained(self, spec_digest=None):
        """True when no cell is pending or leased (every cell is done
        or poisoned — either way, no work remains)."""
        scope, params = self._scope(spec_digest)
        row = self._connection.execute(
            f"SELECT COUNT(*) FROM dist_queue "
            f"WHERE state IN ('pending', 'leased'){scope}",
            params).fetchone()
        return row[0] == 0

    def status(self, spec_digest=None):
        """Progress report derived from queue state alone, optionally
        scoped to one spec — the single status shape `repro dist
        status --json` and the campaign service both serve."""
        counts = self.counts(spec_digest)
        scope, params = self._scope(spec_digest)
        now = self.now()
        (stale,) = self._connection.execute(
            f"SELECT COUNT(*) FROM dist_queue "
            f"WHERE state = 'leased' AND lease_expires < ?{scope}",
            (now, *params)).fetchone()
        workers = {}
        for worker, done in self._connection.execute(
                f"SELECT worker, COUNT(*) FROM dist_queue "
                f"WHERE state = 'done' AND worker IS NOT NULL{scope} "
                f"GROUP BY worker ORDER BY worker", params):
            workers[worker] = done
        total = sum(counts.values())
        return {"cells": total, "states": counts,
                "stale_leases": stale,
                "drained": self.drained(spec_digest),
                "workers": workers}

    def cells(self, spec_digest=None):
        """Every queue row, decoded — tests, debugging, and the
        service's per-cell report assembly."""
        scope, params = self._scope(spec_digest)
        rows = []
        for row in self._connection.execute(
                f"SELECT cell_id, spec_digest, cell, state, attempts, "
                f"worker, result_key, last_error, cached, sim_runs, "
                f"completed_at FROM dist_queue WHERE 1=1{scope} "
                f"ORDER BY enqueued_at, rowid", params):
            rows.append({"cell_id": row[0], "spec_digest": row[1],
                         "cell": _decode_cell(row[2]), "state": row[3],
                         "attempts": row[4], "worker": row[5],
                         "result_key": row[6], "last_error": row[7],
                         "cached": bool(row[8]), "sim_runs": row[9],
                         "completed_at": row[10]})
        return rows
