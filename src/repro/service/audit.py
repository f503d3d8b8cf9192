"""Append-only audit trail, persisted next to the results.

The Kobatela audit's "mandates without an audit trail" finding is the
template for what to avoid: state transitions that leave no record.
Every service-visible action — a submission, a cell retiring, a
webhook firing, an authentication failure — lands as one row in a
``service_audit`` table inside the *store* database (results and
their history travel together), and simultaneously as a structured
:mod:`repro.obs.log` event, so the live ring and the durable table
tell the same story.

The table is append-only by construction: this class exposes no
update or delete, and rows carry a monotonically increasing
``entry_id`` plus a UTC timestamp.  Writers may live on any thread —
the worker pool, the webhook notifier and the HTTP loop all append —
so the connection is shared under a lock with WAL journaling.
"""

import json
import threading
from datetime import datetime, timezone

from repro import obs
from repro.store.db import connect

_SCHEMA = """
CREATE TABLE IF NOT EXISTS service_audit (
    entry_id  INTEGER PRIMARY KEY AUTOINCREMENT,
    ts        TEXT NOT NULL,
    event     TEXT NOT NULL,
    actor     TEXT,
    job_id    TEXT,
    fields    TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS service_audit_job
    ON service_audit (job_id, entry_id)
"""


class AuditLog:
    """The append-only ``service_audit`` table in the store DB."""

    def __init__(self, path):
        self.path = path
        self._lock = threading.Lock()
        self._connection = connect(path, isolation_level=None,
                                   check_same_thread=False)
        self._connection.executescript(_SCHEMA)

    def close(self):
        with self._lock:
            self._connection.close()

    def append(self, event, actor=None, job_id=None, **fields):
        """Record one audit event; returns its ``entry_id``."""
        payload = json.dumps(fields, sort_keys=True,
                             separators=(",", ":"), default=str)
        timestamp = datetime.now(timezone.utc).isoformat()
        with self._lock:
            cursor = self._connection.execute(
                "INSERT INTO service_audit "
                "(ts, event, actor, job_id, fields) "
                "VALUES (?, ?, ?, ?, ?)",
                (timestamp, event, actor, job_id, payload))
            entry_id = cursor.lastrowid
        obs.logger().info("service.audit", audit_event=event,
                          actor=actor, job=job_id)
        obs.metrics().counter("service.audit_entries",
                              event=event).inc()
        return entry_id

    def entries(self, job_id=None, limit=None):
        """Recorded events, oldest first, optionally scoped to one
        job and/or capped to the most recent *limit* rows."""
        query = ("SELECT entry_id, ts, event, actor, job_id, fields "
                 "FROM service_audit")
        params = []
        if job_id is not None:
            query += " WHERE job_id = ?"
            params.append(job_id)
        query += " ORDER BY entry_id"
        with self._lock:
            rows = self._connection.execute(query, params).fetchall()
        if limit is not None:
            rows = rows[-limit:]
        return [{"entry_id": row[0], "ts": row[1], "event": row[2],
                 "actor": row[3], "job_id": row[4],
                 "fields": json.loads(row[5])} for row in rows]
