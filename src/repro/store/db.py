"""SQLite-backed content-addressed store of campaign results.

One *meta* row per cache key (:func:`repro.store.keys.campaign_key`)
holding the campaign's aggregates and provenance, plus the per-run
record list — effects *and* trace signatures, so pairwise consumers
like :func:`repro.harden.evaluate.count_conversions` work identically
on cached results — archived as **chunked, zlib-compressed segments**
in ``campaign_chunks`` (``(key, chunk_index)`` rows, payload layout
v2).  Writers stream chunks in as the engine retires them
(:class:`ChunkWriter`, fed by :class:`StoreWriterSink`)
and readers replay hits as a lazy chunk iterator
(:class:`StoredRuns`), so neither side ever materializes a whole
campaign: peak resident records stay O(chunk_size) on both paths.

A row written under any other payload layout — including v1, which
held the whole run list as one JSON payload in the meta row — misses
cleanly and is recomputed, never a crash.  The *key* recipe is
versioned separately (:data:`repro.store.keys.KEY_VERSION`), so a
rewritten result lands under the same address.

The store is a plain file; concurrent sweeps on one host are safe
because a result's meta row is committed only after all of its chunks,
in one transaction — readers never observe a partially archived
campaign, and two writers racing on one key write the same aggregates
by the engine's parity invariants.  Contention is absorbed rather than
surfaced: connections open through :func:`connect` (WAL mode, a busy
timeout), and commit paths retry ``database is locked`` with
exponential backoff (:data:`COMMIT_RETRIES` attempts) before giving
up.  The dist queue and the service tables open their databases
through the same :func:`connect`.

Integrity is checked, not assumed.  Every archived chunk carries a
blake2b digest of its compressed payload, verified on replay; a chunk
that fails the digest (or fails to decode — bad disk, torn write) is
**quarantined**: recorded in ``campaign_quarantine``, warned about,
and the result misses cleanly so the caller re-executes.  Rewriting a
key clears its quarantine rows.  :meth:`ResultStore.verify` audits an
entire store (the ``repro store verify`` CLI) and reports exactly
which rows are damaged.
"""

import hashlib
import json
import os
import platform
import sqlite3
import time
import warnings
import zlib
from datetime import datetime, timezone

import repro
from repro import obs
from repro.fi.campaign import Aggregates, CampaignResult, PlannedRun
from repro.fi.machine import Injection
from repro.fi.sink import RunSink
from repro.store.keys import SCHEMA_VERSION

#: Lock-contention absorption: seconds SQLite itself blocks on a busy
#: database before raising, and how often the store then retries a
#: failed commit (exponential backoff doubling from
#: :data:`COMMIT_BACKOFF` seconds).  The busy timeout is overridable
#: per environment (:data:`TIMEOUT_ENV` seconds) — many-worker hosts
#: want more than the single-sweep default.
BUSY_TIMEOUT = 5.0
COMMIT_RETRIES = 5
COMMIT_BACKOFF = 0.05

#: Environment variable overriding the default busy timeout (seconds).
TIMEOUT_ENV = "REPRO_STORE_TIMEOUT"


def default_busy_timeout():
    """The busy timeout every database opens with:
    ``$REPRO_STORE_TIMEOUT`` seconds when set and parseable, else
    :data:`BUSY_TIMEOUT`."""
    raw = os.environ.get(TIMEOUT_ENV)
    if raw:
        try:
            return float(raw)
        except ValueError:
            warnings.warn(
                f"ignoring unparseable {TIMEOUT_ENV}={raw!r}",
                RuntimeWarning, stacklevel=3)
    return BUSY_TIMEOUT


def connect(path, **sqlite_options):
    """Open the SQLite database at *path* the way every repro database
    opens (result store, dist queue, service jobs and audit tables):
    parent directory created, :func:`default_busy_timeout` applied as
    both the connect timeout and ``PRAGMA busy_timeout``, WAL journaling
    where the filesystem supports it.  *sqlite_options*
    (``isolation_level``, ``check_same_thread``) pass through to the
    :mod:`sqlite3` connection."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    timeout = default_busy_timeout()
    connection = sqlite3.connect(path, timeout=timeout, **sqlite_options)
    connection.execute("PRAGMA busy_timeout = %d" % int(timeout * 1000))
    try:
        connection.execute("PRAGMA journal_mode=WAL")
    except sqlite3.OperationalError:
        pass          # e.g. filesystem without WAL support
    return connection


#: blake2b digest width for per-chunk payload digests (hex doubles it).
_DIGEST_SIZE = 16

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaign_results (
    key                TEXT PRIMARY KEY,
    schema_version     INTEGER NOT NULL,
    payload            TEXT NOT NULL,
    n_runs             INTEGER NOT NULL,
    wall_time          REAL NOT NULL,
    host               TEXT NOT NULL,
    repro_version      TEXT NOT NULL,
    created_at         TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaign_chunks (
    key         TEXT NOT NULL,
    chunk_index INTEGER NOT NULL,
    payload     BLOB NOT NULL,
    PRIMARY KEY (key, chunk_index)
);
CREATE TABLE IF NOT EXISTS campaign_quarantine (
    key         TEXT NOT NULL,
    chunk_index INTEGER NOT NULL,
    reason      TEXT NOT NULL,
    detected_at TEXT NOT NULL,
    PRIMARY KEY (key, chunk_index)
)
"""

#: Columns added after the v1 schema shipped; ``ALTER TABLE`` is
#: applied opportunistically so a store file created by an older
#: version keeps working in place.  ``digest`` rows written before the
#: column existed stay NULL — replay falls back to decode-validation
#: for them instead of digest comparison.
_MIGRATIONS = (
    "ALTER TABLE campaign_results ADD COLUMN uncompressed_bytes INTEGER",
    "ALTER TABLE campaign_results ADD COLUMN compressed_bytes INTEGER",
    "ALTER TABLE campaign_chunks ADD COLUMN digest TEXT",
)

#: Exceptions a damaged payload can raise while decoding — every read
#: path converts these to a quarantine + clean miss, never a crash.
_DECODE_ERRORS = (ValueError, KeyError, TypeError, zlib.error,
                  sqlite3.DatabaseError)


def chunk_digest(blob):
    """Hex blake2b digest archived (and verified) per chunk payload."""
    return hashlib.blake2b(blob, digest_size=_DIGEST_SIZE).hexdigest()


def _is_lock_error(exc):
    """True for SQLite's transient contention errors (the retryable
    family: another writer holds the lock right now)."""
    message = str(exc)
    return "database is locked" in message or "database is busy" in message


def _quarantine(connection, key, chunk_index, reason, digest=None):
    """Record one damaged row (idempotent) and warn; ``chunk_index``
    -1 marks damage in the meta row itself.  Emits a structured
    ``store.quarantine`` event (carrying the key and, when known, the
    expected digest) *and* keeps raising the ``RuntimeWarning`` older
    callers filter on."""
    connection.execute(
        "INSERT OR REPLACE INTO campaign_quarantine "
        "(key, chunk_index, reason, detected_at) VALUES (?, ?, ?, ?)",
        (key, chunk_index, reason,
         datetime.now(timezone.utc).isoformat()))
    connection.commit()
    obs.metrics().counter("store.quarantined").inc()
    obs.logger().warning("store.quarantine", key=key, chunk=chunk_index,
                         reason=reason, digest=digest)
    warnings.warn(
        f"quarantined corrupt archive row (key={key}, "
        f"chunk={chunk_index}): {reason}", RuntimeWarning, stacklevel=3)


class CachedCampaignResult(CampaignResult):
    """A :class:`CampaignResult` decoded from the store.

    Indistinguishable from a freshly executed result for every
    aggregate consumer — ``runs``, ``effect_counts()``,
    ``distinct_traces``, ``archived_bytes``, ``vulnerable_runs()`` —
    except that ``cached`` is true and ``golden`` is ``None`` (the
    golden trace is not archived; recompute it if you need it).
    ``wall_time`` reports the wall time of the *original* execution,
    so time-reporting consumers render the same numbers either way.
    On a hit ``runs`` is a lazy :class:`StoredRuns` chunk iterator
    bound to the open store — drain it (or copy what you need) before
    closing the store.
    """

    cached = True


def _encode_rows(records):
    """Canonical JSON rows for a records iterable of
    ``(planned, effect, signature)`` (extra fields ignored)."""
    rows = []
    for planned, effect, signature, *_ in records:
        rows.append([planned.injection.cycle, planned.injection.reg,
                     planned.injection.bit, planned.pp, planned.rep,
                     planned.epoch, effect, signature.hex()])
    return rows


def _decode_row(row):
    cycle, reg, bit, pp, rep, epoch, effect, signature_hex = row
    return (PlannedRun(Injection(cycle, reg, bit), pp, rep, epoch),
            effect, bytes.fromhex(signature_hex))


def encode_chunk(records):
    """zlib-compressed archive blob of one records chunk; returns
    ``(blob, uncompressed_size)``."""
    raw = json.dumps(_encode_rows(records), sort_keys=True,
                     separators=(",", ":")).encode()
    return zlib.compress(raw), len(raw)


def decode_chunk(blob):
    """The ``(planned, effect, signature)`` records of one chunk."""
    return [_decode_row(row)
            for row in json.loads(zlib.decompress(blob))]


class StoredRuns:
    """Lazy chunk-iterating view of an archived run list.

    Mirrors the list ``CampaignResult.runs`` used to be — ``len``,
    iteration, indexing, ``zip`` against a live result's runs — while
    keeping at most one decoded chunk in memory, fetched from
    ``campaign_chunks`` on demand.  Requires the owning store to stay
    open while iterated.
    """

    def __init__(self, connection, key, n_runs, n_chunks, chunk_size):
        self._connection = connection
        self._key = key
        self._n_runs = n_runs
        self._n_chunks = n_chunks
        self._chunk_size = chunk_size
        self._cache_index = None
        self._cache = None

    def __len__(self):
        return self._n_runs

    def _load(self, chunk_index):
        if chunk_index == self._cache_index:
            return self._cache
        row = self._connection.execute(
            "SELECT payload, digest FROM campaign_chunks "
            "WHERE key = ? AND chunk_index = ?",
            (self._key, chunk_index)).fetchone()
        if row is None:
            raise KeyError(
                f"missing chunk {chunk_index} of {self._key}")
        blob, digest = row
        if digest is not None and chunk_digest(blob) != digest:
            _quarantine(self._connection, self._key, chunk_index,
                        "digest mismatch", digest=digest)
            raise KeyError(
                f"corrupt chunk {chunk_index} of {self._key} "
                "(digest mismatch; quarantined)")
        try:
            records = decode_chunk(blob)
        except _DECODE_ERRORS as exc:
            _quarantine(self._connection, self._key, chunk_index,
                        f"undecodable payload: {exc}", digest=digest)
            raise KeyError(
                f"corrupt chunk {chunk_index} of {self._key} "
                "(quarantined)") from exc
        obs.metrics().counter("store.bytes_out").inc(len(blob))
        self._cache_index = chunk_index
        self._cache = records
        return records

    def __iter__(self):
        for chunk_index in range(self._n_chunks):
            yield from self._load(chunk_index)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[position]
                    for position in range(*index.indices(self._n_runs))]
        if index < 0:
            index += self._n_runs
        if not 0 <= index < self._n_runs:
            raise IndexError("run index out of range")
        return self._load(index // self._chunk_size)[
            index % self._chunk_size]


class ChunkWriter:
    """Streams one campaign into the store, chunk by chunk.

    All writes ride a single transaction: any prior archive under the
    key is deleted, chunks insert as they arrive, and the meta row —
    aggregates, provenance, compression accounting — lands at
    :meth:`commit`, which commits everything at once.  Until then
    readers of the store see the previous state; :meth:`abort` rolls a
    partial write back.
    """

    def __init__(self, store, key, chunk_size):
        self._store = store
        self._key = key
        self._chunk_size = chunk_size
        self._n_chunks = 0
        self._n_runs = 0
        self._uncompressed = 0
        self._compressed = 0
        connection = store._connection
        connection.execute(
            "DELETE FROM campaign_results WHERE key = ?", (key,))
        connection.execute(
            "DELETE FROM campaign_chunks WHERE key = ?", (key,))
        connection.execute(
            "DELETE FROM campaign_quarantine WHERE key = ?", (key,))

    def write_chunk(self, records):
        """Archive the next plan-ordered chunk of
        ``(planned, effect, signature[, byte_size])`` records."""
        blob, raw_size = encode_chunk(records)
        self.write_encoded(blob, len(records), raw_size)

    def write_encoded(self, blob, n_records, raw_size):
        """Archive one *already encoded* chunk blob (the distributed
        commit path, which verified the bytes against the envelope's
        digests and must archive them unchanged)."""
        self._store._connection.execute(
            "INSERT INTO campaign_chunks "
            "(key, chunk_index, payload, digest) VALUES (?, ?, ?, ?)",
            (self._key, self._n_chunks, blob, chunk_digest(blob)))
        self._n_chunks += 1
        self._n_runs += n_records
        self._uncompressed += raw_size
        self._compressed += len(blob)
        obs.metrics().counter("store.bytes_in").inc(len(blob))

    def commit(self, aggregates, pruned_runs=0, vectorized=False,
               wall_time=0.0):
        """Write the meta row and commit the whole archive atomically.

        *aggregates* is the campaign's
        :class:`repro.fi.campaign.Aggregates` (the sizes map and effect
        counts are archived so cached hits restore aggregates without a
        run scan).
        """
        meta = json.dumps({
            "effects": aggregates.effect_counts(),
            "vulnerable": aggregates.vulnerable,
            "sizes": {signature.hex(): size for signature, size
                      in aggregates.trace_sizes().items()},
            "pruned_runs": pruned_runs,
            "vectorized": vectorized,
            "n_chunks": self._n_chunks,
            "chunk_size": self._chunk_size,
        }, sort_keys=True, separators=(",", ":"))
        self._store._connection.execute(
            "INSERT INTO campaign_results "
            "(key, schema_version, payload, n_runs, wall_time, host, "
            " repro_version, created_at, uncompressed_bytes, "
            " compressed_bytes) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (self._key, SCHEMA_VERSION, meta, self._n_runs, wall_time,
             platform.node(), repro.__version__,
             datetime.now(timezone.utc).isoformat(),
             self._uncompressed, self._compressed))
        with obs.tracer().span("store.commit", key=self._key,
                               chunks=self._n_chunks):
            self._store._commit()

    def abort(self):
        """Discard everything written since the writer opened."""
        self._store._connection.rollback()


class StoreWriterSink(RunSink):
    """Streams retiring chunks straight into a :class:`ResultStore`.

    ``begin`` opens a :class:`ChunkWriter` under *key*, each
    ``consume`` appends one archived chunk, and ``finish`` commits the
    meta row — aggregates, provenance — atomically, so readers never
    observe a partially archived campaign.  On an engine failure call
    :meth:`abort` to roll the partial write back.
    """

    def __init__(self, store, key):
        self.store = store
        self.key = key
        self._writer = None
        self._aggregates = Aggregates()
        self._meta = None

    def begin(self, meta):
        self._meta = meta
        self._writer = self.store.open_writer(self.key, meta["chunk_size"])

    def consume(self, chunk):
        add = self._aggregates.add
        for _, effect, signature, byte_size in chunk:
            add(effect, signature, byte_size)
        self._writer.write_chunk(chunk)

    def finish(self, summary):
        try:
            self._writer.commit(self._aggregates,
                                pruned_runs=self._meta["pruned_runs"],
                                vectorized=self._meta["vectorized"],
                                wall_time=summary["wall_time"])
        except sqlite3.OperationalError as exc:
            # Archiving is an optimization, not the campaign: if the
            # store stayed locked past the writer's own retries, drop
            # the archive and let the computed result stand — the cell
            # simply misses next time instead of failing the run.
            if not _is_lock_error(exc):
                raise
            self._writer.abort()
            obs.logger().warning("store.archive_dropped", key=self.key,
                                 error=str(exc))
            obs.metrics().counter("store.archives_dropped").inc()
            warnings.warn(
                f"result store stayed locked; campaign not archived "
                f"under {self.key} ({exc})", RuntimeWarning,
                stacklevel=2)
        self._writer = None

    def abort(self):
        """Roll back a partial archive after an engine failure."""
        if self._writer is not None:
            self._writer.abort()
            self._writer = None


class ResultStore:
    """Content-addressed campaign-result store backed by SQLite.

    Opens through :func:`connect` (WAL mode, a busy timeout of
    ``$REPRO_STORE_TIMEOUT`` seconds, else :data:`BUSY_TIMEOUT`) so
    concurrent sweeps contend at the SQLite level instead of surfacing
    ``database is locked``; commits that still fail retry
    :data:`COMMIT_RETRIES` times with exponential backoff.  *chaos*
    threads a :class:`repro.fi.chaos.ChaosPolicy` whose
    ``store.commit`` rules fire once per commit attempt, so the retry
    path is testable without a second real writer.
    """

    def __init__(self, path, chaos=None):
        self.path = path
        self.chaos = chaos
        self._connection = connect(path)
        self._connection.executescript(_SCHEMA)
        for statement in _MIGRATIONS:
            try:
                self._connection.execute(statement)
            except sqlite3.OperationalError:
                pass                     # column already present
        self._connection.commit()

    def _commit(self):
        """Commit, absorbing transient lock contention.

        Fires the ``store.commit`` chaos point once per attempt, then
        retries ``database is locked`` with exponential backoff; the
        exception propagates only once :data:`COMMIT_RETRIES` extra
        attempts are exhausted.  Returns the number of attempts that
        failed."""
        for attempt in range(COMMIT_RETRIES + 1):
            try:
                if self.chaos is not None:
                    self.chaos.fire("store.commit", attempt=attempt)
                self._connection.commit()
                return attempt
            except sqlite3.OperationalError as exc:
                if not _is_lock_error(exc) or attempt >= COMMIT_RETRIES:
                    raise
                obs.metrics().counter("store.lock_retries").inc()
                obs.logger().warning("store.commit_retry",
                                     attempt=attempt, error=str(exc))
                time.sleep(COMMIT_BACKOFF * (1 << attempt))

    # -- lifecycle ---------------------------------------------------------

    def close(self):
        self._connection.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- access ------------------------------------------------------------

    def get(self, key):
        """The cached result for *key*, or ``None`` on a miss (also
        when the entry was written by an incompatible or corrupt
        payload — old rows degrade to a re-execution, never a crash).

        Every lookup counts into ``store.hits`` / ``store.misses``, the
        pair CI's warm-sweep assertion reads.
        """
        with obs.tracer().span("store.get", key=key) as span:
            result = self._get(key)
            hit = result is not None
            span.set("hit", hit)
        obs.metrics().counter(
            "store.hits" if hit else "store.misses").inc()
        return result

    def _get(self, key):
        row = self._connection.execute(
            "SELECT schema_version, payload, n_runs, wall_time "
            "FROM campaign_results WHERE key = ?", (key,)).fetchone()
        if row is None:
            return None
        version, payload, n_runs, wall_time = row
        if version != SCHEMA_VERSION:
            return None
        try:
            meta = json.loads(payload)
            sizes = {bytes.fromhex(signature_hex): size
                     for signature_hex, size in meta["sizes"].items()}
            aggregates = Aggregates.restore(meta["effects"],
                                            meta["vulnerable"], sizes,
                                            n_runs)
            if not self._chunks_intact(key, meta["n_chunks"]):
                return None              # damaged archive: clean miss
            runs = StoredRuns(self._connection, key, n_runs,
                              meta["n_chunks"], meta["chunk_size"])
            result = CachedCampaignResult(golden=None, runs=runs,
                                          aggregates=aggregates)
            result.pruned_runs = meta["pruned_runs"]
            result.vectorized = meta["vectorized"]
            result.wall_time = wall_time
            return result
        except _DECODE_ERRORS:
            return None                  # corrupt meta row: miss

    def _chunks_intact(self, key, n_chunks):
        """Up-front integrity check of an archive before handing out
        a hit: every promised chunk present, every digest matching
        (payloads hashed one row at a time — O(1) resident chunks).
        Damage is quarantined and the key misses; rows already in
        quarantine keep missing until a rewrite clears them."""
        (already,) = self._connection.execute(
            "SELECT COUNT(*) FROM campaign_quarantine WHERE key = ?",
            (key,)).fetchone()
        if already:
            return False
        present = {}
        for chunk_index, digest in self._connection.execute(
                "SELECT chunk_index, digest FROM campaign_chunks "
                "WHERE key = ?", (key,)):
            present[chunk_index] = digest
        for chunk_index in range(n_chunks):
            if chunk_index not in present:
                _quarantine(self._connection, key, chunk_index,
                            "missing chunk")
                return False
        for chunk_index in range(n_chunks):
            digest = present[chunk_index]
            if digest is None:
                continue                 # pre-digest row: checked on load
            (blob,) = self._connection.execute(
                "SELECT payload FROM campaign_chunks "
                "WHERE key = ? AND chunk_index = ?",
                (key, chunk_index)).fetchone()
            if chunk_digest(blob) != digest:
                _quarantine(self._connection, key, chunk_index,
                            "digest mismatch", digest=digest)
                return False
        return True

    def verify(self, clear_quarantine=False):
        """Audit the entire store, row by row.

        Deep-checks every readable archive — meta payload decodes,
        every chunk present, digests match, payloads decompress and
        parse, decoded run counts agree with the meta row — and
        quarantines whatever fails.  Returns a report dict::

            {"results": .., "chunks": .., "ok": bool,
             "corrupt": [{"key", "chunk_index", "reason"}, ...],
             "quarantined": .., "cleared": ..}

        *clear_quarantine* drops stale quarantine rows first (the
        post-repair workflow: delete or rewrite the damaged keys, then
        ``verify(clear_quarantine=True)`` re-audits from scratch —
        rows whose damage persists are immediately re-quarantined).

        Only one chunk is resident at a time, so auditing a large
        store stays O(chunk_size) in memory.
        """
        cleared = self.clear_quarantine() if clear_quarantine else 0
        corrupt = []

        def flag(key, chunk_index, reason):
            corrupt.append({"key": key, "chunk_index": chunk_index,
                            "reason": reason})
            _quarantine(self._connection, key, chunk_index, reason)

        n_results = 0
        n_chunks = 0
        for key, payload, n_runs in self._connection.execute(
                "SELECT key, payload, n_runs FROM campaign_results "
                "WHERE schema_version = ? ORDER BY key",
                (SCHEMA_VERSION,)).fetchall():
            n_results += 1
            try:
                meta = json.loads(payload)
                expected_chunks = meta["n_chunks"]
            except _DECODE_ERRORS as exc:
                flag(key, -1, f"corrupt meta payload: {exc}")
                continue
            decoded_runs = 0
            for chunk_index in range(expected_chunks):
                row = self._connection.execute(
                    "SELECT payload, digest FROM campaign_chunks "
                    "WHERE key = ? AND chunk_index = ?",
                    (key, chunk_index)).fetchone()
                if row is None:
                    flag(key, chunk_index, "missing chunk")
                    continue
                n_chunks += 1
                blob, digest = row
                if digest is not None and chunk_digest(blob) != digest:
                    flag(key, chunk_index, "digest mismatch")
                    continue
                try:
                    decoded_runs += len(decode_chunk(blob))
                except _DECODE_ERRORS as exc:
                    flag(key, chunk_index, f"undecodable payload: {exc}")
            if decoded_runs != n_runs and not any(
                    entry["key"] == key for entry in corrupt):
                flag(key, -1,
                     f"run count mismatch: meta says {n_runs}, "
                     f"chunks hold {decoded_runs}")
        (quarantined,) = self._connection.execute(
            "SELECT COUNT(*) FROM campaign_quarantine").fetchone()
        return {"results": n_results, "chunks": n_chunks,
                "ok": not corrupt, "corrupt": corrupt,
                "quarantined": quarantined, "cleared": cleared}

    def quarantined(self):
        """Every quarantined row as ``(key, chunk_index, reason)``."""
        return [tuple(row) for row in self._connection.execute(
            "SELECT key, chunk_index, reason FROM campaign_quarantine "
            "ORDER BY key, chunk_index")]

    def clear_quarantine(self):
        """Drop every quarantine row (post-repair); returns how many
        were dropped.  Damage that still exists is re-quarantined the
        next time the row is read or audited."""
        cursor = self._connection.execute(
            "DELETE FROM campaign_quarantine")
        self._connection.commit()
        return cursor.rowcount

    def open_writer(self, key, chunk_size):
        """A :class:`ChunkWriter` streaming a new archive under *key*
        (the sink protocol's store endpoint)."""
        return ChunkWriter(self, key, chunk_size)

    def provenance(self, key):
        """Provenance dict for *key* (``None`` when absent)."""
        row = self._connection.execute(
            "SELECT n_runs, wall_time, host, repro_version, created_at, "
            "schema_version, "
            "COALESCE(uncompressed_bytes, LENGTH(payload)), "
            "COALESCE(compressed_bytes, LENGTH(payload)) "
            "FROM campaign_results WHERE key = ?",
            (key,)).fetchone()
        if row is None:
            return None
        return {"n_runs": row[0], "wall_time": row[1], "host": row[2],
                "repro_version": row[3], "created_at": row[4],
                "schema_version": row[5], "uncompressed_bytes": row[6],
                "compressed_bytes": row[7]}

    def __contains__(self, key):
        row = self._connection.execute(
            "SELECT 1 FROM campaign_results WHERE key = ? "
            "AND schema_version = ?", (key, SCHEMA_VERSION)).fetchone()
        return row is not None

    def __len__(self):
        """Number of results readable under the current schema (rows
        written by an incompatible schema are invisible here, exactly
        as they are to :meth:`get` and ``in``)."""
        (count,) = self._connection.execute(
            "SELECT COUNT(*) FROM campaign_results "
            "WHERE schema_version = ?", (SCHEMA_VERSION,)).fetchone()
        return count

    def keys(self):
        return [key for (key,) in self._connection.execute(
            "SELECT key FROM campaign_results "
            "WHERE schema_version = ? ORDER BY created_at",
            (SCHEMA_VERSION,))]

    def stats(self):
        """Aggregate store statistics for reporting.

        ``uncompressed_bytes`` / ``compressed_bytes`` sum the archived
        payload sizes before and after chunk compression (rows archived
        before those columns existed count their meta payload length as
        both), so reports can state the store-size reduction directly.
        """
        row = self._connection.execute(
            "SELECT COUNT(*), COALESCE(SUM(n_runs), 0), "
            "COALESCE(SUM(wall_time), 0.0), "
            "COALESCE(SUM(COALESCE(uncompressed_bytes, "
            "                      LENGTH(payload))), 0), "
            "COALESCE(SUM(COALESCE(compressed_bytes, "
            "                      LENGTH(payload))), 0) "
            "FROM campaign_results WHERE schema_version = ?",
            (SCHEMA_VERSION,)).fetchone()
        return {"results": row[0], "archived_runs": row[1],
                "archived_wall_time": row[2],
                "uncompressed_bytes": row[3],
                "compressed_bytes": row[4]}
