"""SQLite-backed content-addressed store of campaign results.

One *meta* row per cache key (:func:`repro.store.keys.campaign_key`)
holding the campaign's aggregates and provenance, plus the per-run
record list — effects *and* trace signatures, so pairwise consumers
like :func:`repro.harden.evaluate.count_conversions` work identically
on cached results — archived as **chunked, zlib-compressed segments**
in ``campaign_chunks`` (``(key, chunk_index)`` rows, payload layout
v2).  Every write takes one path: a :class:`ChunkCapture` sink
compresses the engine's chunk stream as it retires, and
:meth:`ResultStore.archive` commits the captured blobs plus the
:func:`archive_meta` row in one transaction (the caching runner on a
direct caller's miss, the sweep worker once its cell has run).  A hit
is read in two steps: :meth:`ResultStore.get` restores the aggregates
from the meta row alone, and
:meth:`ResultStore.replay` streams the archived chunks into a caller's
:class:`repro.fi.sink.RunSink` exactly as the engine streamed them, so
per-run records stay O(chunk_size) on both paths; a writer holds only
the compressed blobs until its commit.

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
from repro.fi.engine import DEFAULT_CHUNK_SIZE
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
    opens (result store, dist queue, service jobs table):
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


def is_lock_error(exc):
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


def archive_meta(result, chunk_size):
    """The meta dict *result* archives under: aggregates — the sizes
    map and effect counts, so cached hits restore them without a run
    scan — provenance and the chunk size its records were captured
    in."""
    return {
        "effects": result.effect_counts(),
        "vulnerable": result.vulnerable_runs(),
        "sizes": {signature.hex(): size for signature, size
                  in result.trace_sizes().items()},
        "pruned_runs": result.pruned_runs,
        "vectorized": result.vectorized,
        "wall_time": result.wall_time,
        "chunk_size": chunk_size,
    }


class ChunkCapture(RunSink):
    """Spools the engine's chunk stream, archive-encoded, in memory.

    Each retired chunk is compressed with the store's own codec
    (:func:`encode_chunk`) into a ``(blob, n_records, raw_size)``
    triple, the input of :meth:`ResultStore.archive`, which stores the
    blobs byte for byte, never re-encoded.
    """

    def __init__(self):
        self.chunks = []
        self.chunk_size = DEFAULT_CHUNK_SIZE

    def begin(self, meta):
        self.chunks = []
        self.chunk_size = meta["chunk_size"]

    def consume(self, chunk):
        blob, raw_size = encode_chunk(chunk)
        self.chunks.append((blob, len(chunk), raw_size))


#: The :func:`archive_meta` fields the meta row's payload keeps
#: (``wall_time`` has a column of its own).
_PAYLOAD_FIELDS = ("effects", "vulnerable", "sizes", "pruned_runs",
                   "vectorized", "chunk_size")


class ChunkWriter:
    """Writes one archive into the store's open transaction: any prior
    archive under the key is deleted, chunks insert in order, and
    :meth:`commit` adds the meta row and commits everything at once
    (driven by :meth:`ResultStore.archive`, which rolls back on
    failure)."""

    def __init__(self, store, key):
        self._store = store
        self._key = key
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

    def write_chunk(self, blob, n_records, raw_size):
        """Insert the next plan-ordered chunk: *blob* encodes
        *n_records* records in *raw_size* uncompressed bytes."""
        self._store._connection.execute(
            "INSERT INTO campaign_chunks "
            "(key, chunk_index, payload, digest) VALUES (?, ?, ?, ?)",
            (self._key, self._n_chunks, blob, chunk_digest(blob)))
        self._n_chunks += 1
        self._n_runs += n_records
        self._uncompressed += raw_size
        self._compressed += len(blob)
        obs.metrics().counter("store.bytes_in").inc(len(blob))

    def commit(self, meta):
        """Write the meta row for *meta* (an :func:`archive_meta` dict)
        and commit the whole archive atomically."""
        payload = {field: meta[field] for field in _PAYLOAD_FIELDS}
        payload["n_chunks"] = self._n_chunks
        self._store._connection.execute(
            "INSERT INTO campaign_results "
            "(key, schema_version, payload, n_runs, wall_time, host, "
            " repro_version, created_at, uncompressed_bytes, "
            " compressed_bytes) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (self._key, SCHEMA_VERSION,
             json.dumps(payload, sort_keys=True, separators=(",", ":")),
             self._n_runs, meta["wall_time"], platform.node(),
             repro.__version__, datetime.now(timezone.utc).isoformat(),
             self._uncompressed, self._compressed))
        with obs.tracer().span("store.commit", key=self._key,
                               chunks=self._n_chunks):
            self._store._commit()


class CorruptChunk(KeyError):
    """A damaged archive chunk, already quarantined under *reason*."""

    def __init__(self, key, chunk_index, reason):
        super().__init__(
            f"chunk {chunk_index} of {key}: {reason} (quarantined)")
        self.reason = reason


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
                if not is_lock_error(exc) or attempt >= COMMIT_RETRIES:
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

    def _read_meta(self, key):
        """``(meta, sizes, n_runs, wall_time)`` of *key*'s meta row
        (``sizes`` keyed by signature bytes), or ``None`` when the key
        is absent, written under another schema or its payload does
        not decode."""
        row = self._connection.execute(
            "SELECT schema_version, payload, n_runs, wall_time "
            "FROM campaign_results WHERE key = ?", (key,)).fetchone()
        if row is None or row[0] != SCHEMA_VERSION:
            return None
        _, payload, n_runs, wall_time = row
        try:
            meta = json.loads(payload)
            sizes = {bytes.fromhex(signature_hex): size
                     for signature_hex, size in meta["sizes"].items()}
        except _DECODE_ERRORS:
            return None
        return meta, sizes, n_runs, wall_time

    def _get(self, key):
        row = self._read_meta(key)
        if row is None:
            return None
        meta, sizes, n_runs, wall_time = row
        try:
            aggregates = Aggregates.restore(meta["effects"],
                                            meta["vulnerable"], sizes,
                                            n_runs)
            if not self._chunks_intact(key, meta["n_chunks"]):
                return None              # damaged archive: clean miss
            result = CampaignResult(golden=None, aggregates=aggregates)
            result.cached = True
            result.pruned_runs = meta["pruned_runs"]
            result.vectorized = meta["vectorized"]
            result.wall_time = wall_time
            return result
        except _DECODE_ERRORS:
            return None                  # corrupt meta row: miss

    def replay(self, key, sink, plan, golden):
        """Stream the archive of *key* — a hit :meth:`get` just served —
        into *sink* as the engine streamed it: ``begin`` with the
        engine's meta keys (the caller's *plan* and *golden*), one
        ``consume`` per archived chunk in plan order, each chunk
        digest-checked, then ``finish`` with the archived wall time
        and pruned count.
        Each record carries the caller's own *plan* entry (the key
        covers the plan, so position ``i`` of the archive is
        ``plan[i]``) and the ``byte_size`` of its signature from the
        meta row's sizes map, so replayed records equal the miss's.
        Damage found mid-replay is quarantined and raised as
        :class:`CorruptChunk`."""
        meta, sizes, n_runs, wall_time = self._read_meta(key)
        planned_runs = iter(plan)
        sink.begin({"total_runs": n_runs,
                    "vectorized": meta["vectorized"],
                    "chunk_size": meta["chunk_size"],
                    "plan": plan, "golden": golden})
        bytes_out = obs.metrics().counter("store.bytes_out")
        for chunk_index in range(meta["n_chunks"]):
            blob, records = self._checked_chunk(key, chunk_index)
            bytes_out.inc(len(blob))
            sink.consume([(next(planned_runs), effect, signature,
                           sizes[signature])
                          for _, effect, signature in records])
        sink.finish({"wall_time": wall_time,
                     "pruned_runs": meta["pruned_runs"]})

    def _checked_chunk(self, key, chunk_index, decode=True):
        """Fetch one archived chunk and check it: present, its digest
        matching (rows archived before digests existed skip this), and
        — when *decode* — its payload decoding.  Returns ``(blob,
        records)`` (``records`` is ``None`` without *decode*); damage
        is quarantined and raised as :class:`CorruptChunk`."""
        row = self._connection.execute(
            "SELECT payload, digest FROM campaign_chunks "
            "WHERE key = ? AND chunk_index = ?",
            (key, chunk_index)).fetchone()
        digest = None
        if row is None:
            reason = "missing chunk"
        else:
            blob, digest = row
            if digest is not None and chunk_digest(blob) != digest:
                reason = "digest mismatch"
            elif not decode:
                return blob, None
            else:
                try:
                    return blob, decode_chunk(blob)
                except _DECODE_ERRORS as exc:
                    reason = f"undecodable payload: {exc}"
        _quarantine(self._connection, key, chunk_index, reason,
                    digest=digest)
        raise CorruptChunk(key, chunk_index, reason)

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
        try:
            for chunk_index in range(n_chunks):
                self._checked_chunk(key, chunk_index, decode=False)
        except CorruptChunk:
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
                try:
                    _, records = self._checked_chunk(key, chunk_index)
                except CorruptChunk as exc:
                    corrupt.append({"key": key, "chunk_index": chunk_index,
                                    "reason": exc.reason})
                    if exc.reason != "missing chunk":
                        n_chunks += 1
                    continue
                n_chunks += 1
                decoded_runs += len(records)
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

    def archive(self, key, chunks, meta):
        """Archive one campaign under *key*, replacing any prior
        archive: *chunks* are its captured ``(blob, n_records,
        raw_size)`` triples in plan order (:class:`ChunkCapture`),
        *meta* its :func:`archive_meta` dict.  Chunks and meta row
        commit in one transaction, so readers never observe a partial
        archive; on any failure — a lock that outlasted
        :data:`COMMIT_RETRIES` included — the write is rolled back and
        the error re-raised."""
        writer = ChunkWriter(self, key)
        try:
            for blob, n_records, raw_size in chunks:
                writer.write_chunk(blob, n_records, raw_size)
            writer.commit(meta)
        except BaseException:
            self._connection.rollback()
            raise

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
