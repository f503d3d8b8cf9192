"""Coordinator-side distributed sweep operations.

There is deliberately no coordinator *process*: the queue file is the
coordinator's whole state, so "the coordinator" is this handful of
functions any process can call — enqueue a spec, commit a verified
envelope, report progress, reap expired leases.  ``repro dist`` maps
onto them one-to-one.

:func:`commit_envelope` is the trust boundary.  Everything a worker
hands over is checked **before any store commit**:

1. the envelope signature (HMAC over every identity field) — a forged
   or tampered envelope is rejected and a quarantine event recorded;
2. the payload digest — re-derived from the actual chunk bytes and
   the meta, so corrupt or substituted content is rejected even under
   a valid signature;
3. each chunk's own digest, checked again as archive rows are staged.

Only then does :meth:`repro.store.db.ResultStore.archive` write the
chunks and the envelope's meta row in one transaction — the same call
a direct caller's miss makes, so both paths store identical bytes —
and only after the store commit does the queue transition
(``complete``), so a crash between the two leaves a committed result
and a reclaimable lease: the re-executing worker's commit is an
idempotent overwrite of identical bytes.  Rejections never raise; the
lease simply runs out and the cell is retried elsewhere.  A store that
stays locked does raise, and the worker fails the lease so the cell is
retried.
"""

from repro import obs
from repro.store.db import chunk_digest

from repro.dist.envelope import EnvelopeError, ResultEnvelope
from repro.dist.envelope import payload_digest as derive_payload_digest


def enqueue_spec(queue, spec, max_attempts=None):
    """Register *spec* and enqueue its grid; returns a summary dict."""
    from repro.dist.queue import DEFAULT_MAX_ATTEMPTS, spec_digest

    if max_attempts is None:
        max_attempts = DEFAULT_MAX_ATTEMPTS
    inserted = queue.enqueue(spec, max_attempts=max_attempts)
    return {"spec": spec.name, "digest": spec_digest(spec),
            "cells": len(spec.cells()), "enqueued": len(inserted),
            "already_queued": len(spec.cells()) - len(inserted)}


def _reject(queue, envelope, reason, worker=None, cell=None):
    """Record one envelope rejection: quarantine event + metrics,
    never an exception."""
    identity = cell or (envelope.cell_id if envelope is not None
                        else "unknown")
    who = worker or (envelope.worker if envelope is not None else None)
    queue.quarantine_event(identity, who, reason)
    obs.metrics().counter("dist.envelope_rejects").inc()
    obs.logger().warning("dist.envelope_rejected", cell=identity,
                         worker=who, reason=reason)
    return {"status": "rejected", "reason": reason}


def commit_envelope(store, queue, envelope, chunks, secret=None):
    """Verify *envelope*, archive *chunks*, retire the cell.

    *envelope* is a :class:`repro.dist.envelope.ResultEnvelope` or its
    JSON; *chunks* is the worker's captured stream, in order, as
    ``(blob, n_records, raw_size)`` triples (empty for a cache-hit
    envelope).  Returns a dict whose ``status`` is ``"committed"``
    (archived and retired), ``"superseded"`` (archived, but the lease
    had moved on), or ``"rejected"`` (nothing touched the store);
    accepted commits also say whether the cell was a ``cached`` hit.
    """
    if isinstance(envelope, str):
        try:
            envelope = ResultEnvelope.from_json(envelope)
        except EnvelopeError as exc:
            return _reject(queue, None, f"undecodable envelope: {exc}")

    if not envelope.verify(secret):
        return _reject(queue, envelope, "bad signature")

    digests = [chunk_digest(blob) for blob, _, _ in chunks]
    derived = derive_payload_digest(digests, envelope.meta)
    if derived != envelope.payload_digest:
        return _reject(queue, envelope, "payload digest mismatch")
    if len(chunks) != envelope.n_chunks:
        return _reject(
            queue, envelope,
            f"chunk count mismatch: envelope says {envelope.n_chunks}, "
            f"upload holds {len(chunks)}")

    if envelope.cached:
        # A cache-hit envelope carries no chunks; the archive must
        # already hold the key (it is where the hit came from).
        if envelope.result_key not in store:
            return _reject(queue, envelope,
                           "cache-hit envelope for an absent key")
    else:
        store.archive(envelope.result_key, chunks, envelope.meta)

    sim_runs = 0 if envelope.cached else max(
        0, envelope.n_runs - int(envelope.meta.get("pruned_runs", 0)))
    outcome = queue.complete(envelope.lease_token,
                             result_key=envelope.result_key,
                             cached=envelope.cached,
                             sim_runs=sim_runs)
    status = "committed" if outcome == "done" else outcome
    obs.logger().info("dist.cell_committed", cell=envelope.cell_id,
                      worker=envelope.worker, status=status,
                      key=envelope.result_key)
    return {"status": status, "key": envelope.result_key,
            "cell": envelope.cell_id, "cached": envelope.cached}


def status_payload(queue, spec_digest=None):
    """The one queue-status JSON shape every consumer serves.

    ``repro dist status --json`` and the campaign service's
    ``GET /v1/sweeps/{id}`` both emit exactly this dict (the service
    scoped to one spec digest), so clients never see two competing
    serializations of the same queue state.
    """
    status = queue.status(spec_digest)
    scoped = None if spec_digest is None else {
        row["cell_id"] for row in queue.cells(spec_digest)}
    status["quarantine"] = [
        {"cell_id": identity, "worker": worker, "reason": reason}
        for identity, worker, reason in queue.quarantined()
        if scoped is None or identity in scoped]
    return status


def reap(queue):
    """One explicit maintenance sweep (``repro dist reap``)."""
    return queue.reap()
