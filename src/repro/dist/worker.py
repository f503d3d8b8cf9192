"""The distributed sweep worker: lease, execute, archive, complete.

One ``repro dist work`` process is a loop over
:meth:`repro.dist.queue.WorkQueue.claim`:

1. **Lease** the oldest eligible cell (atomic; the lease token is this
   worker's proof of ownership).
2. **Execute** it through :meth:`repro.store.sweep.SweepRunner.run_cell`,
   the one engine call every sweep cell makes (a local ``repro sweep``
   is this loop: one worker over an in-memory queue, or
   ``min(workers, kernels)`` forked workers over a temporary queue
   file), so a
   distributed sweep's keys and aggregates are bit-identical to a
   serial one's.  ``run_cell`` does not archive: the caching runner
   leaves the compressed chunk stream in its
   :class:`repro.store.db.ChunkCapture` (empty on a cache hit).  The
   engine's per-chunk progress callback doubles as the **heartbeat**,
   renewing the lease at a third of its duration.
3. **Archive** an executed cell's capture with
   :meth:`repro.store.db.ResultStore.archive` — the same call a direct
   caller's miss makes, so both paths store identical bytes.  A cache
   hit archives nothing.
4. **Complete** the lease (:meth:`repro.dist.queue.WorkQueue.complete`,
   token-guarded) only after the archive commit, so a crash between
   the two leaves a committed result and a reclaimable lease: the
   re-executing worker's archive is an idempotent overwrite of
   identical bytes.

Failure modes map onto queue states: an execution error (including a
:class:`repro.fi.deadline.CellTimeout`) fails the lease back to
``pending`` (``poisoned`` once its attempts are spent); a SIGKILL
leaves the lease to expire and be reclaimed; a lost lease (heartbeat
returns False) finishes anyway and takes
``superseded`` — the archive write is idempotent, the state
transition just happened elsewhere.  An archive the store stayed
locked for also fails the lease (unlike a direct caller's miss, a
sweep cell is not done until it is archived).

Chaos points (see :mod:`repro.fi.chaos`) are consulted at each step —
``dist.cell`` (claim/run phases, kill action) and
``dist.expire_lease`` — making the host-level protocol
fault-injectable from the CLI (``repro dist work --chaos kill_cell=1
...``).
"""

import os
import platform
import time

from repro import obs
from repro.fi.chaos import ChaosPolicy
from repro.fi.deadline import wall_clock_deadline
from repro.store.db import archive_meta
from repro.store.sweep import SweepRunner

from repro.dist.queue import DEFAULT_LEASE_SECONDS

#: Seconds between claim attempts while the queue has unfinished but
#: currently unclaimable cells (leased to other live workers).
POLL_SECONDS = 0.2

#: Give up after this long without claiming anything (safety valve for
#: orphaned workers; the queue being drained exits immediately).
DEFAULT_MAX_IDLE_SECONDS = 120.0


def default_worker_id():
    return f"{platform.node()}-{os.getpid()}"


def policy_from_specs(specs):
    """Build a :class:`ChaosPolicy` from CLI ``--chaos`` strings.

    Each spec is ``name=value``: ``kill_cell=N`` / ``kill_claim=N``
    (SIGKILL around the N-th claimed cell), ``expire_lease=N``
    (ordinal), and ``skew_clock=S`` (seconds, float).  Returns
    ``None`` for no specs.
    """
    if not specs:
        return None
    policy = ChaosPolicy()
    for spec in specs:
        name, _, value = spec.partition("=")
        if not value:
            raise ValueError(f"--chaos {spec!r}: expected name=value")
        if name == "kill_cell":
            policy.kill_dist_worker(int(value), phase="run")
        elif name == "kill_claim":
            policy.kill_dist_worker(int(value), phase="claim")
        elif name == "expire_lease":
            policy.expire_lease(int(value))
        elif name == "skew_clock":
            policy.skew_clock(float(value))
        else:
            raise ValueError(f"--chaos {spec!r}: unknown fault {name!r}")
    return policy


class DistWorker:
    """One worker process draining one queue into one store."""

    def __init__(self, queue, store, worker_id=None,
                 lease_seconds=DEFAULT_LEASE_SECONDS, engine_workers=1,
                 max_cells=None,
                 max_idle_seconds=DEFAULT_MAX_IDLE_SECONDS, chaos=None,
                 cell_timeout=None, events=None, wait=time.sleep):
        self.queue = queue
        self.store = store
        self.worker_id = worker_id or default_worker_id()
        self.lease_seconds = lease_seconds
        self.engine_workers = engine_workers
        self.max_cells = max_cells
        self.max_idle_seconds = max_idle_seconds
        self.chaos = chaos
        self.cell_timeout = cell_timeout
        #: Optional ``callable(kind, **fields)`` observing this
        #: worker's cell lifecycle (``cell_claimed`` /
        #: ``cell_progress`` / ``cell_done`` / ``cell_superseded`` /
        #: ``cell_failed``) — how a local sweep builds its report and
        #: progress lines.
        #: The events of an executed cell (``cell_done`` /
        #: ``cell_superseded``) also carry its
        #: :class:`repro.store.sweep.CellOutcome` as ``outcome``.
        #: Event delivery must never sink a cell, so callback errors
        #: are swallowed.
        self.events = events
        #: ``callable(seconds)`` the loop idles with while the queue has
        #: unfinished cells this worker cannot claim; a local sweep's
        #: forked workers pass one that returns as soon as the queue
        #: drains, so the last idle worker exits with the last cell.
        self.wait = wait
        #: spec digest -> the :class:`SweepRunner` executing its cells
        #: (a local sweep seeds its own runner here).
        self.runners = {}
        self.stats = {"done": 0, "superseded": 0, "failed": 0}

    # -- plumbing ----------------------------------------------------------

    def _fire(self, point, **context):
        if self.chaos is None:
            return False
        return self.chaos.fire(point, **context)

    def _emit(self, kind, **fields):
        if self.events is None:
            return
        try:
            self.events(kind, worker=self.worker_id, **fields)
        except Exception:
            pass

    def _sweep_runner(self, digest):
        if digest not in self.runners:
            spec = self.queue.load_spec(digest)
            self.runners[digest] = SweepRunner(
                spec, self.store, workers=self.engine_workers)
        return self.runners[digest]

    # -- one cell ----------------------------------------------------------

    def _execute(self, lease, ordinal):
        """Run one leased cell, archive it and settle its lease;
        returns ``(state, outcome)``: the :meth:`WorkQueue.complete`
        state (``"done"`` or ``"superseded"``) and the cell's
        :class:`repro.store.sweep.CellOutcome`."""
        runner = self._sweep_runner(lease.spec_digest)

        forfeited = self._fire("dist.expire_lease", ordinal=ordinal)
        if forfeited:
            self.queue.force_expire(lease.token)
        lease_state = {"held": not forfeited,
                       "renewed_at": time.monotonic()}

        def heartbeat(done, total):
            self._emit("cell_progress", cell_id=lease.cell_id,
                       spec_digest=lease.spec_digest, done=done,
                       total=total)
            if not lease_state["held"]:
                return
            elapsed = time.monotonic() - lease_state["renewed_at"]
            if elapsed < self.lease_seconds / 3.0:
                return
            if self.queue.renew(lease.token, self.lease_seconds):
                lease_state["renewed_at"] = time.monotonic()
            else:
                # Lost the lease: keep computing (the archive bytes
                # stay useful) but expect a superseded commit.
                lease_state["held"] = False
                obs.logger().warning("dist.lease_lost",
                                     cell=lease.cell_id,
                                     worker=self.worker_id)

        deadline = runner.max_wall_seconds if self.cell_timeout is None \
            else self.cell_timeout
        with wall_clock_deadline(deadline, what=f"cell {lease.cell_id}"):
            result, outcome = runner.run_cell(lease.cell,
                                              progress=heartbeat)

        # The kill-mid-cell fault: computed, not yet committed — the
        # worst crash point the reclaim path must absorb.
        self._fire("dist.cell", ordinal=ordinal, phase="run")

        key = runner.runner.last_key
        if result.cached:
            sim_runs = 0
        else:
            capture = runner.runner.last_capture
            self.store.archive(key, capture.chunks,
                               archive_meta(result, capture.chunk_size))
            sim_runs = max(0, result.n_runs - result.pruned_runs)
        state = self.queue.complete(lease.token, result_key=key,
                                    cached=result.cached,
                                    sim_runs=sim_runs)
        obs.logger().info("dist.cell_committed", cell=lease.cell_id,
                          worker=self.worker_id, state=state, key=key)
        return state, outcome

    def _attempt(self, lease, ordinal):
        """Execute and archive one leased cell, settling its queue row;
        returns the ``sweep.cells`` status (``hit``/``run``/
        ``failed``)."""
        registry = obs.metrics()
        try:
            state, outcome = self._execute(lease, ordinal)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            state = self.queue.fail(lease.token, error)
            self.stats["failed"] += 1
            registry.counter("dist.cells", status="failed",
                             worker=self.worker_id).inc()
            obs.logger().error("dist.cell_failed", cell=lease.cell_id,
                               worker=self.worker_id, state=state,
                               error=error)
            self._emit("cell_failed", cell_id=lease.cell_id,
                       spec_digest=lease.spec_digest, state=state,
                       error=error)
            return "failed"
        if state == "superseded":
            self.stats["superseded"] += 1
            status, event = "superseded", "cell_superseded"
        else:
            self.stats["done"] += 1
            status, event = "committed", "cell_done"
        registry.counter("dist.cells", status=status,
                         worker=self.worker_id).inc()
        self._emit(event, cell_id=lease.cell_id,
                   spec_digest=lease.spec_digest, key=outcome.key,
                   outcome=outcome)
        return "hit" if outcome.cached else "run"

    # -- the loop ----------------------------------------------------------

    def run(self):
        """Drain the queue; returns this worker's outcome counters."""
        registry = obs.metrics()
        cell_seconds = registry.histogram(
            "dist.cell_seconds", help="Per-worker cell wall time",
            worker=self.worker_id)
        ordinal = 0
        last_progress = time.monotonic()
        while True:
            if self.max_cells is not None and ordinal >= self.max_cells:
                break
            lease = self.queue.claim(self.worker_id,
                                     self.lease_seconds)
            if lease is None:
                if self.queue.drained():
                    break
                if (time.monotonic() - last_progress
                        > self.max_idle_seconds):
                    obs.logger().warning("dist.worker_idle_timeout",
                                         worker=self.worker_id)
                    break
                self.queue.reap()
                self.wait(POLL_SECONDS)
                continue
            last_progress = time.monotonic()
            self._fire("dist.cell", ordinal=ordinal, phase="claim")
            self._emit("cell_claimed", cell_id=lease.cell_id,
                       spec_digest=lease.spec_digest,
                       attempt=lease.attempts)
            started = time.perf_counter()
            cell = lease.cell
            with obs.tracer().span(
                    "sweep.cell", kernel=cell.kernel, mode=cell.mode,
                    harden=cell.harden, core=cell.core) as span:
                status = self._attempt(lease, ordinal)
                span.set("status", status)
            registry.counter("sweep.cells", status=status).inc()
            cell_seconds.observe(time.perf_counter() - started)
            ordinal += 1
        return dict(self.stats)
