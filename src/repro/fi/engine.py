"""Checkpointed, parallel, vectorized fault-injection campaign engine.

:class:`CampaignEngine` is the one executor every campaign runs on:
``repro campaign``, ``repro memory``, ``repro sample``, sweep cells,
Table II validation and the benchmarks.  Every injected run shares the
golden prefix up to its injection cycle, so the engine never replays
it:

* **Checkpointing**: the golden run is re-executed once with
  :meth:`Machine.run_with_snapshots`, taking a snapshot every
  ``checkpoint_interval`` cycles (by default
  :func:`auto_checkpoint_interval`, about 32 per trace); each injected
  run restores the deepest snapshot at or before its injection cycle
  and executes only the tail, cutting the campaign from O(runs ×
  trace-length) to O(runs × avg-tail).  This is the standard
  acceleration campaign tools built around SPIKE-style ISA simulators
  use to make exhaustive register-file sweeps (the paper's Table I
  baseline) tractable.  A resumed run that reaches a later snapshot
  with the golden state splices the golden suffix; one that reaches a
  state an earlier run of the campaign already had takes that run's
  record from the campaign's :class:`repro.fi.tails.TailMemo` instead
  of simulating its tail.  ``engine.runs_executed`` counts every run
  classified; ``engine.tails_reused`` counts those answered from the
  memo, so a ``--trace``/``repro obs summarize`` reading shows how
  much of the campaign was reused rather than simulated.
* **One block schedule, supervised workers** (``workers=N``): the plan
  is cut into blocks of ``n × chunk_size`` consecutive rows, and part
  ``k`` of each block, ``block[k::n]``, goes to forked worker ``k``
  (``n`` is 1 on the serial path), so the expensive early-cycle
  injections — whose resumed tails span nearly the whole trace —
  spread evenly across workers.  Workers fork through
  :class:`repro.fork.ForkPool`, the one fork path of the package: each
  finished part goes home over the worker's own pipe together with the
  metrics and ``engine.chunk`` span it produced, so counts and traces
  stay exact whichever workers die.  The parent *supervises* while it
  drains: a worker whose pipe closes with parts still missing died
  (SIGKILL, OOM, a crashed interpreter), and its missing parts go to a
  respawned worker with bounded retries and exponential backoff; when
  respawn keeps failing the engine finishes them serially in the
  parent.  The serial loop, the workers and that serial degrade all
  feed the one :class:`BlockEmitter`, which interleaves each complete
  block back into plan order and passes it on in ``chunk_size``
  pieces, so the record stream, its chunk boundaries and the
  :class:`CampaignResult` are bit-identical to the serial baseline no
  matter which workers survived.  Platforms without the ``fork``
  start method fall back to serial execution.
* **Lockstep vectorization** (a machine built with
  ``core="batched"``): the plan is executed SIMD-across-faults by
  :mod:`repro.fi.batch` — one NumPy lane per planned injection running
  along the golden path from its window's snapshot, with divergent
  lanes escaping to the threaded core and reconverged lanes retiring
  as masked.  The engine silently falls back to the scalar threaded
  path when NumPy is missing or the golden run is not batchable.
* **Liveness pruning** (``prune="liveness"``, opt-in): an injection
  whose register is overwritten on the golden path before it is next
  read is provably masked (:mod:`repro.fi.prune`).  Each part's step
  — in the worker that runs it — records such rows as the golden
  masked run without simulating them and hands the rest to the core;
  the part's pruned count travels back with its records, so
  ``CampaignResult.pruned_runs`` is exact under every schedule.
* **Streaming sinks** (``sink=...``, ``chunk_size=N``): records are
  pushed to :mod:`repro.fi.sink` consumers in plan-ordered chunks as
  they retire instead of being materialized first.  The engine's own
  aggregates ride the same stream and the :class:`CampaignResult`
  keeps nothing per run, so peak resident per-run records are
  O(chunk_size × parts) — independent of plan length.  A caller that
  wants the records attaches a sink that keeps them
  (:class:`repro.fi.sink.CollectSink`).  A sink that raises mid-stream
  (disk full, say) fails the campaign; no sink holds a resource that
  outlives it.
* **Chaos injection** (``chaos=ChaosPolicy()``): the engine consults a
  deterministic :class:`repro.fi.chaos.ChaosPolicy` at named points —
  workers fire ``worker.segment`` (where a rule can SIGKILL them) and
  the sink fan-out fires ``sink.consume`` — so every recovery path
  above is exercised by tests instead of merely claimed.

All knobs compose and every combination preserves bit-identical
aggregates; snapshots, the pruner and the batch classifier are built in
the parent before the workers fork, so they inherit them for free.
Every schedule reads the plan one part at a time: nothing the engine
holds grows with plan length, and an invalid site fails when its part
runs, with the simulator's message on either core.
"""

import time

from repro import fork, obs
from repro.errors import SimulationError
from repro.fi import batch
from repro.fi.campaign import (EFFECT_MASKED, CampaignResult,
                               classify_effect)
from repro.fi.machine import Injection
from repro.fi.prune import LivenessPruner
from repro.fi.sink import AggregateSink, ProgressSink, TeeSink
from repro.fi.tails import TailMemo

#: Records per streamed chunk when the caller does not choose.  Large
#: enough to amortize sink dispatch, IPC pickling and (on the batched
#: core) lane refills across many runs; small enough that the bounded
#: per-chunk memory stays a few hundred KB.
DEFAULT_CHUNK_SIZE = 2048

#: Valid ``prune`` arguments of :meth:`CampaignEngine.run`.
PRUNE_MODES = (None, "none", "liveness")


def auto_checkpoint_interval(golden):
    """Default snapshot interval for a campaign over *golden*: about 32
    snapshots per trace, bounding snapshot memory while keeping resume
    and reconvergence waste near 1.5 % of the trace."""
    return max(1, golden.cycles // 32)


def pick_snapshot(snapshots, cycle):
    """Deepest snapshot usable for an injection at *cycle*.

    *snapshots* must be sorted by cycle (as produced by
    :meth:`Machine.run_with_snapshots`, whose list starts at cycle 0).
    A pre-execution upset (``cycle=-1``) can only reuse the cycle-0
    snapshot.  Returns ``None`` only when there is no usable snapshot:
    *snapshots* is empty or *cycle* is below -1.
    """
    if not snapshots:
        return None
    if cycle == -1:
        return snapshots[0] if snapshots[0].cycle == 0 else None
    # Hand-rolled bisect: bisect_right(key=...) needs Python >= 3.10
    # and setup.py promises 3.9.
    low, high = 0, len(snapshots)
    while low < high:
        mid = (low + high) // 2
        if snapshots[mid].cycle <= cycle:
            low = mid + 1
        else:
            high = mid
    return snapshots[low - 1] if low else None


def run_injection(machine, golden, injection, snapshots, max_cycles,
                  tails=None):
    """The ``(effect, signature, byte_size)`` record of one injected
    run, resumed from the deepest of the golden *snapshots* (which
    start at cycle 0) at or before its injection (the single resume
    protocol shared by the engine's scalar path and the batched core's
    escape queue).  A register injection probes and fills the
    campaign's :class:`repro.fi.tails.TailMemo` *tails*; a memory
    injection never does."""
    snapshot = pick_snapshot(snapshots, injection.cycle)
    if snapshot is None:
        raise SimulationError(
            f"no golden snapshot at or before injection cycle "
            f"{injection.cycle}")
    if not isinstance(injection, Injection):
        tails = None
    if tails is not None:
        tails.begin(snapshot)
    injected = machine.run_from(snapshot, injection=injection,
                                max_cycles=max_cycles, converge=snapshots,
                                tails=tails)
    record = injected.reused
    if record is None:
        record = (classify_effect(golden, injected), injected.signature(),
                  injected.byte_size())
    else:
        obs.metrics().counter("engine.tails_reused").inc()
    if tails is not None:
        tails.commit(record)
    return record


class BlockEmitter:
    """The engine's one schedule and the one way its records reach the
    sinks.

    The plan is cut into blocks of ``n_parts × chunk_size`` consecutive
    rows; part ``k`` of block ``s`` is ``block[k::n_parts]``
    (:meth:`rows`).  Whoever classifies a part — the serial loop, a
    forked worker, the supervisor finishing a dead worker's parts —
    hands its records to :meth:`add`.  Once every part of the next
    block has arrived, the emitter interleaves them back into plan
    order, leads each record with its plan row and passes the block to
    *sink* in ``chunk_size`` pieces: every chunk but the last holds
    exactly ``chunk_size`` records, whatever ``n_parts`` is.  It also
    sums the parts' pruned counts.  A caller that has read a part's
    plan rows already hands them over, so no row is built twice.
    """

    def __init__(self, plan, sink, chunk_size, n_parts=1):
        self.plan = plan
        self.sink = sink
        self.chunk_size = chunk_size
        self.n_parts = n_parts
        self.block_size = n_parts * chunk_size
        self.n_blocks = -(-len(plan) // self.block_size)
        self.pruned = 0                 # pruned runs of the parts added
        self._next = 0                  # the next block to emit
        self._arrived = {}              # block -> {part: records}

    def block(self, index):
        """Plan indices of block *index*."""
        low = index * self.block_size
        return range(low, min(low + self.block_size, len(self.plan)))

    def rows(self, part, block):
        """Plan indices of part *part* of block *block*."""
        return self.block(block)[part::self.n_parts]

    def blocks(self, part):
        """The blocks in which *part* has rows."""
        return [index for index in range(self.n_blocks)
                if part < len(self.block(index))]

    def add(self, part, block, records, pruned=0, planned=None):
        """Take part *part* of block *block* (one record per row of
        :meth:`rows`, *pruned* of them liveness-pruned; *planned*: the
        part's plan rows, when the caller has them) and emit every
        block now complete, in plan order."""
        self._arrived.setdefault(block, {})[part] = (records, planned)
        self.pruned += pruned
        while self._next < self.n_blocks:
            rows = self.block(self._next)
            parts = self._arrived.get(self._next, {})
            if len(parts) < min(self.n_parts, len(rows)):
                return
            del self._arrived[self._next]
            self._next += 1
            merged = [None] * len(rows)
            leads = [None] * len(rows)
            for index, (part_records, part_rows) in parts.items():
                merged[index::self.n_parts] = part_records
                if part_rows is None:
                    part_rows = [self.plan[row]
                                 for row in rows[index::self.n_parts]]
                leads[index::self.n_parts] = part_rows
            size = self.chunk_size
            for low in range(0, len(rows), size):
                self.sink.consume([
                    (lead,) + record for lead, record
                    in zip(leads[low:low + size], merged[low:low + size])])


class _WorkerContext:
    """Everything a forked worker needs, inherited by reference."""

    def __init__(self, machine, plan, golden, snapshots, max_cycles,
                 pruner=None, tails=None, classifier=None):
        self.machine = machine
        self.plan = plan
        self.golden = golden
        self.snapshots = snapshots
        self.max_cycles = max_cycles
        self.pruner = pruner            # LivenessPruner or None
        self.masked = None              # the record of a pruned run
        if pruner is not None:
            self.masked = (EFFECT_MASKED, golden.signature(),
                           golden.byte_size())
        self.tails = tails              # the campaign's TailMemo or None
        self.classifier = classifier    # BatchClassifier or None

    def classify_indices(self, indices):
        """``(records, pruned)`` for the plan entries at *indices*: one
        record per entry, in order, and how many of them liveness
        pruning recorded as the golden masked run."""
        return self.classify([self.plan[index] for index in indices])

    def classify(self, rows):
        """:meth:`classify_indices` for plan rows already read."""
        live = range(len(rows))
        if self.pruner is not None:
            masked = self.pruner.provably_masked
            live = [position for position, planned in enumerate(rows)
                    if not masked(planned.injection)]
        # The one choke point every execution schedule funnels through
        # (serial, forked workers, lockstep lanes): counting here gives
        # `engine.runs_executed` exactly once per simulated injection,
        # and worker-side increments merge back over the result pipe.
        obs.metrics().counter("engine.runs_executed").inc(len(live))
        if self.classifier is not None:
            classified = self.classifier.classify(
                [rows[position] for position in live])
        else:
            classified = [
                run_injection(self.machine, self.golden,
                              rows[position].injection, self.snapshots,
                              self.max_cycles, self.tails)
                for position in live]
        if len(live) == len(rows):
            return classified, 0
        records = [self.masked] * len(rows)
        for position, record in zip(live, classified):
            records[position] = record
        return records, len(rows) - len(live)


#: Respawn budget per part before the supervisor degrades that part to
#: serial in-parent execution.
WORKER_RETRIES = 2

#: Base of the exponential respawn backoff, in seconds (doubles per
#: retry of the same part).
RETRY_BACKOFF = 0.05


def _worker_main(send, context, part, work, attempt, chaos):
    """One forked worker (a :class:`repro.fork.ForkPool` child):
    classify part *part* of each block in *work*, a list of ``(block,
    plan indices)``, and send each home as ``("segment", block,
    records, pruned)``.  The pool ships the runs each segment counted
    and its ``engine.chunk`` span with it, so a worker that dies later
    has still reported everything it delivered."""
    tracer = obs.tracer()
    with tracer.span("engine.worker", chunk=part, attempt=attempt + 1,
                     segments=len(work)):
        for block, indices in work:
            if chaos is not None:
                chaos.fire("worker.segment", chunk=part, segment=block,
                           attempt=attempt)
            with tracer.span("engine.chunk", chunk=part, segment=block):
                records, pruned = context.classify_indices(indices)
            send("segment", block, records, pruned)


class _Supervisor:
    """Runs each part of the block schedule in its own forked worker
    and heals the ones that die.

    A worker whose pipe closes with blocks of its part still missing
    died (SIGKILL, OOM, a crashed interpreter): its missing blocks go
    to a respawned worker — :data:`WORKER_RETRIES` times with
    exponential backoff — and finally to the parent, serially, so the
    campaign always ends with the full plan-ordered record stream."""

    def __init__(self, context, emitter, chaos=None):
        self.context = context
        self.emitter = emitter
        self.chaos = chaos
        self.pool = fork.ForkPool()
        #: part -> its blocks not yet received, in block order
        self.missing = [dict.fromkeys(emitter.blocks(part))
                        for part in range(emitter.n_parts)]
        self.attempts = [0] * emitter.n_parts   # workers started per part

    def run(self):
        with self.pool:
            for part in range(self.emitter.n_parts):
                self._spawn(part)
            self.pool.drain(self._message, self._ended)
        if any(self.missing):
            raise SimulationError(
                "campaign supervisor lost workers without completing "
                "the plan")                 # unreachable by design

    def _spawn(self, part):
        """Start (or restart) the worker of *part* on its missing
        blocks; finish them in-parent when process creation is
        refused."""
        missing = list(self.missing[part])
        try:
            self.pool.spawn(part, _worker_main, self.context, part,
                            [(block, self.emitter.rows(part, block))
                             for block in missing],
                            self.attempts[part], self.chaos)
        except OSError:
            # Process creation refused (sandbox, rlimits): same
            # results, just without the speedup.
            self._finish_serially(part)
            return
        self.attempts[part] += 1
        obs.metrics().counter("engine.worker_spawns").inc()
        obs.logger().debug("engine.worker_spawned", chunk=part,
                           attempt=self.attempts[part],
                           segments=len(missing))

    def _message(self, part, message):
        if message[0] == "error":           # deterministic: no retry
            raise SimulationError(f"campaign worker failed: {message[1]}")
        _, block, records, pruned = message
        self._received(part, block, records, pruned)

    def _ended(self, part, exitcode):
        """The worker of *part* is gone: if it left blocks missing,
        respawn it with backoff or, past the budget, finish serially."""
        if not self.missing[part]:
            return
        obs.metrics().counter("engine.worker_deaths").inc()
        obs.logger().warning(
            "engine.worker_died", chunk=part, attempt=self.attempts[part],
            exitcode=exitcode, missing_segments=len(self.missing[part]))
        obs.metrics().counter("engine.recoveries").inc()
        if self.attempts[part] > WORKER_RETRIES:
            self._finish_serially(part)
            return
        time.sleep(RETRY_BACKOFF * (1 << (self.attempts[part] - 1)))
        self._spawn(part)

    def _finish_serially(self, part):
        """Last resort: classify the part's missing blocks in the
        parent.  Identical records by construction — same rows, same
        classifier."""
        obs.metrics().counter("engine.serial_degraded_chunks").inc()
        obs.logger().warning("engine.serial_degrade", chunk=part,
                             attempts=self.attempts[part],
                             missing_segments=len(self.missing[part]))
        for block in list(self.missing[part]):
            with obs.tracer().span("engine.chunk", chunk=part,
                                   segment=block, serial=True):
                records, pruned = self.context.classify_indices(
                    self.emitter.rows(part, block))
            self._received(part, block, records, pruned)

    def _received(self, part, block, records, pruned):
        """Take in one finished part of *block*, exactly once."""
        missing = self.missing[part]
        if block in missing:
            del missing[block]
            self.emitter.add(part, block, records, pruned)


class CampaignEngine:
    """Executes a fault-injection plan with checkpointing, workers and
    (on a ``core="batched"`` machine) lockstep vectorization.

    ``CampaignEngine(machine, plan).run(workers=4,
    checkpoint_interval=64)`` returns the same :class:`CampaignResult`
    (modulo ``wall_time``) as the serial ``CampaignEngine(machine,
    plan).run()`` on a threaded machine.  *plan* is any sequence of
    :class:`repro.fi.campaign.PlannedRun` (a
    :class:`repro.fi.campaign.Plan` or a list); the engine indexes it
    and never copies it.
    """

    def __init__(self, machine, plan, regs=None, golden=None,
                 max_cycles=None):
        self.machine = machine
        self.plan = plan
        self.regs = regs
        self.golden = golden if golden is not None \
            else machine.run(regs=regs)
        self.max_cycles = max_cycles if max_cycles is not None \
            else max(4 * self.golden.cycles + 256, 1024)

    def run(self, workers=1, checkpoint_interval=None, progress=None,
            prune=None, sink=None, chunk_size=None, chaos=None):
        """Execute the whole plan; returns a :class:`CampaignResult`.

        ``workers`` > 1 forks that many supervised processes;
        ``checkpoint_interval`` sets the cycles between golden
        snapshots (``None`` or 0: :func:`auto_checkpoint_interval`);
        ``prune="liveness"`` records provably overwritten-before-read
        injections, part by part, without simulation; ``progress`` is
        an optional ``callable(done, total)`` invoked as chunks retire;
        ``sink`` is an optional extra :class:`repro.fi.sink.RunSink`
        receiving the plan-ordered record stream (e.g. the store's
        chunk capture); ``chunk_size`` bounds resident records per
        streamed chunk (default :data:`DEFAULT_CHUNK_SIZE`) — a parity
        knob, never an aggregate-changing one.  ``chaos`` threads a
        deterministic :class:`repro.fi.chaos.ChaosPolicy` through the
        workers and the sink fan-out.  A dead worker's part is
        respawned up to :data:`WORKER_RETRIES` times (with
        :data:`RETRY_BACKOFF`-second exponential backoff) before the
        engine finishes it serially in-parent; the batched core runs
        :data:`repro.fi.batch.LANES` lockstep lanes.  Neither changes
        aggregates.
        """
        if prune not in PRUNE_MODES:
            raise SimulationError(f"unknown prune mode {prune!r}")
        if chunk_size is None:
            chunk_size = DEFAULT_CHUNK_SIZE
        elif chunk_size < 1:
            raise SimulationError("chunk size must be positive")
        obs.metrics().counter("engine.campaigns").inc()
        with obs.tracer().span("engine.campaign", runs=len(self.plan),
                               core=self.machine.core, workers=workers):
            return self._run(workers, checkpoint_interval, progress,
                             prune, sink, chunk_size, chaos)

    def _run(self, workers, checkpoint_interval, progress, prune, sink,
             chunk_size, chaos):
        start = time.perf_counter()
        if not checkpoint_interval:
            checkpoint_interval = auto_checkpoint_interval(self.golden)
        with obs.tracer().span("engine.golden_snapshots",
                               interval=checkpoint_interval):
            _, snapshots = self.machine.run_with_snapshots(
                regs=self.regs, interval=checkpoint_interval,
                max_cycles=self.max_cycles)
        total = len(self.plan)
        pruner = None
        if prune == "liveness":
            pruner = LivenessPruner(self.machine.function, self.golden)
        tails = None
        if self.machine.width <= 64:
            # The memo's keys pack registers as 64-bit words.
            tails = TailMemo(len(self.machine._reg_of))
        batched = (self.machine.core == "batched"
                   and batch.numpy_available())
        classifier = None
        if batched and total and batch.batchable(
                self.machine, self.golden, self.max_cycles):
            classifier = batch.BatchClassifier(
                self.machine, self.golden, snapshots, self.max_cycles,
                tails)
        # Distinguishes the lockstep core actually engaging from the
        # silent scalar fallback (NumPy missing, non-batchable setup).
        # An empty plan left nothing to vectorize, which is not a
        # fallback.
        vectorized = classifier is not None or (batched and not total)
        context = _WorkerContext(self.machine, self.plan, self.golden,
                                 snapshots, self.max_cycles, pruner, tails,
                                 classifier)
        aggregate = AggregateSink()
        sinks = [aggregate]
        if progress is not None:
            sinks.append(ProgressSink(progress))
        if sink is not None:
            sinks.append(sink)
        if chaos is not None:
            from repro.fi.chaos import ChaosSink

            sinks.append(ChaosSink(chaos))
        tee = TeeSink(sinks)
        tee.begin({"total_runs": total, "vectorized": vectorized,
                   "chunk_size": chunk_size, "plan": self.plan,
                   "golden": self.golden})
        if workers and workers > 1 and total > 1 and fork.available():
            emitter = BlockEmitter(self.plan, tee, chunk_size,
                                   min(workers, total))
            _Supervisor(context, emitter, chaos=chaos).run()
        else:
            emitter = BlockEmitter(self.plan, tee, chunk_size)
            for block in range(emitter.n_blocks):
                indices = emitter.rows(0, block)
                with obs.tracer().span("engine.chunk", low=indices.start,
                                       size=len(indices)):
                    rows = [self.plan[index] for index in indices]
                    emitter.add(0, block, *context.classify(rows),
                                planned=rows)
        pruned = emitter.pruned
        if pruned:
            obs.metrics().counter("engine.runs_pruned").inc(pruned)
        result = CampaignResult(self.golden, aggregates=aggregate.aggregates)
        result.pruned_runs = pruned
        result.vectorized = vectorized
        result.wall_time = time.perf_counter() - start
        tee.finish({"wall_time": result.wall_time, "pruned_runs": pruned})
        return result
