"""Fault-injection campaign planners and runners.

Three campaign granularities, matching the paper's comparison:

* :func:`plan_exhaustive` — every bit of every register at every cycle
  (the baseline of Table I);
* :func:`plan_inject_on_read` — one injection per bit of each live
  access window (value-level inject-on-read, the paper's "Live in
  values" baseline for Table III);
* :func:`plan_bec` — the pruned plan: one injection per non-masked
  equivalence class per epoch ("Live in bits").

Each has a generator twin (``iter_plan_*``) that builds runs as they
are consumed, so a capped plan (``islice(iter_plan_bec(...), n)``)
costs only its first *n* runs.  Group ids come from one monotonic
counter, so the capped prefix equals ``plan_bec(...)[:n]`` exactly.

:func:`run_campaign` executes a plan against the machine and classifies
each run against the golden trace.
"""

from collections import namedtuple

from repro.ir.liveness import compute_liveness
from repro.fi.accounting import iter_bit_instances
from repro.fi.machine import Injection, Machine
from repro.fi.trace import OUTCOME_OK, OUTCOME_TRAP, TRAP_DETECTED

PlannedRun = namedtuple("PlannedRun", ["injection", "pp", "rep", "epoch"])

#: Classification of one fault-injection run against the golden trace.
EFFECT_MASKED = "masked"          # identical trace
EFFECT_SDC = "sdc"                # silent data corruption (wrong output)
EFFECT_DETECTED = "detected"      # a hardening checker trapped the fault
EFFECT_TRAP = "trap"              # run trapped
EFFECT_TIMEOUT = "timeout"        # run did not terminate in budget
EFFECT_BENIGN = "benign-divergence"  # same outputs, different path

#: Every effect class, in reporting order.  ``effect_counts()`` returns
#: all of them (zero-defaulted) so reporting code can index any class
#: without guarding against missing keys.
EFFECT_CLASSES = (EFFECT_MASKED, EFFECT_SDC, EFFECT_DETECTED, EFFECT_TRAP,
                  EFFECT_TIMEOUT, EFFECT_BENIGN)


def iter_plan_exhaustive(function, trace, registers=None):
    """Every (cycle, register, bit) of the register file (Table I), in
    plan order, built as consumed."""
    registers = list(registers or function.registers())
    width = function.bit_width
    for cycle, pp in enumerate(trace.executed):
        for reg in registers:
            for bit in range(width):
                yield PlannedRun(Injection(cycle, reg, bit), pp, None, None)


def iter_plan_inject_on_read(function, trace, liveness=None):
    """One injection per bit of each dynamic live window, in plan
    order, built as consumed."""
    liveness = liveness or compute_liveness(function)
    width = function.bit_width
    for cycle, pp in enumerate(trace.executed):
        for reg in liveness.live_windows(pp):
            for bit in range(width):
                yield PlannedRun(Injection(cycle, reg, bit), pp, None, None)


def iter_plan_bec(function, trace, bec):
    """The BEC-pruned plan, in plan order: only class-leader instances
    are injected.  The trace is walked only as far as the runs taken,
    so ``islice(iter_plan_bec(...), n)`` costs the first *n* runs."""
    for instance in iter_bit_instances(function, trace, bec):
        if instance.emit:
            yield PlannedRun(
                Injection(instance.cycle, instance.reg, instance.bit),
                instance.pp, instance.rep, instance.epoch)


def plan_exhaustive(function, trace, registers=None):
    """:func:`iter_plan_exhaustive` as a list."""
    return list(iter_plan_exhaustive(function, trace, registers))


def plan_inject_on_read(function, trace, liveness=None):
    """:func:`iter_plan_inject_on_read` as a list."""
    return list(iter_plan_inject_on_read(function, trace, liveness))


def plan_bec(function, trace, bec):
    """:func:`iter_plan_bec` as a list."""
    return list(iter_plan_bec(function, trace, bec))


class Aggregates:
    """Incremental campaign aggregates — everything a
    :class:`CampaignResult` reports without touching per-run records.

    Updated once per record as runs retire (O(1) each), so aggregate
    queries never re-scan the run list and a streaming campaign needs
    no per-run retention at all.  The accumulated numbers are
    bit-identical to a scan of the materialized records because they
    are fed the same records in the same (plan) order.
    """

    __slots__ = ("n_runs", "counts", "vulnerable", "_distinct")

    def __init__(self):
        self.n_runs = 0
        self.counts = {}          # effect class -> run count
        self.vulnerable = 0       # runs whose trace differs from golden
        self._distinct = {}       # signature -> archived byte size

    def add(self, effect, signature, byte_size):
        self.n_runs += 1
        self.counts[effect] = self.counts.get(effect, 0) + 1
        if effect != EFFECT_MASKED:
            self.vulnerable += 1
        if signature not in self._distinct:
            self._distinct[signature] = byte_size

    def effect_counts(self):
        counts = dict.fromkeys(EFFECT_CLASSES, 0)
        counts.update(self.counts)
        return counts

    @property
    def distinct_traces(self):
        return len(self._distinct)

    def trace_sizes(self):
        return dict(self._distinct)

    @property
    def archived_bytes(self):
        return sum(self._distinct.values())

    @classmethod
    def restore(cls, counts, vulnerable, sizes, n_runs):
        """Rebuild an accumulator from archived aggregate numbers
        (the store's chunked payloads keep them in the meta row so a
        cached result needs no run scan)."""
        aggregates = cls()
        aggregates.n_runs = n_runs
        aggregates.counts = {effect: count
                             for effect, count in counts.items() if count}
        aggregates.vulnerable = vulnerable
        aggregates._distinct = dict(sizes)
        return aggregates


class CampaignResult:
    """Outcome of a campaign: per-run effects plus aggregate stats.

    A thin facade over two streaming products of the engine: aggregates
    come from an incrementally updated :class:`Aggregates` accumulator,
    and ``runs`` is whatever record sequence the caller supplies — an
    in-memory list (the default, and what :meth:`record` appends to), a
    disk-spool view (:class:`repro.fi.sink.SpooledRuns`) on streamed
    campaigns, or a chunk-reading store view on cached results.  Every
    consumer-facing accessor (``effect_counts()``, ``distinct_traces``,
    ``vulnerable_runs()``, ``archived_bytes``, iteration over ``runs``)
    behaves identically across the three, so downstream code cannot
    tell how the records are held.
    """

    #: True on results decoded from :mod:`repro.store` instead of
    #: being executed (the store's subclass overrides this).
    cached = False

    def __init__(self, golden, runs=None, aggregates=None):
        self.golden = golden
        #: (PlannedRun, effect, signature) per run — list or lazy view.
        self.runs = [] if runs is None else runs
        self.wall_time = 0.0
        self.pruned_runs = 0      # masked without simulation (liveness)
        self.vectorized = False   # lockstep core actually engaged
        self._aggregates = Aggregates() if aggregates is None \
            else aggregates

    def record(self, planned, effect, signature, byte_size):
        self.runs.append((planned, effect, signature))
        self._aggregates.add(effect, signature, byte_size)

    @property
    def distinct_traces(self):
        return self._aggregates.distinct_traces

    def trace_sizes(self):
        """``signature -> archived byte size`` for every
        distinguishable trace (the store serializes this)."""
        return self._aggregates.trace_sizes()

    @property
    def archived_bytes(self):
        """Bytes needed to archive one copy of each distinguishable
        trace (the paper's Table I disk-space column)."""
        return self._aggregates.archived_bytes

    def effect_counts(self):
        """Per-class run counts; every class of :data:`EFFECT_CLASSES`
        is present (zero when no run landed in it).  O(classes) — the
        counts accumulate as runs are recorded, so reporting paths that
        call this repeatedly never re-scan the run list."""
        return self._aggregates.effect_counts()

    def vulnerable_runs(self):
        """Runs whose trace differs from the golden trace (O(1))."""
        return self._aggregates.vulnerable


def classify_effect(golden, injected):
    """Classify an injected trace against the golden one."""
    if injected.same_as(golden):
        return EFFECT_MASKED
    if injected.outcome != OUTCOME_OK:
        if injected.outcome == OUTCOME_TRAP:
            if injected.trap_kind == TRAP_DETECTED:
                return EFFECT_DETECTED
            return EFFECT_TRAP
        return EFFECT_TIMEOUT
    if injected.architectural_key() == golden.architectural_key():
        return EFFECT_BENIGN
    return EFFECT_SDC


def run_campaign(machine, plan, regs=None, golden=None, max_cycles=None,
                 workers=1, checkpoint_interval=None, progress=None,
                 prune=None, batch_lanes=None, sink=None, chunk_size=None,
                 chaos=None):
    """Execute every planned run; returns a :class:`CampaignResult`.

    ``machine`` must wrap the same function the plan was made for; the
    golden trace is recomputed unless supplied.  Thin wrapper over
    :class:`repro.fi.engine.CampaignEngine` — ``workers``,
    ``checkpoint_interval``, ``prune`` and (on a ``core="batched"``
    machine) lockstep vectorization opt into accelerated execution
    with bit-identical aggregates; ``sink``/``chunk_size`` stream the
    record chunks to a :class:`repro.fi.sink.RunSink` as they retire;
    ``chaos`` threads a :class:`repro.fi.chaos.ChaosPolicy` through the
    pipeline for deterministic self-fault-injection.
    """
    from repro.fi.engine import CampaignEngine

    engine = CampaignEngine(machine, plan, regs=regs, golden=golden,
                            max_cycles=max_cycles)
    return engine.run(workers=workers,
                      checkpoint_interval=checkpoint_interval,
                      progress=progress, prune=prune,
                      batch_lanes=batch_lanes, sink=sink,
                      chunk_size=chunk_size, chaos=chaos)


def golden_run(function, regs=None, memory_image=None, memory_size=1 << 16,
               max_cycles=None):
    """Convenience: build a machine and produce the golden trace."""
    machine = Machine(function, memory_size=memory_size,
                      memory_image=memory_image)
    kwargs = {}
    if max_cycles is not None:
        kwargs["max_cycles"] = max_cycles
    return machine, machine.run(regs=regs, **kwargs)
