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

:class:`repro.fi.engine.CampaignEngine` executes a plan against the
machine; :func:`classify_effect` sorts each injected run against the
golden trace, and :class:`CampaignResult` holds the aggregate
outcome.
"""

from collections import namedtuple

from repro.ir.liveness import compute_liveness
from repro.fi.accounting import iter_bit_instances
from repro.fi.machine import Injection
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


def plan_inject_on_read(function, trace):
    """:func:`iter_plan_inject_on_read` as a list."""
    return list(iter_plan_inject_on_read(function, trace))


def plan_bec(function, trace, bec):
    """:func:`iter_plan_bec` as a list."""
    return list(iter_plan_bec(function, trace, bec))


#: Mode -> lazy planner over (function, golden trace, BEC analysis).
PLANNERS = {
    "bec": iter_plan_bec,
    "ior": lambda function, golden, bec: iter_plan_inject_on_read(
        function, golden, liveness=bec.liveness),
    "exhaustive": lambda function, golden, bec: iter_plan_exhaustive(
        function, golden),
}


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
    """Outcome of a campaign: aggregate stats, no per-run records.

    A thin facade over the :class:`Aggregates` accumulator the engine
    feeds as runs retire (or the store restores from a meta row), so
    every accessor — ``n_runs``, ``effect_counts()``,
    ``distinct_traces``, ``vulnerable_runs()``, ``archived_bytes`` — is
    O(1) in the run count and reads the same for an executed and a
    cached result.  Per-run records reach a caller only through a
    :class:`repro.fi.sink.RunSink` it attaches to the engine (or to
    :meth:`repro.store.runner.CachingRunner.run`, which replays a
    hit's archive into it).
    """

    def __init__(self, golden, aggregates):
        self.golden = golden
        #: True on results decoded from :mod:`repro.store` instead of
        #: being executed (``golden`` is then ``None``: the golden
        #: trace is not archived, and ``wall_time`` is the original
        #: execution's).
        self.cached = False
        self.wall_time = 0.0
        self.pruned_runs = 0      # masked without simulation (liveness)
        self.vectorized = False   # lockstep core actually engaged
        self._aggregates = aggregates

    @property
    def n_runs(self):
        """Runs in the campaign, pruned ones included."""
        return self._aggregates.n_runs

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
