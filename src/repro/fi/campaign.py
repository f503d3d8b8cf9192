"""Fault-injection campaign planners and runners.

Three campaign granularities, matching the paper's comparison:

* :func:`plan_exhaustive` — every bit of every register at every cycle
  (the baseline of Table I);
* :func:`plan_inject_on_read` — one injection per bit of each live
  access window (value-level inject-on-read, the paper's "Live in
  values" baseline for Table III);
* :func:`plan_bec` — the pruned plan: one injection per non-masked
  equivalence class per epoch ("Live in bits").

Each returns a :class:`Plan`: a read-only sequence of
:class:`PlannedRun` rows that builds a row only when it is read.  An
exhaustive plan is index arithmetic over (cycle, register, bit) on the
golden path and stores nothing, so slicing a few thousand runs out of
millions costs only the kept runs.  The other plans keep compact int
columns, a few bytes per run; a slice of one copies its kept rows, so
it does not hold on to the plan it came from.  :meth:`Plan.tuples`
reads rows as plain tuples straight from the source, which is what
the store's content key hashes.

The BEC plan, the validation plan and the sampling population all come
from :func:`plan_walk`: one :class:`repro.fi.accounting.BitWalk` that
appends each cycle's rows to the columns from a compiled template.
``max_runs`` caps a plan at its first runs: the BEC planner then walks
the trace only to the end of the cycle that reaches the cap, the
inject-on-read planner no further than the prefix, and group ids come
from one monotonic counter, so the capped plan equals
``plan[:max_runs]``.

:class:`repro.fi.engine.CampaignEngine` executes a plan against the
machine; :func:`classify_effect` sorts each injected run against the
golden trace, and :class:`CampaignResult` holds the aggregate
outcome.
"""

import itertools
from array import array
from collections import namedtuple

from repro.ir.liveness import compute_liveness
from repro.fi.accounting import BitWalk
# ``iter_bit_instances`` stays bound here: perfbench/layers.py patches it.
from repro.fi.accounting import iter_bit_instances  # noqa: F401
from repro.fi.machine import Injection
from repro.fi.trace import OUTCOME_OK, OUTCOME_TRAP, TRAP_DETECTED

PlannedRun = namedtuple("PlannedRun", ["injection", "pp", "rep", "epoch"])

#: Rows a :class:`Plan` builds per step when it is iterated.
ROWS_PER_STEP = 4096


class Plan:
    """A fault plan: a read-only sequence of :class:`PlannedRun` rows.

    A plan is a *source* of rows plus the ``range`` of source indices
    it covers.  ``plan[i]`` builds one row, ``plan[a:b:c]`` is another
    plan, ``rows(start, stop)`` builds the rows of a span, and
    iteration builds them :data:`ROWS_PER_STEP` at a time.  Two plans
    (or a plan and a list or tuple) are equal when their rows are.
    """

    __slots__ = ("_source", "_indices")

    def __init__(self, source, indices=None):
        self._source = source
        self._indices = range(len(source)) if indices is None else indices

    def __len__(self):
        return len(self._indices)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._source.take(self._indices[key])
        return self._source.row(self._indices[key])

    def rows(self, start, stop):
        """The :class:`PlannedRun` rows of ``plan[start:stop]``."""
        return [self._source.row(index)
                for index in self._indices[start:stop]]

    def tuples(self, start, stop):
        """The rows of ``plan[start:stop]`` as plain ``(cycle, reg, bit,
        pp, rep, epoch)`` tuples, read from the source with no
        :class:`PlannedRun` per row (the store's key hashes these)."""
        return self._source.tuples(self._indices[start:stop])

    def __iter__(self):
        for start in range(0, len(self), ROWS_PER_STEP):
            yield from self.rows(start, start + ROWS_PER_STEP)

    def __eq__(self, other):
        if not isinstance(other, (Plan, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other))

    __hash__ = None

    def __repr__(self):
        return f"<Plan of {len(self)} runs>"


class _Exhaustive:
    """Every (cycle, register, bit) of a trace, by index arithmetic:
    index ``(cycle * len(registers) + register) * width + bit``."""

    def __init__(self, executed, registers, width):
        self.executed = executed
        self.registers = registers
        self.width = width
        self.per_cycle = len(registers) * width

    def __len__(self):
        return len(self.executed) * self.per_cycle

    def row(self, index):
        cycle, rest = divmod(index, self.per_cycle)
        reg, bit = divmod(rest, self.width)
        return PlannedRun(Injection(cycle, self.registers[reg], bit),
                          self.executed[cycle], None, None)

    def tuples(self, indices):
        registers, width, executed = (self.registers, self.width,
                                      self.executed)
        return [(cycle, registers[rest // width], rest % width,
                 executed[cycle], None, None)
                for cycle, rest in map(divmod, indices,
                                       itertools.repeat(self.per_cycle))]

    def take(self, indices):
        return Plan(self, indices)


def _as_slice(indices):
    """The slice that cuts a non-empty range *indices* out of a column
    (a descending range may stop at -1, which slices as "last")."""
    return slice(indices.start, None if indices.stop < 0 else indices.stop,
                 indices.step)


class _Columns:
    """Rows as int columns: cycle, pp, register (an index into
    ``names``), bit and, when *ranked*, rep and epoch (-1 for a row
    whose epoch is ``None``).  Unranked rows carry ``None`` for both."""

    def __init__(self, names=(), ranked=True):
        self.names = names
        self.cycle = array("i")
        self.pp = array("i")
        self.reg = array("H")
        self.bit = array("B")
        self.rep = array("i") if ranked else None
        self.epoch = array("i") if ranked else None

    def __len__(self):
        return len(self.cycle)

    def row(self, index):
        rep = epoch = None
        if self.rep is not None:
            rep = self.rep[index]
            epoch = self.epoch[index]
            if epoch < 0:
                epoch = None
        return PlannedRun(
            Injection(self.cycle[index], self.names[self.reg[index]],
                      self.bit[index]),
            self.pp[index], rep, epoch)

    def tuples(self, indices):
        if not indices:
            return []
        key = _as_slice(indices)
        regs = map(self.names.__getitem__, self.reg[key])
        if self.rep is None:
            reps = epochs = itertools.repeat(None)
        else:
            reps = self.rep[key]
            epochs = self.epoch[key]
            if min(epochs) < 0:
                epochs = [None if epoch < 0 else epoch for epoch in epochs]
        return list(zip(self.cycle[key], regs, self.bit[key], self.pp[key],
                        reps, epochs))

    def take(self, indices):
        """The rows at *indices* (a range) as a plan of their own."""
        taken = _Columns(self.names, self.rep is not None)
        if indices:
            key = _as_slice(indices)
            for name in ("cycle", "pp", "reg", "bit", "rep", "epoch"):
                column = getattr(self, name)
                if column is not None:
                    setattr(taken, name, column[key])
        return Plan(taken)


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


def plan_exhaustive(function, trace, registers=None):
    """Every (cycle, register, bit) of the register file (Table I), in
    that order; the plan stores nothing."""
    registers = tuple(registers or function.registers())
    return Plan(_Exhaustive(trace.executed, registers, function.bit_width))


def plan_inject_on_read(function, trace, liveness=None, max_runs=None):
    """One injection per bit of each dynamic live window, in plan
    order; with *max_runs*, only the first that many."""
    liveness = liveness or compute_liveness(function)
    width = function.bit_width
    bits = range(width)
    columns = _Columns(ranked=False)
    registers = {}      # name -> column index
    windows = {}        # pp -> register indices of its live windows
    for cycle, pp in enumerate(trace.executed):
        if max_runs is not None and len(columns) >= max_runs:
            break
        regs = windows.get(pp)
        if regs is None:
            regs = windows[pp] = [registers.setdefault(reg, len(registers))
                                  for reg in liveness.live_windows(pp)]
        for reg in regs:
            columns.cycle.extend(itertools.repeat(cycle, width))
            columns.pp.extend(itertools.repeat(pp, width))
            columns.reg.extend(itertools.repeat(reg, width))
            columns.bit.extend(bits)
    columns.names = tuple(registers)
    plan = Plan(columns)
    return plan if max_runs is None else plan[:max_runs]


def plan_walk(function, executed, bec, include_killed=False,
              emitted_only=False, max_runs=None):
    """One row per window-bit instance of the walk over the program
    points *executed* (:class:`repro.fi.accounting.BitWalk`), rep and
    epoch included (epoch ``None`` for a masked row), in walk order;
    with *emitted_only* only the instances that open a group.  With
    *max_runs* the walk stops at the end of the cycle that reaches that
    many rows."""
    columns = _Columns()
    BitWalk(function, bec, include_killed=include_killed,
            emitted_only=emitted_only).fill(columns, executed, max_runs)
    return Plan(columns)


def plan_bec(function, trace, bec, max_runs=None):
    """The BEC-pruned plan, in plan order: only class-leader instances
    are injected.  With *max_runs* the trace is walked only as far as
    the cycle that reaches the first that many runs."""
    return plan_walk(function, trace.executed, bec, emitted_only=True,
                     max_runs=max_runs)


#: Mode -> planner over (function, golden trace, BEC analysis,
#: max_runs); ``max_runs=None`` plans every run.
PLANNERS = {
    "bec": plan_bec,
    "ior": lambda function, golden, bec, max_runs=None: plan_inject_on_read(
        function, golden, liveness=bec.liveness, max_runs=max_runs),
    "exhaustive": lambda function, golden, bec, max_runs=None:
        plan_exhaustive(function, golden)[:max_runs],
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
