"""Empirical validation of the BEC analysis (paper §V, Table II).

For every dynamic window-bit instance of a golden trace, a fault is
injected and the resulting execution trace recorded.  The BEC claims are
then checked:

* **masked claim** — a site in ``[s0]`` must reproduce the golden trace
  exactly (otherwise the analysis is *unsound*);
* **equivalence claim** — all member instances of one equivalence class
  within one epoch must produce identical traces (otherwise *unsound*);
* **precision** — instances of *different* classes that nevertheless
  produce identical traces are *sound but imprecise* (expected, e.g.
  when dynamic information such as inputs is unavailable statically).

Validation is an ordinary campaign: :func:`validation_plan` walks the
instances into a plan (one :class:`repro.fi.accounting.BitWalk` with
killed windows included, cut at the cycle limit), the
:class:`repro.fi.engine.CampaignEngine` executes it (snapshot resume,
golden reconvergence, whichever core the machine has), and a streaming
:class:`ValidationSink` checks the claims as the plan-ordered records
retire.

The paper reports zero unsound cases; the test suite asserts the same
for every program it validates.
"""

from collections import namedtuple

# ``iter_bit_instances`` stays bound here: perfbench/layers.py patches it.
from repro.fi.accounting import iter_bit_instances  # noqa: F401
from repro.fi.campaign import plan_walk
from repro.fi.engine import CampaignEngine
from repro.fi.sink import RunSink

ValidationReport = namedtuple("ValidationReport", [
    "instances",            # total window-bit instances validated
    "masked_checked",       # instances claimed masked
    "unsound_masked",       # masked claims contradicted by injection
    "equivalence_groups",   # (class, epoch) groups with >= 2 members
    "unsound_equivalences", # groups whose members' traces differ
    "sound_precise_pairs",  # same class+epoch, same trace
    "imprecise_pairs",      # different class, same trace (within window)
    "runs",                 # fault-injection runs executed
])


class ValidationSink(RunSink):
    """Checks the BEC claims on a validation campaign's record stream.

    Each plan entry carries its instance's ``pp``, class (``rep``) and
    group id (``epoch``).  Per equivalence group only the first
    signature, the member count and an unsound flag are kept.  Imprecise
    pairs are counted per ``(cycle, pp, reg)`` window; records arrive in
    non-decreasing cycle order, so a cycle's windows are dropped as soon
    as the stream moves past it.  :attr:`report` holds the
    :class:`ValidationReport` after ``finish``.
    """

    def __init__(self):
        self.report = None
        self._golden_signature = None
        self._groups = {}           # (rep, epoch) -> [first sig, n, unsound]
        self._cycle = None
        self._windows = {}          # (pp, reg, sig) -> [n, {rep: n}]
        self._runs = 0
        self._masked_checked = 0
        self._unsound_masked = 0
        self._imprecise_pairs = 0

    def begin(self, meta):
        self._golden_signature = meta["golden"].signature()

    def consume(self, chunk):
        groups = self._groups
        for planned, _, signature, _ in chunk:
            self._runs += 1
            injection = planned.injection
            if injection.cycle != self._cycle:
                self._cycle = injection.cycle
                self._windows = {}
            rep = planned.rep
            # Earlier instances of this window with the same trace but
            # another class are imprecise pairs.
            window = self._windows.setdefault(
                (planned.pp, injection.reg, signature), [0, {}])
            self._imprecise_pairs += window[0] - window[1].get(rep, 0)
            window[0] += 1
            window[1][rep] = window[1].get(rep, 0) + 1
            if rep == 0:
                self._masked_checked += 1
                if signature != self._golden_signature:
                    self._unsound_masked += 1
                continue
            group = groups.get((rep, planned.epoch))
            if group is None:
                groups[(rep, planned.epoch)] = [signature, 1, False]
            else:
                group[1] += 1
                if signature != group[0]:
                    group[2] = True

    def finish(self, summary):
        equivalence_groups = 0
        unsound_equivalences = 0
        sound_precise_pairs = 0
        for _, members, unsound in self._groups.values():
            if members < 2:
                continue
            equivalence_groups += 1
            if unsound:
                unsound_equivalences += 1
            else:
                sound_precise_pairs += members - 1
        self.report = ValidationReport(
            instances=self._runs,
            masked_checked=self._masked_checked,
            unsound_masked=self._unsound_masked,
            equivalence_groups=equivalence_groups,
            unsound_equivalences=unsound_equivalences,
            sound_precise_pairs=sound_precise_pairs,
            imprecise_pairs=self._imprecise_pairs,
            runs=self._runs,
        )


def validation_plan(function, golden, bec, cycle_limit=None):
    """A :class:`repro.fi.campaign.Plan` of one row per window-bit
    instance of *golden* (killed windows included), in non-decreasing
    cycle order; with ``cycle_limit`` only the instances of the first
    N cycles, and the walk stops there."""
    return plan_walk(function, golden.executed[:cycle_limit], bec,
                     include_killed=True)


def validate_bec(function, machine, bec, regs=None, golden=None,
                 cycle_limit=None):
    """Exhaustively validate BEC claims on one function.

    Every instance of :func:`validation_plan` becomes one planned
    injection.  ``cycle_limit`` optionally restricts validation to the
    instances of the first N cycles (keeps big traces tractable; the
    injected runs still execute to their end).  The plan runs on
    *machine*'s own core with snapshot resume.  Returns a
    :class:`ValidationReport`.
    """
    if golden is None:
        golden = machine.run(regs=regs)
    plan = validation_plan(function, golden, bec, cycle_limit)
    sink = ValidationSink()
    CampaignEngine(machine, plan, regs=regs, golden=golden).run(sink=sink)
    return sink.report
