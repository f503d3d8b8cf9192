"""Liveness pre-classification of fault-injection plans.

An exhaustive register-file sweep (:func:`repro.fi.campaign.plan_exhaustive`)
injects every bit of every register at every cycle, but along a *known*
golden path most of those sites are dead on arrival: a flip in register
``r`` after cycle ``t`` whose next touch of ``r`` on the golden path is
a write that does not also read ``r`` is overwritten before any
instruction can observe it.  Such a run re-executes the golden trace
bit for bit, so it can be classified ``masked`` without a simulator
run at all.

The argument is exact, not heuristic: until the overwrite, no executed
instruction reads ``r``, so every computed value, branch decision,
memory effect and output equals the golden run's; the overwrite then
replaces the whole register with a value computed from uncorrupted
inputs, restoring the golden machine state.  (A register never touched
again is the degenerate case — final register state is not part of a
trace.)  This is the dynamic, trace-level counterpart of the paper's
``kill(p)`` masking rule, applied per *cycle* instead of per window,
and it is independent of which bit was flipped.

``prune="liveness"`` on the campaign engine is opt-in.  The engine asks
the pruner about each row of a chunk as that chunk runs, in whichever
worker runs it, and hands the core only the rows it cannot prove
masked; the parity suite asserts that pruned campaigns produce
bit-identical aggregates to full simulation.
"""

import bisect

from repro.errors import SimulationError
from repro.fi.machine import Injection
from repro.ir.registers import ZERO


class LivenessPruner:
    """Answers "is this injection provably masked on the golden path?".

    Built from one walk of the golden trace: for every register, the
    sorted cycles at which the golden path *reads* it and at which it
    *overwrites* it (writes without reading).  A query is then two
    binary searches.
    """

    def __init__(self, function, golden):
        self.width = function.bit_width
        reads = {}
        overwrites = {}
        instructions = function.instructions
        for cycle, pp in enumerate(golden.executed):
            instruction = instructions[pp]
            read = instruction.data_reads()
            for reg in read:
                reads.setdefault(reg, []).append(cycle)
            for reg in instruction.data_writes():
                if reg not in read:
                    overwrites.setdefault(reg, []).append(cycle)
        self._reads = reads
        self._overwrites = overwrites

    def provably_masked(self, injection):
        """True iff *injection* (a single register upset) cannot
        influence the trace: the golden path's next touch of the
        register after the flip fires is an overwrite (or there is no
        next touch).  Sites are validated like the simulator validates
        them, so bad plans still fail loudly when pruning."""
        if type(injection) is not Injection:
            return False
        if not 0 <= injection.bit < self.width:
            raise SimulationError(
                f"injection bit {injection.bit} is outside the "
                f"{self.width}-bit register {injection.reg!r}")
        if injection.reg == ZERO:
            raise SimulationError("the zero register has no fault sites")
        # The flip fires after the instruction at `cycle` completes, so
        # the first access that can observe it executes at cycle + 1.
        after = injection.cycle + 1
        reads = self._reads.get(injection.reg)
        if not reads:
            return True
        next_read_at = bisect.bisect_left(reads, after)
        if next_read_at == len(reads):
            return True
        overwrites = self._overwrites.get(injection.reg)
        if not overwrites:
            return False
        next_overwrite_at = bisect.bisect_left(overwrites, after)
        if next_overwrite_at == len(overwrites):
            return False
        return overwrites[next_overwrite_at] < reads[next_read_at]
