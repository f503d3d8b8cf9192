"""Value-level liveness analysis.

Computes, for every program point ``p``, the set of registers that are
live *after* ``p`` (will be read again before being overwritten on some
CFG path).  This provides the paper's ``kill(p)`` set: a register accessed
at ``p`` that is not live after ``p`` is killed there, and any fault
arriving in it after ``p`` is masked.

Classic backward may-analysis over basic blocks, then a per-instruction
backward scan inside each block.
"""

from collections import deque


class LivenessInfo:
    """Result object; query with program points from a finalized function."""

    def __init__(self, function, live_after, live_before,
                 block_live_in, block_live_out):
        self.function = function
        self._live_after = live_after
        self._live_before = live_before
        self.block_live_in = block_live_in
        self.block_live_out = block_live_out

    def live_after(self, pp):
        """Registers live immediately after program point *pp*."""
        return self._live_after[pp]

    def live_before(self, pp):
        """Registers live immediately before program point *pp*."""
        return self._live_before[pp]

    def kill(self, pp):
        """Registers accessed at *pp* that are not live after it
        (the paper's ``kill(p)``)."""
        instruction = self.function.instruction_at(pp)
        live = self._live_after[pp]
        return frozenset(
            reg for reg in instruction.data_accesses() if reg not in live)

    def live_windows(self, pp):
        """Registers accessed at *pp* that are live after it.

        Each such (pp, reg) pair is a *window*: a fault-site region
        stretching from just after *pp* to the next write of ``reg``.
        """
        instruction = self.function.instruction_at(pp)
        live = self._live_after[pp]
        return tuple(
            reg for reg in instruction.data_accesses() if reg in live)


def compute_liveness(function):
    """Run liveness on a finalized *function*; returns :class:`LivenessInfo`."""
    blocks = function.blocks
    use = {}
    defs = {}
    for block in blocks:
        used = set()
        defined = set()
        for instruction in block.instructions:
            for reg in instruction.data_reads():
                if reg not in defined:
                    used.add(reg)
            for reg in instruction.data_writes():
                defined.add(reg)
        use[block.label] = used
        defs[block.label] = defined

    live_in = {block.label: set() for block in blocks}
    live_out = {block.label: set() for block in blocks}
    worklist = deque(reversed(blocks))
    queued = set(block.label for block in blocks)
    while worklist:
        block = worklist.popleft()
        queued.discard(block.label)
        out = set()
        for successor in block.succs:
            out |= live_in[successor.label]
        new_in = use[block.label] | (out - defs[block.label])
        live_out[block.label] = out
        if new_in != live_in[block.label]:
            live_in[block.label] = new_in
            for predecessor in block.preds:
                if predecessor.label not in queued:
                    worklist.append(predecessor)
                    queued.add(predecessor.label)

    total = len(function.instructions)
    live_after = [frozenset()] * total
    live_before = [frozenset()] * total
    for block in blocks:
        current = set(live_out[block.label])
        for instruction in reversed(block.instructions):
            live_after[instruction.pp] = frozenset(current)
            current -= set(instruction.data_writes())
            current |= set(instruction.data_reads())
            live_before[instruction.pp] = frozenset(current)

    return LivenessInfo(function, live_after, live_before,
                        {k: frozenset(v) for k, v in live_in.items()},
                        {k: frozenset(v) for k, v in live_out.items()})
