"""Definition-use chains over a non-SSA CFG.

Implements the paper's ``use(p, v)`` relation (Section II): the set of
program points ``q`` that *read* register ``v`` and are reachable from
``p`` along some CFG path with no intervening write of ``v``.  A fault
landing in ``v`` anywhere in the window that opens after ``p`` is first
observed by exactly these reads, which is why the BEC inter-instruction
coalescing rule quantifies over them.

Sets of program points are represented as Python-int bitmasks, which keeps
the backward fix-point cheap even for thousands of program points.
"""

from collections import deque


class UseChains:
    """Query object for ``use(p, v)``."""

    def __init__(self, function, after_masks):
        self.function = function
        self._after_masks = after_masks   # dict: (pp, reg) -> int bitmask

    def use(self, pp, reg):
        """Program points reading *reg* reachable from *pp* without an
        intervening write (ascending tuple)."""
        bits = self._after_masks.get((pp, reg), 0)
        return _mask_to_tuple(bits)


def _mask_to_tuple(bits):
    result = []
    index = 0
    while bits:
        trailing = (bits & -bits).bit_length() - 1
        index = trailing
        result.append(index)
        bits &= bits - 1
    return tuple(result)


def compute_use_chains(function):
    """Compute :class:`UseChains` for all registers of *function*.

    ``use(p, v)`` is materialized for every access point ``p`` of ``v``
    (read or write); other program points are not stored.
    """
    regs = list(function.registers())
    blocks = function.blocks

    # state[label][reg]: bitmask of upward-exposed reads at block entry.
    state_in = {b.label: {r: 0 for r in regs} for b in blocks}

    def block_transfer(block, out_state):
        """Propagate *out_state* backward through *block*; returns in-state."""
        current = dict(out_state)
        for instruction in reversed(block.instructions):
            for reg in instruction.data_writes():
                current[reg] = 0
            for reg in instruction.data_reads():
                current[reg] = current.get(reg, 0) | (1 << instruction.pp)
        return current

    worklist = deque(reversed(blocks))
    queued = {b.label for b in blocks}
    while worklist:
        block = worklist.popleft()
        queued.discard(block.label)
        out_state = {r: 0 for r in regs}
        for successor in block.succs:
            for reg in regs:
                out_state[reg] |= state_in[successor.label][reg]
        new_in = block_transfer(block, out_state)
        if new_in != state_in[block.label]:
            state_in[block.label] = new_in
            for predecessor in block.preds:
                if predecessor.label not in queued:
                    worklist.append(predecessor)
                    queued.add(predecessor.label)

    # Final pass: record the after-state at every access point.
    after_masks = {}
    for block in blocks:
        out_state = {r: 0 for r in regs}
        for successor in block.succs:
            for reg in regs:
                out_state[reg] |= state_in[successor.label][reg]
        current = dict(out_state)
        for instruction in reversed(block.instructions):
            for reg in instruction.data_accesses():
                after_masks[(instruction.pp, reg)] = current.get(reg, 0)
            for reg in instruction.data_writes():
                current[reg] = 0
            for reg in instruction.data_reads():
                current[reg] = current.get(reg, 0) | (1 << instruction.pp)
    return UseChains(function, after_masks)
