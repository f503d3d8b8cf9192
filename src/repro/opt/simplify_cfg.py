"""Control-flow graph cleanup.

Three normalizations that keep the CFG small after other passes have
rewritten branches:

* **unreachable-block removal** — blocks with no path from the entry;
* **jump threading** — branches to a block that contains nothing but
  ``j L`` are retargeted to ``L`` directly;
* **redundant-jump removal** — a ``j`` to the block that immediately
  follows in layout becomes a fall-through.

All three preserve the executed instruction sequence of every run except
for removed ``j`` instructions, which the simulator counts as cycles —
so this pass (like LLVM's simplifycfg) slightly *shrinks* the temporal
fault surface too.
"""

from repro.ir.instructions import Opcode
from repro.opt.rewrite import copy_structure, drop_unreachable


def simplify_cfg(function):
    """Return a (possibly new) finalized function with a cleaned CFG."""
    current = _thread_jumps(function)
    current = _drop_redundant_jumps(current)
    current = drop_unreachable(current)
    return current


def _jump_only_target(block):
    """Label this block unconditionally forwards to, or None."""
    if len(block.instructions) == 1 and \
            block.instructions[0].opcode is Opcode.J:
        return block.instructions[0].label
    return None


def _thread_jumps(function):
    """Retarget every branch through chains of jump-only blocks."""
    forward = {}
    for block in function.blocks:
        target = _jump_only_target(block)
        if target is not None and target != block.label:
            forward[block.label] = target

    def resolve(label):
        seen = set()
        while label in forward and label not in seen:
            seen.add(label)
            label = forward[label]
        return label

    changed = False
    for block in function.blocks:
        for instruction in block.instructions:
            if instruction.label is None:
                continue
            resolved = resolve(instruction.label)
            if resolved != instruction.label:
                changed = True
    if not changed:
        return function
    rebuilt = copy_structure(function)
    for block in rebuilt.blocks:
        for instruction in block.instructions:
            if instruction.label is not None:
                instruction.label = resolve(instruction.label)
    return rebuilt.finalize()


def _drop_redundant_jumps(function):
    """Delete ``j`` instructions that target the layout successor."""
    redundant = set()
    for index, block in enumerate(function.blocks[:-1]):
        terminator = block.terminator
        if terminator is not None and terminator.opcode is Opcode.J and \
                terminator.label == function.blocks[index + 1].label:
            redundant.add(terminator.pp)
    if not redundant:
        return function
    rebuilt = copy_structure(
        function)   # copy first so pp lookup stays valid on the original
    for block, original in zip(rebuilt.blocks, function.blocks):
        keep = [copy for copy, instruction
                in zip(block.instructions, original.instructions)
                if instruction.pp not in redundant]
        block.instructions = keep
    rebuilt.compact()
    return rebuilt.finalize()
