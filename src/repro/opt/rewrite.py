"""Shared instruction-rewriting scaffolding for the optimization passes.

Most passes follow the same shape: walk the finalized function, decide a
local replacement per instruction, and rebuild a fresh finalized
function.  :func:`rewrite_instructions` factors that shape out so each
pass is just its rewrite rule.
"""

from repro.ir.function import Function
from repro.ir.instructions import Instruction, Opcode


def li(rd, imm):
    """The one-instruction replacement ``li rd, imm``."""
    return [Instruction(Opcode.LI, rd=rd, imm=imm)]


def rewrite_instructions(function, transform):
    """Rebuild *function*, passing every instruction through *transform*.

    ``transform(instruction)`` returns either ``None`` (keep the
    instruction unchanged), or a list of replacement instructions (an
    empty list deletes it).  Returns ``(new_function, changed)``; when
    nothing changed the original function object is returned untouched.
    """
    replacements = {}
    for instruction in function.instructions:
        replacement = transform(instruction)
        if replacement is not None:
            replacements[instruction.pp] = replacement
    if not replacements:
        return function, False

    rebuilt = Function(function.name, bit_width=function.bit_width,
                       params=function.params)
    for block in function.blocks:
        new_block = rebuilt.new_block(block.label)
        for instruction in block.instructions:
            replacement = replacements.get(instruction.pp)
            if replacement is None:
                new_block.append(instruction.copy())
            else:
                for new_instruction in replacement:
                    new_block.append(new_instruction)
    rebuilt.compact()
    return rebuilt.finalize(), True


def copy_structure(function, keep=None):
    """Deep-copy *function*, keeping only blocks for which ``keep(block)``
    is true (default: all).  The copy is compacted and finalized."""
    rebuilt = Function(function.name, bit_width=function.bit_width,
                       params=function.params)
    for block in function.blocks:
        if keep is not None and not keep(block):
            continue
        new_block = rebuilt.new_block(block.label)
        for instruction in block.instructions:
            new_block.append(instruction.copy())
    rebuilt.compact()
    return rebuilt.finalize()


def drop_unreachable(function):
    """*function* without the blocks unreachable from its entry (the
    function itself when every block is reachable).

    Safe because a reachable block can only fall through into a block
    that is itself reachable — removal never breaks layout fall-through.
    """
    reachable = set()
    stack = [function.entry]
    while stack:
        block = stack.pop()
        if block.label in reachable:
            continue
        reachable.add(block.label)
        stack.extend(block.succs)
    if len(reachable) == len(function.blocks):
        return function
    return copy_structure(function,
                          keep=lambda block: block.label in reachable)
