"""Constant folding and branch folding driven by the bit-value analysis.

The global abstract bit-value analysis (paper §IV-A) already computes,
for every program point, which register bits are compile-time constants.
This pass turns that information into code improvements, exactly the way
Wegman–Zadeck SCCP consumes its lattice:

* an ALU instruction whose result is fully known becomes ``li``;
* a conditional branch whose outcome is decided becomes ``j`` (taken) or
  disappears (fall-through);
* blocks the analysis proves unreachable are deleted.

Folding is what the paper relies on LLVM to have done *before* BEC runs
("we deliberately locate our analysis at a late stage ... to benefit from
target-specific strength reduction optimizations"); reproducing it lets
the ablation benches quantify how much of BEC's precision comes from the
code being pre-simplified.
"""

from repro.bitvalue.analysis import compute_bit_values
from repro.bitvalue.transfer import abstract_branch
from repro.ir.instructions import Format, Instruction, Opcode
from repro.ir.registers import ZERO
from repro.bitvalue.lattice import BitVector
from repro.opt.rewrite import drop_unreachable, rewrite_instructions

#: Formats whose only effect is writing a register: safe to replace with li.
_PURE_FORMATS = (Format.RRR, Format.RRI, Format.RR, Format.RI)


def fold_constants(function):
    """Return a (possibly new) finalized function with constants folded.

    One run performs one round of folding: ALU results, decided branches,
    then unreachable-block removal.  Callers that want a fix point should
    iterate (the :mod:`repro.opt.pipeline` level-2 driver does).
    """
    values = compute_bit_values(function)
    width = function.bit_width

    def transform(instruction):
        if not values.is_executable(instruction.pp):
            return None         # handled by the unreachable sweep below
        if instruction.is_conditional_branch:
            return _fold_branch(instruction, values, width)
        if instruction.format not in _PURE_FORMATS:
            return None
        if instruction.opcode is Opcode.LI:
            return None
        written = instruction.data_writes()
        if not written:
            return None
        result = values.after(instruction.pp, written[0])
        if result.value is None:
            return None
        return [Instruction(Opcode.LI, rd=written[0], imm=result.value)]

    folded, _ = rewrite_instructions(function, transform)
    return drop_unreachable(folded)


def _fold_branch(instruction, values, width):
    """Replace a decided conditional branch with ``j``/nothing."""

    def read(reg):
        if reg == ZERO:
            return BitVector.const(width, 0)
        return values.before(instruction.pp, reg)

    a = read(instruction.rs1)
    if instruction.format is Format.BRANCHZ:
        b = BitVector.const(width, 0)
    else:
        b = read(instruction.rs2)
    decision = abstract_branch(instruction.opcode, a, b)
    if decision is None:
        return None
    if decision:
        return [Instruction(Opcode.J, label=instruction.label)]
    return []                   # fall through to the layout successor
