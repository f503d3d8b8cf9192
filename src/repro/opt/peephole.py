"""Local peephole simplifications.

Purely syntactic rewrites that need no data-flow information: algebraic
identities with the zero register or trivial immediates, self-operand
idioms, and degenerate branches.  These are the rewrites every real
backend performs before the paper's analysis would see the code.
"""

from repro.ir.concrete import mask as width_mask
from repro.ir.instructions import Instruction, Opcode
from repro.ir.registers import ZERO
from repro.opt.rewrite import li, rewrite_instructions

#: Branches comparing a register to itself that are always taken.
_SELF_TAKEN = {Opcode.BEQ, Opcode.BGE, Opcode.BGEU}
#: Branches comparing a register to itself that never fire.
_SELF_NOT_TAKEN = {Opcode.BNE, Opcode.BLT, Opcode.BLTU}


def _mv(rd, rs):
    if rd == rs:
        return []
    if rs == ZERO:
        return li(rd, 0)
    return [Instruction(Opcode.MV, rd=rd, rs1=rs)]


def run_peephole(function):
    """Return a (possibly new) finalized function with peepholes applied."""
    full = width_mask(function.bit_width)

    def transform(instruction):
        opcode = instruction.opcode
        rd = instruction.rd
        x, y = instruction.rs1, instruction.rs2
        imm = instruction.imm

        if opcode is Opcode.MV and rd == x:
            return []
        if opcode is Opcode.ADDI and imm == 0:
            return _mv(rd, x)
        if opcode is Opcode.ADDI and x == ZERO:
            return li(rd, imm & full)
        if opcode in (Opcode.XORI, Opcode.ORI) and imm == 0:
            return _mv(rd, x)
        if opcode is Opcode.ANDI:
            if imm & full == 0:
                return li(rd, 0)
            if imm & full == full:
                return _mv(rd, x)
        if opcode is Opcode.ORI and imm & full == full:
            return li(rd, full)
        if opcode in (Opcode.SLLI, Opcode.SRLI, Opcode.SRAI) and imm == 0:
            return _mv(rd, x)

        if opcode in (Opcode.ADD, Opcode.OR, Opcode.XOR):
            if y == ZERO:
                return _mv(rd, x)
            if x == ZERO:
                return _mv(rd, y)
        if opcode is Opcode.SUB and y == ZERO:
            return _mv(rd, x)
        if opcode in (Opcode.SUB, Opcode.XOR) and x == y:
            return li(rd, 0)
        if opcode in (Opcode.AND, Opcode.OR) and x == y:
            return _mv(rd, x)
        if opcode is Opcode.AND and ZERO in (x, y):
            return li(rd, 0)
        if opcode in (Opcode.SLL, Opcode.SRL, Opcode.SRA) and y == ZERO:
            return _mv(rd, x)
        if opcode in (Opcode.SLL, Opcode.SRL, Opcode.SRA, Opcode.MUL) \
                and x == ZERO:
            return li(rd, 0)
        if opcode is Opcode.MUL and y == ZERO:
            return li(rd, 0)

        if opcode is Opcode.SEQZ and x == ZERO:
            return li(rd, 1)
        if opcode is Opcode.SNEZ and x == ZERO:
            return li(rd, 0)
        if opcode in (Opcode.NOT, Opcode.NEG) and x == ZERO:
            return li(rd, full if opcode is Opcode.NOT else 0)

        if instruction.is_conditional_branch and x == y:
            if opcode in _SELF_TAKEN:
                return [Instruction(Opcode.J, label=instruction.label)]
            if opcode in _SELF_NOT_TAKEN:
                return []
        if opcode in (Opcode.BEQZ, Opcode.BGEU) and x == ZERO and \
                opcode is Opcode.BEQZ:
            return [Instruction(Opcode.J, label=instruction.label)]
        if opcode is Opcode.BNEZ and x == ZERO:
            return []

        if opcode is Opcode.NOP:
            return []
        return None

    simplified, changed = rewrite_instructions(function, transform)
    return simplified if changed else function
