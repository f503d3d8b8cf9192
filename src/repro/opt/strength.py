"""Strength reduction: lower expensive arithmetic to bit-level operations.

The paper's analysis sits late in the backend precisely so that
"target-specific strength reduction optimizations ... lower arithmetic
operations to bit-level operations and thereby increase the opportunity
for the application of our analysis" (§IV-A).  This pass reproduces the
relevant lowerings on our IR:

* ``mul`` by a known power of two        -> ``slli``
* ``mul`` by 0 / by 1                    -> ``li 0`` / ``mv``
* ``divu`` by a known power of two       -> ``srli``
* ``remu`` by a known power of two       -> ``andi`` with ``2^k - 1``
* signed ``div``/``rem`` by a power of two when the dividend's sign bit
  is *known zero* (bit-value analysis!) -> the unsigned lowering
* ``mulhu`` by 0 or 1                    -> ``li 0``

Constant operands are discovered through the global bit-value analysis,
so a divisor loaded in another basic block still triggers the rewrite —
strictly stronger than a peephole over literal immediates.
"""

from repro.bitvalue.analysis import compute_bit_values
from repro.ir.instructions import Instruction, Opcode
from repro.ir.registers import ZERO
from repro.opt.rewrite import li, rewrite_instructions


def _power_of_two_log(value):
    """log2(value) if *value* is a positive power of two, else None."""
    if value > 0 and value & (value - 1) == 0:
        return value.bit_length() - 1
    return None


def _mv(rd, rs):
    if rs == ZERO:
        return li(rd, 0)
    return [Instruction(Opcode.MV, rd=rd, rs1=rs)]


def reduce_strength(function):
    """Return a (possibly new) finalized function with reduced arithmetic."""
    values = compute_bit_values(function)
    sign_bit = 1 << (function.bit_width - 1)

    def constant_of(pp, reg):
        if reg == ZERO:
            return 0
        return values.before(pp, reg).value

    def known_non_negative(pp, reg):
        if reg == ZERO:
            return True
        return bool(values.before(pp, reg).zeros & sign_bit)

    def transform(instruction):
        opcode = instruction.opcode
        if opcode not in (Opcode.MUL, Opcode.MULHU, Opcode.DIV,
                          Opcode.DIVU, Opcode.REM, Opcode.REMU):
            return None
        if not values.is_executable(instruction.pp):
            return None
        pp, rd = instruction.pp, instruction.rd
        x, y = instruction.rs1, instruction.rs2
        cx, cy = constant_of(pp, x), constant_of(pp, y)

        if opcode is Opcode.MUL:
            # Commutative: put the constant (if any) in cy.
            if cy is None and cx is not None:
                x, y, cx, cy = y, x, cy, cx
            if cy is None:
                return None
            if cy == 0:
                return li(rd, 0)
            if cy == 1:
                return _mv(rd, x)
            shift = _power_of_two_log(cy)
            if shift is not None:
                return [Instruction(Opcode.SLLI, rd=rd, rs1=x, imm=shift)]
            return None

        if opcode is Opcode.MULHU:
            if 0 in (cx, cy) or (cx == 1 and cy is not None) \
                    or (cy == 1 and cx is not None):
                # high word of 0*y, x*0, 1*c or c*1 is 0 for width-bounded c
                return li(rd, 0)
            return None

        # Division and remainder: only a constant divisor helps.
        if cy is None:
            return None
        if cy == 0:
            return None         # division by zero keeps its trap semantics
        signed = opcode in (Opcode.DIV, Opcode.REM)
        if signed and not known_non_negative(pp, x):
            return None
        if signed and cy >= sign_bit:
            return None         # divisor is negative in signed reading
        if opcode in (Opcode.DIV, Opcode.DIVU):
            if cy == 1:
                return _mv(rd, x)
            shift = _power_of_two_log(cy)
            if shift is not None:
                return [Instruction(Opcode.SRLI, rd=rd, rs1=x, imm=shift)]
            return None
        # rem / remu
        if cy == 1:
            return li(rd, 0)
        shift = _power_of_two_log(cy)
        if shift is not None:
            return [Instruction(Opcode.ANDI, rd=rd, rs1=x, imm=cy - 1)]
        return None

    reduced, changed = rewrite_instructions(function, transform)
    return reduced if changed else function
