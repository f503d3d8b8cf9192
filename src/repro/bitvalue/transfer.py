"""Abstract transfer functions (the ``op_p`` of Algorithm 1, line 7).

One function per opcode family, each mapping operand :class:`BitVector`
values to the result vector.  Definitions follow LLVM ``KnownBits``
semantics; Fig. 3c of the paper (the abstract bit-wise ``and``) is
``tf_and`` below.  Every function is conservative: the concrete result of
the operation on any concretization of the inputs is a concretization of
the output (tested exhaustively at small widths in the test suite).

Operands containing bottom bits yield an all-bottom result: during the
optimistic fix-point a bottom operand means "no definition seen yet", so
the result is deferred rather than approximated.
"""

from repro.errors import AnalysisError
from repro.ir.concrete import mask as width_mask
from repro.ir.instructions import Opcode
from repro.bitvalue.lattice import BitVector


def _bottom_if_undefined(*operands):
    for operand in operands:
        if operand.has_bottom:
            return BitVector.bottom(operand.width)
    return None


def tf_and(a, b):
    undefined = _bottom_if_undefined(a, b)
    if undefined:
        return undefined
    return BitVector(a.width,
                     ones=a.ones & b.ones,
                     zeros=a.zeros | b.zeros)


def tf_or(a, b):
    undefined = _bottom_if_undefined(a, b)
    if undefined:
        return undefined
    return BitVector(a.width,
                     ones=a.ones | b.ones,
                     zeros=a.zeros & b.zeros)


def tf_xor(a, b):
    undefined = _bottom_if_undefined(a, b)
    if undefined:
        return undefined
    return BitVector(a.width,
                     ones=(a.ones & b.zeros) | (a.zeros & b.ones),
                     zeros=(a.ones & b.ones) | (a.zeros & b.zeros))


def tf_not(a):
    undefined = _bottom_if_undefined(a)
    if undefined:
        return undefined
    return BitVector(a.width, ones=a.zeros, zeros=a.ones)


def tf_add(a, b, carry_in=0):
    """Known-bits addition with exact carry tracking.

    The carry into each bit grows monotonically with the operands' lower
    bits, so it is known exactly when the two extreme sums — every
    unknown bit 0, every unknown bit 1 — agree on it.  A sum bit is known
    when both operand bits and its carry are, which makes the result the
    most precise one.  ``carry_in`` is 1 for ``sub``.
    """
    undefined = _bottom_if_undefined(a, b)
    if undefined:
        return undefined
    width = a.width
    full = width_mask(width)
    high_a, high_b = full & ~a.zeros, full & ~b.zeros
    low = a.ones + b.ones + carry_in
    low_carries = low ^ a.ones ^ b.ones
    high_carries = (high_a + high_b + carry_in) ^ high_a ^ high_b
    known = a.known & b.known & ~(low_carries ^ high_carries)
    return BitVector(width, ones=low & known, zeros=~low & known)


def tf_sub(a, b):
    return tf_add(a, tf_not(b), carry_in=1)


def tf_neg(a):
    return tf_sub(BitVector.const(a.width, 0), a)


def tf_shl(a, b):
    """Logical left shift; *b* is the shift-amount vector."""
    undefined = _bottom_if_undefined(a, b)
    if undefined:
        return undefined
    width = a.width
    if b.is_constant:
        amount = b.value & (width - 1)
        m = width_mask(width)
        return BitVector(width,
                         ones=(a.ones << amount) & m,
                         zeros=((a.zeros << amount) | ((1 << amount) - 1)) & m)
    minimum = _min_shamt(b)
    # At least `minimum` low bits become zero whatever the amount is.
    return BitVector(width, zeros=(1 << minimum) - 1)


def tf_srl(a, b):
    undefined = _bottom_if_undefined(a, b)
    if undefined:
        return undefined
    width = a.width
    m = width_mask(width)
    if b.is_constant:
        amount = b.value & (width - 1)
        high = (m & ~(m >> amount)) if amount else 0
        return BitVector(width,
                         ones=a.ones >> amount,
                         zeros=(a.zeros >> amount) | high)
    minimum = _min_shamt(b)
    high = (m & ~(m >> minimum)) if minimum else 0
    return BitVector(width, zeros=high)


def tf_sra(a, b):
    undefined = _bottom_if_undefined(a, b)
    if undefined:
        return undefined
    width = a.width
    sign = 1 << (width - 1)
    m = width_mask(width)
    if b.is_constant:
        amount = b.value & (width - 1)
        ones = a.ones >> amount
        zeros = a.zeros >> amount
        if amount:
            fill = m & ~(m >> amount)
            if a.ones & sign:
                ones |= fill
            elif a.zeros & sign:
                zeros |= fill
        return BitVector(width, ones=ones, zeros=zeros)
    if a.zeros & sign:
        # Non-negative operand: behaves like a logical shift.
        return tf_srl(a, b)
    return BitVector.top(width)


def _min_shamt(b):
    """Smallest possible shift amount given the known bits of *b*.

    Only the low log2(width) bits take part in the shift.
    """
    width = b.width
    log = (width - 1).bit_length()
    minimum = 0
    for index in range(log):
        if b.ones & (1 << index):
            minimum |= 1 << index
    return minimum


def tf_mul(a, b):
    undefined = _bottom_if_undefined(a, b)
    if undefined:
        return undefined
    width = a.width
    if a.is_constant and b.is_constant:
        return BitVector.const(width, a.value * b.value)
    # Trailing zeros add; the product is bounded by max(a) * max(b).
    trailing = min(width,
                   a.trailing_known_zeros() + b.trailing_known_zeros())
    zeros = (1 << trailing) - 1
    bound = a.max_unsigned() * b.max_unsigned()
    if bound < (1 << width):
        top_bits = max(bound.bit_length(), trailing)
        zeros |= width_mask(width) & ~((1 << top_bits) - 1)
    return BitVector(width, zeros=zeros & width_mask(width))


def tf_mulhu(a, b):
    undefined = _bottom_if_undefined(a, b)
    if undefined:
        return undefined
    width = a.width
    if a.is_constant and b.is_constant:
        return BitVector.const(width, (a.value * b.value) >> width)
    bound = (a.max_unsigned() * b.max_unsigned()) >> width
    zeros = width_mask(width) & ~((1 << bound.bit_length()) - 1)
    return BitVector(width, zeros=zeros)


def tf_divu(a, b):
    undefined = _bottom_if_undefined(a, b)
    if undefined:
        return undefined
    width = a.width
    if a.is_constant and b.is_constant:
        from repro.ir.concrete import alu
        return BitVector.const(width, alu(Opcode.DIVU, a.value, b.value,
                                          width))
    if b.min_unsigned() == 0:
        # Division by zero yields all ones; nothing is known.
        return BitVector.top(width)
    bound = a.max_unsigned() // b.min_unsigned()
    zeros = width_mask(width) & ~((1 << bound.bit_length()) - 1)
    return BitVector(width, zeros=zeros)


def tf_remu(a, b):
    undefined = _bottom_if_undefined(a, b)
    if undefined:
        return undefined
    width = a.width
    if a.is_constant and b.is_constant:
        from repro.ir.concrete import alu
        return BitVector.const(width, alu(Opcode.REMU, a.value, b.value,
                                          width))
    if b.min_unsigned() > 0:
        bound = min(a.max_unsigned(), b.max_unsigned() - 1)
    else:
        bound = a.max_unsigned()
    zeros = width_mask(width) & ~((1 << bound.bit_length()) - 1)
    return BitVector(width, zeros=zeros)


def tf_div_signed(a, b):
    undefined = _bottom_if_undefined(a, b)
    if undefined:
        return undefined
    width = a.width
    if a.is_constant and b.is_constant:
        from repro.ir.concrete import alu
        return BitVector.const(width, alu(Opcode.DIV, a.value, b.value,
                                          width))
    return BitVector.top(width)


def tf_rem_signed(a, b):
    undefined = _bottom_if_undefined(a, b)
    if undefined:
        return undefined
    width = a.width
    if a.is_constant and b.is_constant:
        from repro.ir.concrete import alu
        return BitVector.const(width, alu(Opcode.REM, a.value, b.value,
                                          width))
    return BitVector.top(width)


def _bool_vector(width, truth):
    """Vector for a comparison result: bits above the LSB are zero."""
    if truth is None:
        return BitVector(width, zeros=width_mask(width) & ~1)
    return BitVector.const(width, 1 if truth else 0)


def compare_sltu(a, b):
    """Three-valued unsigned a < b: True, False or None (undecided)."""
    if a.max_unsigned() < b.min_unsigned():
        return True
    if a.min_unsigned() >= b.max_unsigned():
        return False
    return None


def compare_slt(a, b):
    if a.max_signed() < b.min_signed():
        return True
    if a.min_signed() >= b.max_signed():
        return False
    return None


def compare_eq(a, b):
    """Three-valued a == b over abstract vectors."""
    if a.is_constant and b.is_constant:
        return a.value == b.value
    if (a.ones & b.zeros) or (a.zeros & b.ones):
        return False                 # some bit provably differs
    return None


def tf_sltu(a, b):
    undefined = _bottom_if_undefined(a, b)
    if undefined:
        return undefined
    return _bool_vector(a.width, compare_sltu(a, b))


def tf_slt(a, b):
    undefined = _bottom_if_undefined(a, b)
    if undefined:
        return undefined
    return _bool_vector(a.width, compare_slt(a, b))


def tf_seqz(a):
    undefined = _bottom_if_undefined(a)
    if undefined:
        return undefined
    equal_zero = compare_eq(a, BitVector.const(a.width, 0))
    return _bool_vector(a.width, equal_zero)


def tf_snez(a):
    undefined = _bottom_if_undefined(a)
    if undefined:
        return undefined
    equal_zero = compare_eq(a, BitVector.const(a.width, 0))
    if equal_zero is None:
        return _bool_vector(a.width, None)
    return _bool_vector(a.width, not equal_zero)


_BINARY = {
    Opcode.ADD: tf_add, Opcode.ADDI: tf_add,
    Opcode.SUB: tf_sub,
    Opcode.AND: tf_and, Opcode.ANDI: tf_and,
    Opcode.OR: tf_or, Opcode.ORI: tf_or,
    Opcode.XOR: tf_xor, Opcode.XORI: tf_xor,
    Opcode.SLL: tf_shl, Opcode.SLLI: tf_shl,
    Opcode.SRL: tf_srl, Opcode.SRLI: tf_srl,
    Opcode.SRA: tf_sra, Opcode.SRAI: tf_sra,
    Opcode.SLT: tf_slt, Opcode.SLTI: tf_slt,
    Opcode.SLTU: tf_sltu, Opcode.SLTIU: tf_sltu,
    Opcode.MUL: tf_mul, Opcode.MULHU: tf_mulhu,
    Opcode.DIV: tf_div_signed, Opcode.DIVU: tf_divu,
    Opcode.REM: tf_rem_signed, Opcode.REMU: tf_remu,
}

_UNARY = {
    Opcode.MV: lambda a: a,
    Opcode.NOT: tf_not,
    Opcode.NEG: tf_neg,
    Opcode.SEQZ: tf_seqz,
    Opcode.SNEZ: tf_snez,
}


def transfer_binary(opcode, a, b):
    """Dispatch a binary ALU opcode on abstract operands."""
    try:
        return _BINARY[opcode](a, b)
    except KeyError:
        raise AnalysisError(
            f"no abstract transfer for {opcode.value}") from None


def transfer_unary(opcode, a):
    try:
        return _UNARY[opcode](a)
    except KeyError:
        raise AnalysisError(
            f"no abstract transfer for {opcode.value}") from None


def abstract_branch(opcode, a, b):
    """Three-valued branch decision on abstract operands (None=unknown)."""
    if a.has_bottom or b.has_bottom:
        return None
    if opcode in (Opcode.BEQ, Opcode.BEQZ):
        return compare_eq(a, b)
    if opcode in (Opcode.BNE, Opcode.BNEZ):
        result = compare_eq(a, b)
        return None if result is None else not result
    if opcode is Opcode.BLT:
        return compare_slt(a, b)
    if opcode is Opcode.BGE:
        result = compare_slt(a, b)
        return None if result is None else not result
    if opcode is Opcode.BLTU:
        return compare_sltu(a, b)
    if opcode is Opcode.BGEU:
        result = compare_sltu(a, b)
        return None if result is None else not result
    raise AnalysisError(f"not a conditional branch: {opcode.value}")
