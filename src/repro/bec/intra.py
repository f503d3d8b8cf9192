"""Intra-instruction coalescing rules (paper Algorithm 3).

For one instruction ``q`` these rules produce *constraints* — pairs of
tokens that belong to the same equivalence class in the temporary
relation ``R'_q``:

* ``("port", u, i)`` — a fault arriving in bit ``i`` of operand ``u``
  as ``q`` reads it;
* ``("win", z, i)``  — the fault window opening in bit ``i`` of ``z``
  after ``q`` writes it;
* ``S0``             — the masked (no-effect) class.

The rule set is exactly Algorithm 3 of the paper: unconditional propagation
for ``mv``/``xor`` (and ``not``, which is an xor with all-ones), bit-value
guarded propagation/masking for ``and``/``or``, constant and
minimum-shift-amount rules for shifts, and the ``eval`` rule for
comparisons and branches (two operand bits whose flips provably produce
the same outcome are tied).  The eval rule evaluates the instruction
with the bit-value analysis's own ``abstract_value`` and
``abstract_decision``, so a flipped operand is judged by the same
transfer functions as the fixpoint.

The pairs are closed into ``R'_q`` by one class,
:class:`repro.bec.coalesce.LocalRelation`, for both of its consumers:
the coalescing fixpoint and the trace walker
(:mod:`repro.fi.accounting`).
"""

from repro.ir.instructions import Format, Opcode
from repro.ir.registers import ZERO
from repro.bitvalue.analysis import (abstract_decision, abstract_value,
                                     state_reader)
from repro.bitvalue.lattice import BitVector

S0 = ("s0",)


def port(reg, bit):
    return ("port", reg, bit)


def window(reg, bit):
    return ("win", reg, bit)


def intra_constraints(instruction, before_values, width):
    """Compute the ``R'_q`` constraint pairs for *instruction*.

    ``before_values`` maps each read register to its abstract
    :class:`BitVector` at the moment the instruction reads it
    (``k(p, u)`` merged over all reaching definitions).

    Returns a list of ``(token_a, token_b)`` pairs.
    """
    opcode = instruction.opcode
    pairs = []

    if opcode in (Opcode.MV, Opcode.NOT):
        _propagate_all(instruction, pairs, width)
    elif opcode in (Opcode.XOR, Opcode.XORI):
        _xor_rule(instruction, pairs, width)
    elif opcode in (Opcode.AND, Opcode.ANDI):
        _and_or_rule(instruction, before_values, pairs, width,
                     masking_bit=0)
    elif opcode in (Opcode.OR, Opcode.ORI):
        _and_or_rule(instruction, before_values, pairs, width,
                     masking_bit=1)
    elif opcode in (Opcode.SRL, Opcode.SRLI, Opcode.SRA, Opcode.SRAI):
        _shift_rule(instruction, before_values, pairs, width, left=False)
    elif opcode in (Opcode.SLL, Opcode.SLLI):
        _shift_rule(instruction, before_values, pairs, width, left=True)
    elif _is_eval_opcode(opcode):
        _eval_rule(instruction, before_values, pairs, width)

    return pairs


def _is_eval_opcode(opcode):
    return opcode in (
        Opcode.SLT, Opcode.SLTU, Opcode.SLTI, Opcode.SLTIU,
        Opcode.SEQZ, Opcode.SNEZ,
        Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE,
        Opcode.BLTU, Opcode.BGEU, Opcode.BEQZ, Opcode.BNEZ,
    )


# -- unconditional propagation --------------------------------------------------


def _propagate_all(instruction, pairs, width):
    source = instruction.rs1
    target = instruction.rd
    if source == ZERO:
        return
    for bit in range(width):
        pairs.append((port(source, bit), window(target, bit)))


def _xor_rule(instruction, pairs, width):
    target = instruction.rd
    if instruction.opcode is Opcode.XORI:
        _propagate_all(instruction, pairs, width)
        return
    x, y = instruction.rs1, instruction.rs2
    if x == y:
        # xor z, x, x always computes 0; a fault in x is invisible via q.
        if x != ZERO:
            for bit in range(width):
                pairs.append((port(x, bit), S0))
        return
    for source in (x, y):
        if source == ZERO:
            continue
        for bit in range(width):
            pairs.append((port(source, bit), window(target, bit)))


# -- and / or -----------------------------------------------------------------------


def _and_or_rule(instruction, before_values, pairs, width, masking_bit):
    """Shared rule for and/or: one operand value decides whether a fault
    in the *other* operand's bit is masked or propagated.

    ``masking_bit`` is 0 for ``and`` (a known-zero masks) and 1 for
    ``or`` (a known-one masks).
    """
    target = instruction.rd
    x = instruction.rs1
    if instruction.format is Format.RRI:
        y = None
        y_bits = BitVector.const(width, instruction.imm)
    else:
        y = instruction.rs2
        y_bits = _value_of(y, before_values, width)
    x_bits = _value_of(x, before_values, width)

    if y is not None and x == y:
        # and/or z, x, x acts like mv for fault purposes.
        if x != ZERO:
            for bit in range(width):
                pairs.append((port(x, bit), window(target, bit)))
        return

    _mask_or_propagate(x, y_bits, target, pairs, width, masking_bit)
    if y is not None:
        _mask_or_propagate(y, x_bits, target, pairs, width, masking_bit)


def _mask_or_propagate(operand, other_bits, target, pairs, width,
                       masking_bit):
    if operand == ZERO or operand is None:
        return
    for bit in range(width):
        probe = 1 << bit
        if masking_bit == 0:
            masked = bool(other_bits.zeros & probe)
            passed = bool(other_bits.ones & probe)
        else:
            masked = bool(other_bits.ones & probe)
            passed = bool(other_bits.zeros & probe)
        if masked:
            pairs.append((port(operand, bit), S0))
        elif passed:
            pairs.append((port(operand, bit), window(target, bit)))


# -- shifts ------------------------------------------------------------------------


def _shift_rule(instruction, before_values, pairs, width, left):
    target = instruction.rd
    source = instruction.rs1
    if source == ZERO:
        return
    if instruction.format is Format.RRR and \
            instruction.rs2 == instruction.rs1:
        # shl/shr z, x, x: a flip of x changes the shift amount too, so
        # neither the masking nor the relocation claim holds.
        return
    arithmetic = instruction.opcode in (Opcode.SRA, Opcode.SRAI)
    if instruction.format is Format.RRI:
        amount_bits = BitVector.const(width, instruction.imm)
    else:
        amount_bits = _value_of(instruction.rs2, before_values, width)
    constant = amount_bits.value
    if constant is not None:
        constant &= width - 1
    minimum = amount_bits.min_unsigned() & (width - 1) \
        if constant is None else constant

    for bit in range(width):
        if left:
            if bit + minimum >= width:
                pairs.append((port(source, bit), S0))
            elif constant is not None and bit + constant < width:
                pairs.append((port(source, bit),
                              window(target, bit + constant)))
        else:
            if arithmetic and bit == width - 1:
                # The sign bit replicates into several result bits under
                # sra; its flip is not equivalent to a single result flip.
                continue
            if bit - minimum < 0:
                pairs.append((port(source, bit), S0))
            elif constant is not None and bit - constant >= 0:
                pairs.append((port(source, bit),
                              window(target, bit - constant)))


# -- comparisons and branches (the eval rule) -----------------------------------------


def _eval_rule(instruction, before_values, pairs, width):
    """Tie operand bits whose flips provably lead to the same outcome.

    ``eval(p, v^i)`` partially evaluates the comparison/branch assuming a
    flip of bit ``i`` of operand ``v``; two bits with equal, defined
    outcomes are equivalent (Algorithm 3, lines 36-39).
    """
    operands = {reg: _value_of(reg, before_values, width)
                for reg in instruction.data_reads()}
    for reg, bits in operands.items():
        outcomes = {}
        for bit in range(width):
            flipped = _flip_known_bit(bits, bit)
            if flipped is None:
                continue
            values = dict(operands)
            values[reg] = flipped
            outcome = _eval_outcome(instruction, values, width)
            if outcome is None:
                continue
            outcomes[bit] = outcome
        by_outcome = {}
        for bit, outcome in outcomes.items():
            by_outcome.setdefault(outcome, []).append(bit)
        for bits_with_same in by_outcome.values():
            first = bits_with_same[0]
            for other in bits_with_same[1:]:
                pairs.append((port(reg, first), port(reg, other)))


def _flip_known_bit(bits, bit):
    """Vector with bit *bit* flipped, or None if the bit is not known.

    A flip of an unknown bit yields an unknown bit, from which no outcome
    can ever be proven; skipping it early keeps eval cheap.
    """
    probe = 1 << bit
    if bits.ones & probe:
        return BitVector(bits.width, ones=bits.ones & ~probe,
                         zeros=bits.zeros | probe, bot=bits.bot)
    if bits.zeros & probe:
        return BitVector(bits.width, ones=bits.ones | probe,
                         zeros=bits.zeros & ~probe, bot=bits.bot)
    return None


def _eval_outcome(instruction, values, width):
    """Outcome of a comparison/branch under abstract operand *values*.

    For branches the outcome is the taken/not-taken decision; for
    comparison results it is the written constant.  None = undecidable.
    """
    read = state_reader(values, width)
    if instruction.is_conditional_branch:
        decision = abstract_decision(instruction, read, width)
        return ("branch", decision) if decision is not None else None
    result = abstract_value(instruction, read, width)
    return ("value", result.value) if result.is_constant else None


def _value_of(reg, before_values, width):
    if reg == ZERO:
        return BitVector.const(width, 0)
    value = before_values.get(reg)
    if value is None:
        return BitVector.top(width)
    return value
