"""Global abstract bit-value analysis (paper §IV-A, Algorithm 1).

A forward data-flow analysis over the CFG in the style of Wegman–Zadeck
sparse conditional constant propagation, lifted from values to individual
bits.  Starting from an optimistic all-bottom state, the analysis:

* merges the definitions reaching each program point with the per-bit
  meet operator (Algorithm 1, lines 1-4),
* evaluates each instruction in the abstract domain (lines 5-7),
* tracks edge executability so branches whose outcome is statically
  decidable only propagate along the taken edge (the "conditional" part
  of SCCP).

Results are exposed per program point: :meth:`BitValueResult.before`
gives ``k`` for an operand at the moment ``p`` reads it, and
:meth:`BitValueResult.after` gives ``k(p, v)`` for values after ``p`` —
the quantity the fault-index coalescing analysis consumes.
"""

from collections import deque

from repro.ir.instructions import Format, Opcode
from repro.ir.registers import ZERO
from repro.bitvalue.lattice import BitVector
from repro.bitvalue.transfer import (abstract_branch, transfer_binary,
                                     transfer_unary)


class BitValueResult:
    """Fix-point of the bit-value analysis for one function."""

    def __init__(self, function, before, after, executable_blocks):
        self.function = function
        self._before = before      # list[dict reg -> BitVector]
        self._after = after
        self.executable_blocks = executable_blocks

    def before(self, pp, reg):
        """Abstract value of *reg* as observed by the read at *pp*
        (the meet of all reaching definitions)."""
        width = self.function.bit_width
        if reg == ZERO:
            return BitVector.const(width, 0)
        state = self._before[pp]
        return state.get(reg, BitVector.bottom(width))

    def after(self, pp, reg):
        """The paper's ``k(p, v)``: abstract value of *reg* after *pp*."""
        width = self.function.bit_width
        if reg == ZERO:
            return BitVector.const(width, 0)
        state = self._after[pp]
        return state.get(reg, BitVector.bottom(width))

    def is_executable(self, pp):
        block = self.function.instruction_at(pp).block
        return block.label in self.executable_blocks


def state_reader(state, width):
    """The ``read`` callable over a register -> BitVector map: the zero
    register reads 0, a register absent from *state* reads bottom."""
    zero = BitVector.const(width, 0)
    bottom = BitVector.bottom(width)

    def read(reg):
        if reg == ZERO:
            return zero
        return state.get(reg, bottom)

    return read


def abstract_value(instruction, read, width):
    """Abstract value written by *instruction* when each operand reads
    as ``read(reg)``; None if it writes nothing."""
    opcode = instruction.opcode
    fmt = instruction.format
    if opcode is Opcode.LI:
        return BitVector.const(width, instruction.imm)
    if fmt is Format.RR:
        return transfer_unary(opcode, read(instruction.rs1))
    if fmt is Format.RRR:
        return transfer_binary(opcode, read(instruction.rs1),
                               read(instruction.rs2))
    if fmt is Format.RRI:
        return transfer_binary(opcode, read(instruction.rs1),
                               BitVector.const(width, instruction.imm))
    if fmt is Format.LOAD:
        # Memory contents are not modelled; a load may produce anything
        # within its access width.
        if opcode is Opcode.LBU:
            return BitVector(width, zeros=~0xFF)
        return BitVector.top(width)
    return None


def abstract_decision(instruction, read, width):
    """Decision of conditional branch *instruction* when each operand
    reads as ``read(reg)``: True (taken), False, or None (unknown)."""
    if instruction.format is Format.BRANCHZ:
        b = BitVector.const(width, 0)
    else:
        b = read(instruction.rs2)
    return abstract_branch(instruction.opcode, read(instruction.rs1), b)


def _feasible_successors(instruction, read, width):
    """Successor labels reachable given the abstract branch operands.

    Returns None when all CFG successors are feasible.
    """
    decision = abstract_decision(instruction, read, width)
    if decision is None:
        return None
    block = instruction.block
    taken = instruction.label
    if decision:
        return [taken]
    return [succ.label for succ in block.succs if succ.label != taken] or \
        [taken]


def _meet_states(accumulator, incoming, width):
    """Meet *incoming* into *accumulator* (dict reg -> BitVector).

    Returns True if the accumulator changed.
    """
    changed = False
    for reg, vector in incoming.items():
        current = accumulator.get(reg)
        if current is vector:
            continue        # meet is idempotent (states share vectors)
        if current is None:
            accumulator[reg] = vector
            if vector != BitVector.bottom(width):
                changed = True
            continue
        merged = current.meet(vector)
        if merged is not current:
            accumulator[reg] = merged
            changed = True
    return changed


def compute_bit_values(function):
    """Run the analysis to its fix point; returns :class:`BitValueResult`."""
    width = function.bit_width
    entry_state = {param: BitVector.top(width) for param in function.params}

    block_in = {function.entry.label: dict(entry_state)}
    executable = {function.entry.label}
    worklist = deque([function.entry])
    queued = {function.entry.label}

    while worklist:
        block = worklist.popleft()
        queued.discard(block.label)
        state = dict(block_in.get(block.label, {}))
        read = state_reader(state, width)
        feasible = None
        for instruction in block.instructions:
            written = abstract_value(instruction, read, width)
            if written is not None:
                for reg in instruction.data_writes():
                    state[reg] = written
            if instruction.is_conditional_branch:
                feasible = _feasible_successors(instruction, read, width)
        successors = block.succs
        if feasible is not None:
            allowed = set(feasible)
            successors = [s for s in block.succs if s.label in allowed]
        for successor in successors:
            target = block_in.setdefault(successor.label, {})
            changed = _meet_states(target, state, width)
            newly_executable = successor.label not in executable
            if newly_executable:
                executable.add(successor.label)
            if (changed or newly_executable) and \
                    successor.label not in queued:
                worklist.append(successor)
                queued.add(successor.label)

    # Materialize per-program-point before/after states.
    total = len(function.instructions)
    before = [dict() for _ in range(total)]
    after = [dict() for _ in range(total)]
    for block in function.blocks:
        state = dict(block_in.get(block.label, {}))
        read = state_reader(state, width)
        for instruction in block.instructions:
            before[instruction.pp] = dict(state)
            written = abstract_value(instruction, read, width)
            if written is not None:
                for reg in instruction.data_writes():
                    state[reg] = written
            after[instruction.pp] = dict(state)
    return BitValueResult(function, before, after, frozenset(executable))
