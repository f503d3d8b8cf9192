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


def _meet_states(accumulator, incoming, sent, vectors, width):
    """Meet *incoming* into *accumulator* (dict reg -> BitVector) along
    one CFG edge, sparsely: *sent* holds the vectors last sent along the
    edge, and a register whose vector is the same object again is
    skipped (the accumulator already absorbed it, and meet is
    idempotent).  Both states hold canonical vectors of *vectors* (a
    :class:`_HashCons`), which also memoizes the meets.

    Returns True if the accumulator changed.
    """
    changed = False
    for reg, vector in incoming.items():
        if sent.get(reg) is vector:
            continue
        sent[reg] = vector
        current = accumulator.get(reg)
        if current is vector:
            continue        # meet is idempotent
        if current is None:
            accumulator[reg] = vector
            if vector != BitVector.bottom(width):
                changed = True
            continue
        merged = vectors.meet(current, vector)
        if merged is not current:
            accumulator[reg] = merged
            changed = True
    return changed


class _HashCons:
    """The canonical vectors of one analysis run: equal values are one
    object, so an unchanged value is recognized by identity.

    :meth:`meet` memoizes meets of canonical vectors by object identity,
    which is sound because the table keeps every canonical vector alive
    for the run.
    """

    def __init__(self):
        self._table = {}
        self._meets = {}

    def canonical(self, vector):
        """The first vector seen with the same ``(ones, zeros, bot)``."""
        key = (vector.ones, vector.zeros, vector.bot)
        found = self._table.get(key)
        if found is None:
            self._table[key] = found = vector
        return found

    def meet(self, a, b):
        """The canonical ``a ∧ b`` of canonical *a* and *b*."""
        key = (id(a), id(b))
        merged = self._meets.get(key)
        if merged is None:
            merged = self._meets[key] = self.canonical(a.meet(b))
        return merged


def compute_bit_values(function):
    """Run the analysis to its fix point; returns :class:`BitValueResult`.

    Every vector a block writes or a join merges is canonical within the
    run (:class:`_HashCons`), so an unchanged value re-sent along an
    edge is the same object, and :func:`_meet_states` skips it.  An
    instruction whose operands equal those of its previous evaluation
    reuses that evaluation's result (the transfer functions are pure).
    """
    width = function.bit_width
    vectors = _HashCons()
    canonical = vectors.canonical
    canonical(BitVector.bottom(width))
    entry_state = {param: canonical(BitVector.top(width))
                   for param in function.params}

    # Per block, the instructions that write a register or decide a
    # branch: (instruction, registers read, registers written, branch?).
    steps = {block.label: [(instruction, instruction.reads(),
                            instruction.data_writes(),
                            instruction.is_conditional_branch)
                           for instruction in block.instructions
                           if instruction.data_writes()
                           or instruction.is_conditional_branch]
             for block in function.blocks}
    memo = {}       # pp -> (operand vectors, written, feasible successors)

    def evaluate(instruction, regs, read, is_branch):
        operands = [read(reg) for reg in regs]
        hit = memo.get(instruction.pp)
        if hit is None or hit[0] != operands:
            written = abstract_value(instruction, read, width)
            if written is not None:
                written = canonical(written)
            feasible = _feasible_successors(instruction, read, width) \
                if is_branch else None
            hit = memo[instruction.pp] = (operands, written, feasible)
        return hit

    block_in = {function.entry.label: dict(entry_state)}
    sent = {}       # (block label, successor label) -> reg -> vector
    executable = {function.entry.label}
    worklist = deque([function.entry])
    queued = {function.entry.label}

    while worklist:
        block = worklist.popleft()
        queued.discard(block.label)
        state = dict(block_in.get(block.label, {}))
        read = state_reader(state, width)
        feasible = None
        for instruction, regs, writes, is_branch in steps[block.label]:
            _, written, decided = evaluate(instruction, regs, read,
                                           is_branch)
            if written is not None:
                for reg in writes:
                    state[reg] = written
            if is_branch:
                feasible = decided
        successors = block.succs
        if feasible is not None:
            allowed = set(feasible)
            successors = [s for s in block.succs if s.label in allowed]
        for successor in successors:
            target = block_in.setdefault(successor.label, {})
            changed = _meet_states(
                target, state,
                sent.setdefault((block.label, successor.label), {}),
                vectors, width)
            newly_executable = successor.label not in executable
            if newly_executable:
                executable.add(successor.label)
            if (changed or newly_executable) and \
                    successor.label not in queued:
                worklist.append(successor)
                queued.add(successor.label)

    # Materialize per-program-point before/after states; consecutive
    # points share one dict until a write changes it (the per-point
    # copies cost ~1.2 MB of peak RSS on the warm nightly sweep).
    total = len(function.instructions)
    before = [None] * total
    after = [None] * total
    for block in function.blocks:
        state = dict(block_in.get(block.label, {}))
        writers = {instruction.pp: (regs, writes, is_branch)
                   for instruction, regs, writes, is_branch
                   in steps[block.label] if writes}
        for instruction in block.instructions:
            pp = instruction.pp
            before[pp] = state
            if pp in writers:
                regs, writes, is_branch = writers[pp]
                _, written, _ = evaluate(instruction, regs,
                                         state_reader(state, width),
                                         is_branch)
                state = dict(state)
                for reg in writes:
                    state[reg] = written
            after[pp] = state
    return BitValueResult(function, before, after, frozenset(executable))
