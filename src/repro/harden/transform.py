"""The IR-to-IR hardening transform (duplication + checkers).

Given a set of *protected* program points (value-producing
instructions), :func:`harden_function` rewrites the function so that

* every protected instruction is preceded by a **shadow copy** that
  computes the same value into a shadow register, reading shadow
  operands where a valid shadow exists and the original registers
  elsewhere.  The shadow runs *before* the original so in-place updates
  (``add t0, t0, t1``) still see the pre-instruction operand values;
* every **synchronization point** — stores, conditional branches,
  returns and ``out`` instructions — is preceded by one ``check``
  instruction per operand register with a valid shadow.  A ``check``
  traps with kind ``detected-fault`` when original and shadow disagree,
  which campaign classification reports as the ``detected`` effect;
* the **entry block** starts with one ``mv shadow, param`` per function
  parameter (when anything is protected at all), so parameter registers
  participate in detection from cycle 0.

**Shadow validity.**  A register's shadow is only meaningful where
*every* reaching definition of the register was duplicated; a
definition that is not protected leaves the shadow stale, and a checker
comparing against a stale shadow would trap on fault-free runs.  The
transform therefore runs a forward must-dataflow ("all reaching defs
duplicated") over the CFG and consults it both when picking shadow
operands and when placing checkers.  :meth:`OverheadModel.walk` is the
one implementation of that dataflow; the selection loop scores its
candidates with the same walk.  On a fault-free run the hardened
program is therefore *architecturally identical* to the original: same
outputs, same stores, same return value, same control-flow decisions.

The returned :class:`HardenResult` carries an ``origin`` map (hardened
program point -> original program point, ``None`` for inserted
instructions), from which :meth:`HardenResult.cycle_map` derives the
dynamic correspondence used to replay an original-program fault plan
against the hardened binary — the apples-to-apples comparison behind
``experiments/protection.py`` and ``benchmarks/bench_harden.py``.
"""

from collections import Counter

from repro.errors import AnalysisError
from repro.fi.machine import Injection, MemoryInjection
from repro.ir.function import Function
from repro.ir.instructions import (CONDITIONAL_BRANCHES, Format, Opcode,
                                   STORES, check, mv)
from repro.ir.registers import ZERO

#: Formats of instructions that produce a register value and are hence
#: eligible for duplication.
ELIGIBLE_FORMATS = frozenset({Format.RRR, Format.RRI, Format.RR,
                              Format.RI, Format.LOAD})

#: Opcodes whose operand reads are synchronization points: corrupted
#: state becomes observable (or decides control flow) here, so checkers
#: go immediately before them.
SYNC_OPCODES = frozenset(STORES | CONDITIONAL_BRANCHES
                         | {Opcode.RET, Opcode.OUT})


def is_eligible(instruction):
    """True when *instruction* can be duplicated into a shadow."""
    return (instruction.format in ELIGIBLE_FORMATS
            and instruction.rd != ZERO)


def is_sync_point(instruction):
    """True when checkers must be placed before *instruction*."""
    return instruction.opcode in SYNC_OPCODES and instruction.data_reads()


def shadow_prefix(function):
    """A register-name prefix guaranteed not to collide with any
    register the function already names."""
    registers = set(function.registers())
    candidates = ["dup_"] + [f"dup{index}_" for index in range(1, 1000)]
    for candidate in candidates:
        if not any(reg.startswith(candidate) for reg in registers):
            return candidate
    raise AnalysisError("could not find a collision-free shadow prefix")


class OverheadModel:
    """Shadow validity and predicted overhead of one function, for any
    protected set.

    Built once per ``(function, exec_counts)``; a protected set is then
    walked against two per-block tables instead of re-deriving them,
    which matters because the selection loop scores every candidate:

    * each block's *last writer* per register it writes — a block leaves
      a register's shadow valid exactly when that writer is protected,
      and passes the entry state through for registers it does not
      write;
    * one row per instruction, ``(instruction, pp, count, sync reads,
      rd, writes)``: its golden-trace execution count (0 without
      ``exec_counts``), the distinct registers a checker compares
      before it, the register a protection shadows and the registers it
      writes.

    Register sets are int masks, register ``registers[i]`` being bit
    ``i`` (:attr:`bit` maps names to bits).  :meth:`walk` is the one
    shadow-validity dataflow: :meth:`extra_cycles` scores a protected
    set with it and :func:`harden_function` emits the hardened code
    from it.  A non-empty protected set also shadows the parameters by
    entry inits.
    """

    def __init__(self, function, exec_counts=None):
        counts = exec_counts or {}
        self.function = function
        self.registers = function.registers()
        self.bit = bit = {reg: 1 << index
                          for index, reg in enumerate(self.registers)}
        self._all = (1 << len(self.registers)) - 1
        self._params = sum(bit.get(reg, 0) for reg in set(function.params))
        self._blocks = []   # (pred indices, written mask, last writers, rows)
        for block in function.blocks:
            last, rows, written = {}, [], 0
            for instruction in block.instructions:
                writes = 0
                for reg in instruction.data_writes():
                    writes |= bit[reg]
                    last[reg] = instruction.pp
                sync = 0
                if is_sync_point(instruction):
                    for reg in instruction.data_reads():
                        sync |= bit[reg]
                written |= writes
                rows.append((instruction, instruction.pp,
                             counts.get(instruction.pp, 0), sync,
                             bit.get(instruction.rd, 0), writes))
            self._blocks.append((
                [pred.index for pred in block.preds], written,
                [(pp, bit[reg]) for reg, pp in last.items()], rows))
        entry = function.entry
        self._init_count = counts.get(entry.instructions[0].pp, 0) \
            if entry.instructions else 0

    def _valid_in(self, protected):
        """Forward must-dataflow: per block, the mask of registers whose
        shadow is valid on entry (every reaching definition duplicated),
        *before* the entry inits run."""
        gen = [sum(reg for pp, reg in last if pp in protected)
               for _, _, last, _ in self._blocks]
        out = [self._all] * len(self._blocks)
        valid_in = [0] * len(self._blocks)
        changed = True
        while changed:
            changed = False
            for index, (preds, written, _, _) in enumerate(self._blocks):
                # The function-start edge carries no valid shadows, so
                # the entry meet is empty even when loops re-enter it;
                # so is an unreachable block's.
                state = 0
                if index and preds:
                    state = self._all
                    for pred in preds:
                        state &= out[pred]
                valid_in[index] = state
                if protected and not index:
                    state |= self._params
                state = (state & ~written) | gen[index]
                if state != out[index]:
                    out[index] = state
                    changed = True
        return valid_in

    def walk(self, protected):
        """Yield ``(block index, row, valid)`` per instruction in program
        order; ``valid`` is the mask of registers whose shadow is valid
        right before the instruction (entry inits included)."""
        valid_in = self._valid_in(protected)
        for index, (_, _, _, rows) in enumerate(self._blocks):
            valid = valid_in[index]
            if protected and not index:
                valid |= self._params
            for row in rows:
                yield index, row, valid
                _, pp, _, _, rd, writes = row
                if pp in protected:
                    valid |= rd
                else:
                    valid &= ~writes

    def extra_cycles(self, protected):
        """Predicted extra dynamic instructions of protecting
        *protected*: shadows and checkers weighted by their rows'
        counts, plus the entry inits.  Matches
        :meth:`HardenResult.predicted_extra_cycles` exactly."""
        if not protected:
            return 0
        extra = len(self.function.params) * self._init_count
        for _, (_, pp, count, sync, _, _), valid in self.walk(protected):
            extra += count * ((sync & valid).bit_count()
                              + (pp in protected))
        return extra


class HardenResult:
    """A hardened function plus everything needed to evaluate it.

    Attributes
    ----------
    function:
        The hardened, finalized function.
    original:
        The function the transform ran on.
    protected:
        Frozenset of original program points that were duplicated.
    shadow_of:
        ``{register: shadow register}`` for every duplicated register.
    origin:
        List indexed by hardened program point; entry is the original
        program point the instruction was copied from, or ``None`` for
        inserted instructions (shadows, checks, entry inits).
    attached_to:
        For every *inserted* hardened program point, the original
        program point whose dynamic execution count it inherits (its
        protected instruction, its sync point, or the first original
        entry instruction for parameter inits) — the basis of the exact
        static overhead prediction.
    """

    __slots__ = ("function", "original", "protected", "shadow_of",
                 "origin", "attached_to", "n_shadow", "n_check", "n_init")

    def __init__(self, function, original, protected, shadow_of, origin,
                 attached_to, n_shadow, n_check, n_init):
        self.function = function
        self.original = original
        self.protected = protected
        self.shadow_of = shadow_of
        self.origin = origin
        self.attached_to = attached_to
        self.n_shadow = n_shadow
        self.n_check = n_check
        self.n_init = n_init

    # -- overhead ---------------------------------------------------------------

    def predicted_extra_cycles(self, original_golden):
        """Exact extra dynamic instructions of a fault-free hardened run.

        Every inserted instruction executes exactly when the original
        instruction it is attached to does, so the prediction is a sum
        of golden-trace execution counts (asserted equal to the measured
        hardened golden run in ``tests/harden/``).
        """
        counts = Counter(original_golden.executed)
        return sum(counts.get(attached, 0)
                   for attached in self.attached_to.values())

    def predicted_overhead(self, original_golden):
        """Predicted dynamic instruction overhead as a ratio (0.3 means
        30 % more dynamic instructions than the original golden run)."""
        if not original_golden.cycles:
            return 0.0
        return self.predicted_extra_cycles(original_golden) \
            / original_golden.cycles

    # -- fault-plan replay -------------------------------------------------------

    def cycle_map(self, hardened_golden):
        """Per-cycle correspondence original -> hardened golden trace.

        Returns a list ``m`` with ``m[c]`` the hardened-trace cycle of
        the instruction that the original program executed at cycle
        ``c``.  Derived by projecting the hardened golden run through
        :attr:`origin`; the projection is asserted against the original
        golden trace by the callers that have it.
        """
        origin = self.origin
        return [cycle for cycle, pp in enumerate(hardened_golden.executed)
                if origin[pp] is not None]

    def projected_path(self, hardened_trace):
        """The hardened trace's executed path with inserted instructions
        dropped and the survivors translated to original program points
        (equals the original golden path on fault-free runs)."""
        origin = self.origin
        return [origin[pp] for pp in hardened_trace.executed
                if origin[pp] is not None]

    def map_upset(self, upset, cycle_map):
        """Translate one original-program upset to the hardened run.

        ``cycle=c`` flips right after the instruction at trace position
        ``c`` completes; the equivalent hardened flip happens right
        after the *copy* of that instruction completes, i.e. inside the
        window where the hardened program's checkers can still observe
        it.  Pre-execution upsets (``cycle=-1``) stay at -1.
        """
        cycle = upset.cycle if upset.cycle < 0 else cycle_map[upset.cycle]
        if isinstance(upset, MemoryInjection):
            return MemoryInjection(cycle, upset.address, upset.bit)
        return Injection(cycle, upset.reg, upset.bit)

    def map_plan(self, plan, hardened_golden):
        """Translate a plan of :class:`~repro.fi.campaign.PlannedRun`
        entries made against the original program."""
        cycle_map = self.cycle_map(hardened_golden)
        return [planned._replace(
                    injection=self.map_upset(planned.injection, cycle_map))
                for planned in plan]

    def __repr__(self):
        return (f"<HardenResult {self.function.name} "
                f"protected={len(self.protected)} shadows={self.n_shadow} "
                f"checks={self.n_check}>")


def _shadow_source(reg, valid, bit, shadow_of):
    return shadow_of[reg] if reg != ZERO and valid & bit[reg] else reg


def _shadow_instruction(instruction, valid, bit, shadow_of):
    """The shadow copy of a protected instruction (placed before it)."""
    copy = instruction.copy()
    copy.rd = shadow_of[instruction.rd]
    copy.rs1 = _shadow_source(copy.rs1, valid, bit, shadow_of) \
        if copy.rs1 is not None else None
    if instruction.format is Format.RRR:
        copy.rs2 = _shadow_source(copy.rs2, valid, bit, shadow_of)
    return copy


def harden_function(function, protected):
    """Apply the hardening transform; returns a :class:`HardenResult`.

    *protected* is a collection of program points; every point must
    name an eligible (value-producing) instruction of *function*.
    An empty *protected* set returns an unmodified copy (the ``none``
    baseline) — no entry inits, no checkers.
    """
    protected = frozenset(protected)
    for pp in protected:
        if not is_eligible(function.instruction_at(pp)):
            raise AnalysisError(
                f"program point p{pp} "
                f"({function.instruction_at(pp)}) is not eligible for "
                f"duplication")
    shadowed = {function.instruction_at(pp).rd for pp in protected}
    if protected:
        shadowed.update(function.params)
    prefix = shadow_prefix(function)
    shadow_of = {reg: prefix + reg for reg in sorted(shadowed)}
    model = OverheadModel(function)
    bit = model.bit

    hardened = Function(function.name, bit_width=function.bit_width,
                        params=function.params)
    new_blocks = [hardened.new_block(block.label)
                  for block in function.blocks]
    origin = []            # original pp per emitted instruction
    attached = []          # attachment pp per emitted instruction
    n_shadow = n_check = n_init = 0

    def emit(index, instruction, source_pp, attached_pp):
        new_blocks[index].append(instruction)
        origin.append(source_pp)
        attached.append(attached_pp)

    entry = function.entry
    if protected:
        entry_pp = entry.instructions[0].pp if entry.instructions else None
        for param in function.params:
            emit(0, mv(shadow_of[param], param), None, entry_pp)
            n_init += 1
    for index, (instruction, pp, _, sync, _, _), valid \
            in model.walk(protected):
        if sync & valid:
            seen = set()
            for reg in instruction.data_reads():
                if valid & bit[reg] and reg not in seen:
                    seen.add(reg)
                    emit(index, check(reg, shadow_of[reg]), None, pp)
                    n_check += 1
        if pp in protected:
            emit(index, _shadow_instruction(instruction, valid, bit,
                                            shadow_of), None, pp)
            n_shadow += 1
        emit(index, instruction.copy(), pp, pp)
    hardened.finalize()
    attached_to = {pp: attached_pp
                   for pp, (source, attached_pp)
                   in enumerate(zip(origin, attached))
                   if source is None and attached_pp is not None}
    return HardenResult(hardened, function, protected, shadow_of,
                        origin, attached_to, n_shadow, n_check, n_init)
