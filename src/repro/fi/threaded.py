"""Threaded-code compilation for the ISA simulator.

The original tuple-tag interpreter (kept as the test-local oracle
``tests/fi/reference.py``) pays a per-cycle tax for decisions that
never change between cycles: a ``kind`` string compare per
instruction, a ``read()`` closure call (with a zero-register test and
a dict lookup) per operand, and :func:`repro.ir.concrete.alu`'s
per-call opcode dispatch.  This module removes that tax with one code
generator, :func:`_tier_source`, which turns a path of program points
into one Python function of straight-line code (a *tier*):

* every register is a dense **slot index** into a plain ``list``
  register file (slot 0 is the hard-wired zero register, never written,
  so zero-reads are the literal ``0``);
* each opcode's arithmetic is inlined from the expression tables below,
  with operand slots and pre-masked immediates spelled out as literals,
  and only results that can overflow re-masked (the register file stays
  masked by construction);
* writes to the zero register, ``nop`` and ``j`` emit no code.

Every tier has the signature ``tier(regs, memory, trace, cycle) ->
(next_pp, path, len(path))`` (``next_pp`` is ``None`` when the run
ends), with the executed path precomputed per exit, and raises
:class:`BlockTrap` carrying the path through the trapping instruction.
:class:`Tiers` holds three kinds per program: a **single step** is the
one-instruction tier of a pp, compiled the first time that pp runs; a
block start entered :data:`HOT_ENTRIES` times is compiled into a
**superblock** along the statically predicted path (backward branches
and branches into a loop taken, other forward ones not, mispredictions
leave through side exits), and its plain **basic block**, for use near
a stop, on its own :data:`HOT_ENTRIES`-th use.  Straight-line code that
runs only a few times is never compiled beyond single steps.

Bit-for-bit equivalence with :mod:`repro.ir.concrete` — and hence with
the reference interpreter in ``tests/fi/reference.py`` — is enforced by
the differential suites in ``tests/fuzz/test_interp_differential.py`` and
``tests/fi/test_superblocks.py``.
"""

import functools
import re
import sys

from repro.errors import MachineTrap, SimulationError
from repro.fi.trace import TRAP_DETECTED
from repro.ir.concrete import _div_signed, _rem_signed, mask
from repro.ir.instructions import Format, Opcode
from repro.ir.registers import ZERO

# -- expression tables --------------------------------------------------------
#
# Operands ``a`` and ``b`` are raw register images already truncated to
# the machine width (the register-file invariant), so only results that
# can overflow are masked.  Constants available to every expression:
# ``m`` (the width mask), ``width``, ``sign`` (``1 << (width - 1)``) and
# ``shift_mask`` (``width - 1``; widths are powers of two, as in
# RISC-V's shamt rule).  Signed comparisons use the sign-bias trick:
# ``signed(a) < signed(b)  iff  (a ^ sign) < (b ^ sign)``.

_BINARY_EXPR = {
    Opcode.ADD: "(a + b) & m",
    Opcode.ADDI: "(a + b) & m",
    Opcode.SUB: "(a - b) & m",
    Opcode.AND: "a & b",
    Opcode.ANDI: "a & b",
    Opcode.OR: "a | b",
    Opcode.ORI: "a | b",
    Opcode.XOR: "a ^ b",
    Opcode.XORI: "a ^ b",
    Opcode.SLL: "(a << (b & shift_mask)) & m",
    Opcode.SLLI: "(a << (b & shift_mask)) & m",
    Opcode.SRL: "a >> (b & shift_mask)",
    Opcode.SRLI: "a >> (b & shift_mask)",
    Opcode.SRA: "((a - ((a & sign) << 1)) >> (b & shift_mask)) & m",
    Opcode.SRAI: "((a - ((a & sign) << 1)) >> (b & shift_mask)) & m",
    Opcode.SLT: "1 if (a ^ sign) < (b ^ sign) else 0",
    Opcode.SLTI: "1 if (a ^ sign) < (b ^ sign) else 0",
    Opcode.SLTU: "1 if a < b else 0",
    Opcode.SLTIU: "1 if a < b else 0",
    Opcode.MUL: "(a * b) & m",
    Opcode.MULHU: "(a * b) >> width",
    Opcode.DIV: "div_signed(a, b, width)",
    Opcode.DIVU: "m if b == 0 else a // b",
    Opcode.REM: "rem_signed(a, b, width)",
    Opcode.REMU: "a if b == 0 else a % b",
}

_UNARY_EXPR = {
    Opcode.MV: "a",
    Opcode.NOT: "a ^ m",
    Opcode.NEG: "(-a) & m",
    Opcode.SEQZ: "1 if a == 0 else 0",
    Opcode.SNEZ: "1 if a != 0 else 0",
}

_BRANCH_EXPR = {
    Opcode.BEQ: "a == b",
    Opcode.BEQZ: "a == b",
    Opcode.BNE: "a != b",
    Opcode.BNEZ: "a != b",
    Opcode.BLT: "(a ^ sign) < (b ^ sign)",
    Opcode.BGE: "(a ^ sign) >= (b ^ sign)",
    Opcode.BLTU: "a < b",
    Opcode.BGEU: "a >= b",
}

#: Helpers the generated code may call (the rare slow-path opcodes).
_EXEC_GLOBALS = {"div_signed": _div_signed, "rem_signed": _rem_signed}


# -- tiers: single steps, basic blocks and superblocks ------------------------
#
# A tier is one generated function of straight-line code along a path
# of program points, ``tier(regs, memory, trace, cycle) -> (next_pp,
# path, len(path))``: every exit returns a precomputed triple whose
# ``path`` is the prefix executed up to that exit, so the interpreter
# loop records it with one ``extend``.  Register writes go through to
# ``regs`` (so exits need no write-back); a value a later instruction
# of the tier reads again is also kept in a local, and ``li`` constants
# are propagated as literals.

#: Entries after which a block start's superblock, and then its basic
#: block, is compiled (cold code — most of a single golden run's
#: straight-line code — runs as single steps).
HOT_ENTRIES = 64

#: Instruction cap of one tier.
SUPERBLOCK_CAP = 32

#: Tier length where a program point has no superblock or basic block:
#: never fits before a stop, so the loop single-steps it.
NEVER = sys.maxsize


class BlockTrap(MachineTrap):
    """A trap raised inside a tier.  ``path`` is the tier's
    executed path through the trapping instruction, which executed but
    did not complete (so it is recorded, but not counted as a cycle)."""

    def __init__(self, kind, detail, path):
        super().__init__(kind, detail)
        self.path = path


def tier_path(function, first_pp, start, follow):
    """Program points of the tier compiled at block start *start*.

    With *follow* the tier is a superblock: it runs through jumps and
    through conditional branches along their static prediction (see
    :func:`_predicted_taken`); a branch that goes against the
    prediction is a side exit.  Without *follow* the tier is the plain
    basic block, ending at the first control transfer.  Either ends at
    ``ret``, at the end of the function, on reaching a program point it
    already contains, or at :data:`SUPERBLOCK_CAP`.
    """
    instructions = function.instructions
    path = []
    pp = start
    while True:
        instruction = instructions[pp]
        path.append(pp)
        if instruction.opcode is Opcode.RET:
            return path
        following = pp + 1 if pp + 1 < len(instructions) else None
        if instruction.is_terminator:
            if not follow:
                return path
            target = first_pp[instruction.label]
            if instruction.opcode is Opcode.J \
                    or _predicted_taken(function, first_pp, path, target):
                following = target
        if following is None or following in path \
                or len(path) >= SUPERBLOCK_CAP:
            return path
        pp = following


def _predicted_taken(function, first_pp, path, target):
    """Static prediction of the conditional branch ending *path*:
    backward branches are taken and forward ones fall through, except
    that a forward branch into a loop is taken too.  The compiler emits
    head-tested loops (``head: blt i, n, body; j end``) whose
    loop-continue branch is forward, so plain backward-taken /
    forward-not-taken would leave the loop on every iteration.  A
    forward branch enters a loop when its target is already on the
    path (the loop closes) or when straight-line flow from the target
    — falling through conditional branches, following jumps — jumps
    back into the branch's own block."""
    pp = path[-1]
    if target <= pp or target in path:
        return True
    instructions = function.instructions
    head = first_pp[instructions[pp].block.label]
    at = target
    for _ in range(len(instructions)):
        instruction = instructions[at]
        if instruction.opcode is Opcode.J:
            at = first_pp[instruction.label]
            if head <= at <= pp:
                return True
        elif instruction.opcode is Opcode.RET or at + 1 == len(instructions):
            return False
        else:
            at += 1
    return False


def _register_events(instruction, slot):
    """``(reads, write)``: the register slots tier code reads for
    *instruction*, and the one it writes (or ``None``).  The zero
    register is neither; an instruction other than a load that writes
    it is never evaluated, so it reads nothing."""
    if instruction.rd == ZERO and not instruction.is_load:
        return (), None
    written = instruction.data_writes()
    return (tuple(slot(name) for name in instruction.data_reads()),
            slot(written[0]) if written else None)


#: The detail expression of an out-of-bounds trap (as in the reference
#: interpreter, ``tests/fi/reference.py``).
_ADDRESS = 'f"address {address}"'

_NAMES = re.compile(r"\b(a|b|m|sign|shift_mask|width)\b")


def _tier_source(function, slot, first_pp, memory_size, path):
    """``(source, globals)`` of the tier along *path* (from
    :func:`tier_path`); *globals* binds the exit triples and trap paths
    under the names the source uses."""
    instructions = [function.instruction_at(pp) for pp in path]
    width = function.bit_width
    m = mask(width)
    names = {"m": str(m), "sign": str(1 << (width - 1)),
             "shift_mask": str(width - 1), "width": str(width)}
    # Which reads and writes a later instruction of the tier reads again
    # (before overwriting): those values are worth keeping in locals.
    events = [_register_events(instruction, slot)
              for instruction in instructions]
    keep_read = [None] * len(path)
    keep_write = [False] * len(path)
    future = {}
    for k in range(len(path) - 1, -1, -1):
        reads, written = events[k]
        if written is not None:
            keep_write[k] = future.get(written) == "read"
            future[written] = "write"
        keep_read[k] = {read for read in reads if future.get(read) == "read"}
        for read in reads:
            future[read] = "read"
    appends = {}
    for instruction in instructions:
        kind = ("loads" if instruction.is_load
                else "stores" if instruction.is_store
                else "outputs" if instruction.opcode is Opcode.OUT
                else None)
        appends[kind] = appends.get(kind, 0) + 1
    lines = []
    bound = {"BlockTrap": BlockTrap}
    cached = {}                         # slot -> local name or literal
    hoisted = set()

    def constant(value):
        name = f"K{len(bound)}"
        bound[name] = value
        return name

    def leave(k, target):
        executed = tuple(path[:k + 1])
        return f"return {constant((target, executed, len(executed)))}"

    def trap(k, kind, detail):
        return (f"raise BlockTrap({kind!r}, {detail}, "
                f"{constant(tuple(path[:k + 1]))})")

    def read(k, name):
        index = slot(name)
        if not index:
            return "0"
        text = cached.get(index)
        if text is None:
            text = f"regs[{index}]"
            if index in keep_read[k]:
                lines.append(f"r{index} = {text}")
                text = cached[index] = f"r{index}"
        return text

    def write(k, index, value, literal=False):
        if not keep_write[k]:
            cached.pop(index, None)
            lines.append(f"regs[{index}] = {value}")
        elif literal:
            cached[index] = value
            lines.append(f"regs[{index}] = {value}")
        else:
            cached[index] = f"r{index}"
            lines.append(f"r{index} = regs[{index}] = {value}")

    def append(kind, record):
        if appends[kind] < 2:
            lines.append(f"trace.{kind}.append({record})")
            return
        if kind not in hoisted:
            hoisted.add(kind)
            lines.append(f"{kind}_append = trace.{kind}.append")
        lines.append(f"{kind}_append({record})")

    def address(k, instruction):
        base = read(k, instruction.rs1)
        lines.append(f"address = ({base} + {instruction.imm}) & {m}"
                     if instruction.imm else f"address = {base}")

    last = len(path) - 1
    for k, (pp, instruction) in enumerate(zip(path, instructions)):
        opcode = instruction.opcode
        fmt = instruction.format
        nxt = pp + 1 if pp + 1 < len(function.instructions) else None
        if fmt is Format.BRANCH or fmt is Format.BRANCHZ:
            target = first_pp[instruction.label]
            if target == nxt:
                if k == last:
                    lines.append(leave(k, nxt))
                continue
            other = read(k, instruction.rs2) if fmt is Format.BRANCH \
                else "0"
            taken = _inline(_BRANCH_EXPR[opcode],
                            read(k, instruction.rs1), other, names)
            if k == last:
                lines += [f"if {taken}:", f"    {leave(k, target)}",
                          leave(k, nxt)]
            elif path[k + 1] == target:
                lines += [f"if not ({taken}):", f"    {leave(k, nxt)}"]
            else:
                lines += [f"if {taken}:", f"    {leave(k, target)}"]
            continue
        if fmt is Format.JUMP:
            if k == last:
                lines.append(leave(k, first_pp[instruction.label]))
            continue
        if opcode is Opcode.RET:
            value = "None" if instruction.rs1 is None \
                else read(k, instruction.rs1)
            lines += [f"trace.returned = {value}", leave(k, None)]
            break
        if opcode is Opcode.OUT:
            append("outputs", read(k, instruction.rs1))
        elif opcode is Opcode.CHECK:
            detail = repr(f"{instruction.rs1} != {instruction.rs2}")
            lines += [f"if {read(k, instruction.rs1)} != "
                      f"{read(k, instruction.rs2)}:",
                      f"    {trap(k, TRAP_DETECTED, detail)}"]
        elif opcode is Opcode.LI:
            rd = slot(instruction.rd)
            if rd:
                write(k, rd, str(instruction.imm & m), literal=True)
        elif fmt is Format.RR or fmt is Format.RRR or fmt is Format.RRI:
            rd = slot(instruction.rd)
            if rd:
                a = read(k, instruction.rs1)
                if fmt is Format.RR:
                    value = _inline(_UNARY_EXPR[opcode], a, None, names)
                else:
                    b = read(k, instruction.rs2) if fmt is Format.RRR \
                        else str(instruction.imm & m)
                    value = _inline(_BINARY_EXPR[opcode], a, b, names)
                write(k, rd, value)
        elif instruction.is_load:
            address(k, instruction)
            if opcode is Opcode.LW:
                lines += [f"if address > {memory_size - 4}:",
                          f"    {trap(k, 'load-oob', _ADDRESS)}",
                          "value = int.from_bytes("
                          "memory[address:address + 4], 'little')"]
                size, narrow = 4, width < 32
            else:
                lines += [f"if address >= {memory_size}:",
                          f"    {trap(k, 'load-oob', _ADDRESS)}",
                          "value = memory[address]"]
                if opcode is Opcode.LB:
                    lines.append(f"if value >= 128: value |= {m & ~0xFF}")
                size, narrow = 1, width < 8
            cycle = f"cycle + {k}" if k else "cycle"
            append("loads", f"({cycle}, {pp}, address, {size}, "
                            f"{instruction.rd!r})")
            rd = slot(instruction.rd)
            if rd:
                write(k, rd, f"value & {m}" if narrow else "value")
        elif instruction.is_store:
            address(k, instruction)
            value = read(k, instruction.rs2)
            if opcode is Opcode.SW:
                word = f"({value} & 4294967295)" if width > 32 \
                    else f"({value})"
                lines += [f"if address > {memory_size - 4}:",
                          f"    {trap(k, 'store-oob', _ADDRESS)}",
                          f"memory[address:address + 4] = "
                          f"{word}.to_bytes(4, 'little')"]
                append("stores", f"(address, {value}, 4)")
            else:
                lines += [f"if address >= {memory_size}:",
                          f"    {trap(k, 'store-oob', _ADDRESS)}",
                          f"memory[address] = {value} & 255"]
                append("stores", f"(address, {value}, 1)")
        elif opcode is not Opcode.NOP:
            raise SimulationError(f"cannot compile {instruction}")
        if k == last:
            lines.append(leave(k, nxt))
    source = "def tier(regs, memory, trace, cycle):\n" + "".join(
        f"    {line}\n" for line in lines)
    return source, bound


def _inline(expr, a, b, names):
    """*expr* with its operands and width constants spelled out."""
    names = dict(names, a=a, b=b)
    return _NAMES.sub(lambda match: names[match.group(1)], expr)


#: Bytecode cache entries.  Measured distinct tier sources in one
#: process: 736 for golden runs of the 8 evaluation kernels, 869 in a
#: cold nightly sweep's parent, 1031 in the perfbench ``campaign`` job,
#: at about 1.3 KB each; twice the largest keeps every one-instruction
#: tier of those jobs cached.
_CACHED_SOURCES = 2048


@functools.lru_cache(maxsize=_CACHED_SOURCES)
def _compiled(source):
    """Bytecode of a tier's source.  Cached per process: machines of
    the same program (a golden run's and a campaign's) generate the
    same sources and differ only in the bound constants, and
    one-instruction tiers of the same operation on the same slots share
    one source across programs."""
    return compile(source, "<tier>", "exec")


def compile_tier(function, slot, first_pp, memory_size, path):
    """The tier function along *path* (see :func:`_tier_source`)."""
    source, namespace = _tier_source(function, slot, first_pp,
                                     memory_size, path)
    namespace.update(_EXEC_GLOBALS)
    exec(_compiled(source), namespace)  # noqa: S102 - generated code
    return namespace["tier"]


class Tiers:
    """The compiled tiers of one machine's program, indexed by pp.

    ``step_code[pp]`` runs the single instruction at *pp*: it starts out
    as a stub that compiles the one-instruction tier on its first call
    and installs it in place.  ``super_code[pp]``/``block_code[pp]``
    hold the superblock and the basic block compiled at block start
    *pp*, and ``super_len``/``block_len`` their maximum path lengths
    (:data:`NEVER` where there is none).  A block start's superblock
    starts out as a counting stub that single-steps; on its
    :data:`HOT_ENTRIES`-th entry the superblock is compiled and
    installed in place, so a start that turns hot mid-run takes effect
    from its next entry.  A start's basic block only matters near a
    stop, so it gets its own counting stub once the superblock is
    compiled (unless the two are the same code).

    ``slot`` maps a register name to its slot in the machine's slot
    table, which is fixed at decode and names every register of the
    program, so code compiled lazily mid-run fits the register file it
    runs on.
    """

    __slots__ = ("super_len", "super_code", "block_len", "block_code",
                 "step_code", "_function", "_slot", "_first_pp",
                 "_memory_size")

    def __init__(self, function, slot, first_pp, memory_size):
        self._function = function
        self._slot = slot
        self._first_pp = first_pp
        self._memory_size = memory_size
        total = len(function.instructions)
        self.step_code = [self._first_step(pp) for pp in range(total)]
        self.super_len = [NEVER] * total
        self.super_code = [None] * total
        self.block_len = [NEVER] * total
        self.block_code = [None] * total
        for start in set(first_pp.values()):
            self.super_len[start] = 1
            self.super_code[start] = self._counter(start, True)

    def _compile(self, path):
        return compile_tier(self._function, self._slot, self._first_pp,
                            self._memory_size, path)

    def _first_step(self, pp):
        def tier(regs, memory, trace, cycle):
            code = self.step_code[pp] = self._compile([pp])
            return code(regs, memory, trace, cycle)
        return tier

    def _counter(self, start, follow):
        step_code = self.step_code
        entries = 0

        def tier(regs, memory, trace, cycle):
            nonlocal entries
            entries += 1
            if entries >= HOT_ENTRIES:
                self.compile(start, follow)
            return step_code[start](regs, memory, trace, cycle)
        return tier

    def compile(self, start, follow):
        """Compile and install the superblock (*follow*) or the basic
        block of block start *start*."""
        path = tier_path(self._function, self._first_pp, start, follow)
        code = self._compile(path)
        if not follow:
            self.block_len[start] = len(path)
            self.block_code[start] = code
            return
        self.super_len[start] = len(path)
        self.super_code[start] = code
        if path == tier_path(self._function, self._first_pp, start,
                             False):
            self.block_len[start] = len(path)
            self.block_code[start] = code
        else:
            self.block_len[start] = 1
            self.block_code[start] = self._counter(start, False)
