"""Instruction set of the RISC-V-flavoured three-address IR.

The instruction set mirrors the RV32I + M subset the paper's analysis
rules (Algorithm 3) are defined over, plus the usual pseudo-instructions
(``li``, ``mv``, ``seqz``, ``snez``, ``not``, ``neg``, ``beqz``, ``bnez``)
and an ``out`` instruction that makes a value an observable program output
(it plays the role of SPIKE's instrumented output channel in execution
traces).

Each instruction knows which registers it reads and writes
(:meth:`Instruction.reads` / :meth:`Instruction.writes`), which is all the
data-flow analyses need; the concrete semantics live in
:mod:`repro.ir.concrete`.
"""

import enum

from repro.errors import IRError
from repro.ir.registers import ZERO


class Format(enum.Enum):
    """Operand layout of an opcode."""

    RRR = "rrr"          # op rd, rs1, rs2
    RRI = "rri"          # op rd, rs1, imm
    RR = "rr"            # op rd, rs
    RI = "ri"            # op rd, imm
    LOAD = "load"        # op rd, imm(rs1)
    STORE = "store"      # op rs2, imm(rs1)
    BRANCH = "branch"    # op rs1, rs2, label
    BRANCHZ = "branchz"  # op rs1, label
    JUMP = "jump"        # op label
    RET = "ret"          # ret [rs]
    OUT = "out"          # out rs
    CHECK = "check"      # check rs1, rs2
    NOP = "nop"          # nop


class Opcode(enum.Enum):
    """All opcodes understood by the IR, analyses and simulator."""

    # register-register ALU
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SLL = "sll"
    SRL = "srl"
    SRA = "sra"
    SLT = "slt"
    SLTU = "sltu"
    MUL = "mul"
    MULHU = "mulhu"
    DIV = "div"
    DIVU = "divu"
    REM = "rem"
    REMU = "remu"
    # register-immediate ALU
    ADDI = "addi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SLLI = "slli"
    SRLI = "srli"
    SRAI = "srai"
    SLTI = "slti"
    SLTIU = "sltiu"
    # pseudo / unary
    LI = "li"
    MV = "mv"
    NOT = "not"
    NEG = "neg"
    SEQZ = "seqz"
    SNEZ = "snez"
    # memory
    LW = "lw"
    LB = "lb"
    LBU = "lbu"
    SW = "sw"
    SB = "sb"
    # control flow
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    BLTU = "bltu"
    BGEU = "bgeu"
    BEQZ = "beqz"
    BNEZ = "bnez"
    J = "j"
    RET = "ret"
    # misc
    OUT = "out"
    CHECK = "check"
    NOP = "nop"


_FORMATS = {
    Opcode.ADD: Format.RRR, Opcode.SUB: Format.RRR, Opcode.AND: Format.RRR,
    Opcode.OR: Format.RRR, Opcode.XOR: Format.RRR, Opcode.SLL: Format.RRR,
    Opcode.SRL: Format.RRR, Opcode.SRA: Format.RRR, Opcode.SLT: Format.RRR,
    Opcode.SLTU: Format.RRR, Opcode.MUL: Format.RRR, Opcode.MULHU: Format.RRR,
    Opcode.DIV: Format.RRR, Opcode.DIVU: Format.RRR, Opcode.REM: Format.RRR,
    Opcode.REMU: Format.RRR,
    Opcode.ADDI: Format.RRI, Opcode.ANDI: Format.RRI, Opcode.ORI: Format.RRI,
    Opcode.XORI: Format.RRI, Opcode.SLLI: Format.RRI, Opcode.SRLI: Format.RRI,
    Opcode.SRAI: Format.RRI, Opcode.SLTI: Format.RRI, Opcode.SLTIU: Format.RRI,
    Opcode.LI: Format.RI,
    Opcode.MV: Format.RR, Opcode.NOT: Format.RR, Opcode.NEG: Format.RR,
    Opcode.SEQZ: Format.RR, Opcode.SNEZ: Format.RR,
    Opcode.LW: Format.LOAD, Opcode.LB: Format.LOAD, Opcode.LBU: Format.LOAD,
    Opcode.SW: Format.STORE, Opcode.SB: Format.STORE,
    Opcode.BEQ: Format.BRANCH, Opcode.BNE: Format.BRANCH,
    Opcode.BLT: Format.BRANCH, Opcode.BGE: Format.BRANCH,
    Opcode.BLTU: Format.BRANCH, Opcode.BGEU: Format.BRANCH,
    Opcode.BEQZ: Format.BRANCHZ, Opcode.BNEZ: Format.BRANCHZ,
    Opcode.J: Format.JUMP,
    Opcode.RET: Format.RET,
    Opcode.OUT: Format.OUT,
    Opcode.CHECK: Format.CHECK,
    Opcode.NOP: Format.NOP,
}

#: Opcodes that end a basic block.
TERMINATORS = frozenset({
    Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.BLTU,
    Opcode.BGEU, Opcode.BEQZ, Opcode.BNEZ, Opcode.J, Opcode.RET,
})

#: Conditional branches (have both a taken and a fall-through successor).
CONDITIONAL_BRANCHES = frozenset({
    Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.BLTU,
    Opcode.BGEU, Opcode.BEQZ, Opcode.BNEZ,
})

#: Comparison opcodes whose result/target only depends on an (in)equality
#: or ordering test; these are the opcodes the paper's ``eval`` coalescing
#: rule (Algorithm 3, lines 36-39) applies to.
COMPARISONS = frozenset({
    Opcode.SLT, Opcode.SLTU, Opcode.SLTI, Opcode.SLTIU,
    Opcode.SEQZ, Opcode.SNEZ,
}) | CONDITIONAL_BRANCHES

#: Opcodes with memory side effects (scheduling barriers between them).
MEMORY_OPS = frozenset({Opcode.LW, Opcode.LB, Opcode.LBU, Opcode.SW, Opcode.SB})
STORES = frozenset({Opcode.SW, Opcode.SB})
LOADS = frozenset({Opcode.LW, Opcode.LB, Opcode.LBU})

#: Opcodes with externally observable side effects; their relative order
#: must be preserved by any rescheduling.  ``check`` belongs here: it can
#: terminate the run with a detected-fault trap, so moving it across
#: other observable operations would change observable behaviour.
OBSERVABLE_OPS = frozenset({Opcode.OUT, Opcode.SW, Opcode.SB, Opcode.RET,
                            Opcode.CHECK})

_OPCODES_BY_NAME = {op.value: op for op in Opcode}


def opcode_from_name(name):
    """Look up an :class:`Opcode` by its mnemonic."""
    try:
        return _OPCODES_BY_NAME[name]
    except KeyError:
        raise IRError(f"unknown opcode: {name!r}") from None


class Instruction:
    """One three-address instruction.

    Fields that do not apply to the opcode's format are ``None``.  After
    :meth:`repro.ir.function.Function.finalize` each instruction carries
    its global program-point index in :attr:`pp` and a back-reference to
    its basic block in :attr:`block`.
    """

    __slots__ = ("opcode", "rd", "rs1", "rs2", "imm", "label", "pp", "block")

    def __init__(self, opcode, rd=None, rs1=None, rs2=None, imm=None,
                 label=None):
        self.opcode = opcode
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.label = label
        self.pp = None
        self.block = None
        self._check()

    # -- construction checks ------------------------------------------------

    def _check(self):
        fmt = self.format
        need = {
            Format.RRR: ("rd", "rs1", "rs2"),
            Format.RRI: ("rd", "rs1", "imm"),
            Format.RR: ("rd", "rs1"),
            Format.RI: ("rd", "imm"),
            Format.LOAD: ("rd", "rs1", "imm"),
            Format.STORE: ("rs2", "rs1", "imm"),
            Format.BRANCH: ("rs1", "rs2", "label"),
            Format.BRANCHZ: ("rs1", "label"),
            Format.JUMP: ("label",),
            Format.RET: (),
            Format.OUT: ("rs1",),
            Format.CHECK: ("rs1", "rs2"),
            Format.NOP: (),
        }[fmt]
        for field in need:
            if getattr(self, field) is None:
                raise IRError(
                    f"{self.opcode.value}: missing operand {field!r}")
        if self.format in (Format.RRR, Format.RRI, Format.RR, Format.RI,
                           Format.LOAD) and self.rd == ZERO:
            # Writing the zero register is legal RISC-V (a no-op); we keep
            # it representable but most code never generates it.
            pass

    # -- structural properties ----------------------------------------------

    @property
    def format(self):
        return _FORMATS[self.opcode]

    @property
    def is_terminator(self):
        return self.opcode in TERMINATORS

    @property
    def is_conditional_branch(self):
        return self.opcode in CONDITIONAL_BRANCHES

    @property
    def is_store(self):
        return self.opcode in STORES

    @property
    def is_load(self):
        return self.opcode in LOADS

    @property
    def is_memory_op(self):
        return self.opcode in MEMORY_OPS

    @property
    def is_observable(self):
        return self.opcode in OBSERVABLE_OPS

    # -- register accessors --------------------------------------------------

    def reads(self):
        """Registers read by this instruction, including ``zero``."""
        fmt = self.format
        if fmt in (Format.RRR, Format.BRANCH, Format.CHECK):
            return (self.rs1, self.rs2)
        if fmt in (Format.RRI, Format.RR, Format.LOAD, Format.BRANCHZ,
                   Format.OUT):
            return (self.rs1,)
        if fmt is Format.STORE:
            return (self.rs2, self.rs1)
        if fmt is Format.RET:
            return (self.rs1,) if self.rs1 is not None else ()
        return ()

    def writes(self):
        """Registers written by this instruction, including ``zero``."""
        if self.rd is not None:
            return (self.rd,)
        return ()

    def data_reads(self):
        """Registers read, excluding the hard-wired zero register.

        This is the paper's ``read(p)`` set: the data points whose
        corruption can be observed through this instruction.
        """
        return tuple(r for r in self.reads() if r != ZERO)

    def data_writes(self):
        """Registers written, excluding the hard-wired zero register
        (the paper's ``write(p)``)."""
        return tuple(r for r in self.writes() if r != ZERO)

    def data_accesses(self):
        """Registers accessed (read or written), without duplicates."""
        seen = []
        for reg in self.data_reads() + self.data_writes():
            if reg not in seen:
                seen.append(reg)
        return tuple(seen)

    # -- misc -----------------------------------------------------------------

    def copy(self):
        """A fresh, un-finalized copy of this instruction."""
        return Instruction(self.opcode, rd=self.rd, rs1=self.rs1,
                           rs2=self.rs2, imm=self.imm, label=self.label)

    def __repr__(self):
        return f"<Instruction {self}>"

    def __str__(self):
        op = self.opcode.value
        fmt = self.format
        if fmt is Format.RRR:
            return f"{op} {self.rd}, {self.rs1}, {self.rs2}"
        if fmt is Format.RRI:
            return f"{op} {self.rd}, {self.rs1}, {self.imm}"
        if fmt is Format.RR:
            return f"{op} {self.rd}, {self.rs1}"
        if fmt is Format.RI:
            return f"{op} {self.rd}, {self.imm}"
        if fmt is Format.LOAD:
            return f"{op} {self.rd}, {self.imm}({self.rs1})"
        if fmt is Format.STORE:
            return f"{op} {self.rs2}, {self.imm}({self.rs1})"
        if fmt is Format.BRANCH:
            return f"{op} {self.rs1}, {self.rs2}, {self.label}"
        if fmt is Format.BRANCHZ:
            return f"{op} {self.rs1}, {self.label}"
        if fmt is Format.JUMP:
            return f"{op} {self.label}"
        if fmt is Format.RET:
            return f"{op} {self.rs1}" if self.rs1 is not None else op
        if fmt is Format.OUT:
            return f"{op} {self.rs1}"
        if fmt is Format.CHECK:
            return f"{op} {self.rs1}, {self.rs2}"
        return op


# -- convenience constructors -------------------------------------------------

def rrr(opcode, rd, rs1, rs2):
    return Instruction(opcode, rd=rd, rs1=rs1, rs2=rs2)


def rri(opcode, rd, rs1, imm):
    return Instruction(opcode, rd=rd, rs1=rs1, imm=imm)


def li(rd, imm):
    return Instruction(Opcode.LI, rd=rd, imm=imm)


def mv(rd, rs):
    return Instruction(Opcode.MV, rd=rd, rs1=rs)


def load(opcode, rd, base, offset=0):
    return Instruction(opcode, rd=rd, rs1=base, imm=offset)


def store(opcode, src, base, offset=0):
    return Instruction(opcode, rs2=src, rs1=base, imm=offset)


def branch(opcode, rs1, rs2, label):
    return Instruction(opcode, rs1=rs1, rs2=rs2, label=label)


def branchz(opcode, rs, label):
    return Instruction(opcode, rs1=rs, label=label)


def jump(label):
    return Instruction(Opcode.J, label=label)


def ret(rs=None):
    return Instruction(Opcode.RET, rs1=rs)


def out(rs):
    return Instruction(Opcode.OUT, rs1=rs)


def check(rs1, rs2):
    """A redundancy checker: trap with kind ``detected-fault`` when the
    two registers differ, fall through when they agree."""
    return Instruction(Opcode.CHECK, rs1=rs1, rs2=rs2)
