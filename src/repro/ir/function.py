"""Functions and basic blocks.

A :class:`Function` is the unit of analysis (the paper's program
:math:`P = \\{p_0, ..., p_{n-1}\\}`).  It owns an ordered list of
:class:`BasicBlock`; block order matters because a block without an
explicit terminator falls through to the next block in order.

Call :meth:`Function.finalize` after mutating the structure: it assigns
global program-point indices (``Instruction.pp``), wires block
predecessor/successor lists, and validates the CFG.  All analyses require
a finalized function.
"""

from repro.errors import IRError
from repro.ir.instructions import Instruction, Opcode
from repro.ir.registers import ZERO


class BasicBlock:
    """A maximal straight-line sequence of instructions with a label."""

    def __init__(self, label):
        self.label = label
        self.instructions = []
        self.preds = []
        self.succs = []
        self.index = None   # position within the function, set by finalize()

    def append(self, instruction):
        """Append *instruction*; returns it for chaining."""
        if not isinstance(instruction, Instruction):
            raise IRError(f"not an instruction: {instruction!r}")
        self.instructions.append(instruction)
        return instruction

    def extend(self, instructions):
        for instruction in instructions:
            self.append(instruction)

    def __iter__(self):
        return iter(self.instructions)

    def __len__(self):
        return len(self.instructions)

    def __repr__(self):
        return f"<BasicBlock {self.label} ({len(self.instructions)} instrs)>"


class Function:
    """A finalized, analyzable unit of IR.

    Parameters
    ----------
    name:
        Function name (used in printing only).
    bit_width:
        Register width in bits.  The paper's examples use 4; real code
        uses 32.  All analyses and the simulator honour this width.
    params:
        Registers that carry live input values on entry.  They are live-in
        at the entry block and hold unknown (top) bit values.
    """

    def __init__(self, name, bit_width=32, params=()):
        self.name = name
        self.bit_width = bit_width
        self.params = tuple(params)
        self.blocks = []
        self._by_label = {}
        self._finalized = False
        self._instructions = []
        self._registers = []

    # -- construction ----------------------------------------------------------

    def new_block(self, label):
        """Create, register and return a new basic block."""
        if label in self._by_label:
            raise IRError(f"duplicate block label: {label!r}")
        block = BasicBlock(label)
        self.blocks.append(block)
        self._by_label[label] = block
        self._finalized = False
        return block

    def block(self, label):
        try:
            return self._by_label[label]
        except KeyError:
            raise IRError(f"no such block: {label!r}") from None

    # -- finalization -----------------------------------------------------------

    def finalize(self):
        """Assign program points, wire the CFG and validate.

        Returns self for chaining.
        """
        if not self.blocks:
            raise IRError(f"function {self.name!r} has no blocks")
        self._instructions = []
        pp = 0
        for index, block in enumerate(self.blocks):
            block.index = index
            block.preds = []
            block.succs = []
            for position, instruction in enumerate(block.instructions):
                if instruction.is_terminator and \
                        position != len(block.instructions) - 1:
                    raise IRError(
                        f"terminator {instruction} is not last in block "
                        f"{block.label!r}")
                instruction.pp = pp
                instruction.block = block
                self._instructions.append(instruction)
                pp += 1
        registers = set(self.params)
        for instruction in self._instructions:
            registers.update(instruction.data_reads())
            registers.update(instruction.data_writes())
        registers.discard(ZERO)
        self._registers = sorted(registers)
        for index, block in enumerate(self.blocks):
            for successor in self._successor_blocks(index):
                block.succs.append(successor)
                successor.preds.append(block)
        self._finalized = True
        return self

    def _successor_blocks(self, index):
        block = self.blocks[index]
        if not block.instructions:
            return self._fallthrough(index)
        last = block.instructions[-1]
        if last.opcode is Opcode.RET:
            return []
        if last.opcode is Opcode.J:
            return [self.block(last.label)]
        if last.is_conditional_branch:
            taken = self.block(last.label)
            successors = [taken]
            for fall in self._fallthrough(index):
                if fall is not taken:
                    successors.append(fall)
            return successors
        return self._fallthrough(index)

    def _fallthrough(self, index):
        if index + 1 < len(self.blocks):
            return [self.blocks[index + 1]]
        raise IRError(
            f"block {self.blocks[index].label!r} falls through past the "
            f"end of function {self.name!r}")

    # -- finalized accessors ------------------------------------------------------

    def _require_finalized(self):
        if not self._finalized:
            raise IRError(
                f"function {self.name!r} must be finalized before use")

    @property
    def instructions(self):
        """All instructions in program-point order."""
        self._require_finalized()
        return self._instructions

    @property
    def entry(self):
        return self.blocks[0]

    def instruction_at(self, pp):
        self._require_finalized()
        return self._instructions[pp]

    def __len__(self):
        return len(self._instructions) if self._finalized else \
            sum(len(b) for b in self.blocks)

    def registers(self):
        """All data registers accessed anywhere in the function, sorted.

        This is the data-point universe V (excluding the hard-wired zero
        register, which can never hold a fault).  Computed once by
        :meth:`finalize`; each call returns a fresh list.
        """
        self._require_finalized()
        return list(self._registers)

    def compact(self):
        """Remove empty blocks, redirecting their labels to the next
        non-empty block in layout order (their fall-through target).

        Code generators produce empty join blocks (e.g. the end label of
        a nested ``if`` that immediately falls into an outer join); this
        normalizes the CFG before analysis.  Must be called before
        :meth:`finalize`; returns self.
        """
        redirect = {}
        for index, block in enumerate(self.blocks):
            if block.instructions:
                continue
            target = None
            for follower in self.blocks[index + 1:]:
                if follower.instructions:
                    target = follower.label
                    break
            if target is None:
                raise IRError(
                    f"empty block {block.label!r} at end of function "
                    f"{self.name!r} has no fall-through target")
            redirect[block.label] = target
        if not redirect:
            return self
        for block in self.blocks:
            for instruction in block.instructions:
                while instruction.label in redirect:
                    instruction.label = redirect[instruction.label]
        self.blocks = [b for b in self.blocks if b.instructions]
        self._by_label = {b.label: b for b in self.blocks}
        self._finalized = False
        return self

    def copy(self):
        """Deep copy (un-finalized instructions are copied too)."""
        clone = Function(self.name, bit_width=self.bit_width,
                         params=self.params)
        for block in self.blocks:
            new_block = clone.new_block(block.label)
            for instruction in block.instructions:
                new_block.append(instruction.copy())
        if self._finalized:
            clone.finalize()
        return clone

    def __repr__(self):
        return (f"<Function {self.name} blocks={len(self.blocks)} "
                f"width={self.bit_width}>")
