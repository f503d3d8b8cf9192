"""The reference interpreter, kept as a test-local oracle.

:class:`ReferenceMachine` is the original tuple-tag interpreter that
the threaded core of :class:`repro.fi.machine.Machine` replaced: each
instruction decodes to a tagged tuple, registers live in a
``{name: value}`` dict, and all arithmetic goes through
:mod:`repro.ir.concrete`, the definitions the static analyses use.  It
shares none of :mod:`repro.fi.threaded`'s code generation, so the
differential suites (``tests/fuzz/test_interp_differential.py``,
``tests/fi/test_superblocks.py``) and the engine parity tests compare
the threaded and batched cores against it.

It keeps the machine's public API, so a
:class:`repro.fi.engine.CampaignEngine` drives it like any machine:

* :meth:`ReferenceMachine.run` interprets every run, except a clean run
  that captures snapshots, which runs on the threaded path as before
  (every snapshot is a threaded-core slot list);
* :meth:`ReferenceMachine.run_from` re-executes the whole tail from
  ``snapshot.register_dict()`` and ignores ``converge`` and ``tails``,
  so its traces check golden splicing and the tail memo instead of
  using them;
* :meth:`ReferenceMachine.run_with_register_log` also returns one
  register-file dict per executed instruction, taken right after it
  completes and before any injection fires.

An injection or input naming a register outside the machine's slot
table stays in the dict; no instruction reads it.
"""

from repro.errors import MachineTrap, SimulationError
from repro.fi.machine import DEFAULT_MAX_CYCLES, Machine, MemoryInjection
from repro.fi.trace import (OUTCOME_OK, OUTCOME_TIMEOUT, OUTCOME_TRAP,
                            TRAP_DETECTED, Trace)
from repro.ir.concrete import alu, branch_taken, unary
from repro.ir.instructions import Format, Opcode
from repro.ir.registers import ZERO


def whole_trace_interval(golden):
    """A checkpoint interval past *golden*'s last cycle.  A campaign run
    with it takes the one cycle-0 snapshot, so every injected run
    executes from cycle 0, with no later snapshot to reconverge at and
    no convergence stop at which to probe the tail memo: the baseline
    side of the parity tests, which the checkpointed runs must equal."""
    return golden.cycles + 1


def _apply_upset(upset, registers, memory, value_mask):
    """Flip the bit named by *upset* in a dict register file or memory
    (sites are validated up front)."""
    if isinstance(upset, MemoryInjection):
        memory[upset.address + upset.bit // 8] ^= 1 << (upset.bit % 8)
    else:
        registers[upset.reg] = (registers.get(upset.reg, 0)
                                ^ (1 << upset.bit)) & value_mask


class ReferenceMachine(Machine):
    """A :class:`Machine` whose runs execute on the reference
    interpreter."""

    _program = None

    def run(self, regs=None, injection=None, max_cycles=DEFAULT_MAX_CYCLES,
            snapshot_interval=None, snapshots=None):
        upsets = self._prepare_upsets(injection)
        if snapshot_interval is not None and not upsets:
            return super().run(regs, injection, max_cycles,
                               snapshot_interval=snapshot_interval,
                               snapshots=snapshots)
        return self._run(regs, upsets, max_cycles, None)

    def run_with_register_log(self, regs=None, injection=None,
                              max_cycles=DEFAULT_MAX_CYCLES):
        """``(trace, log)``: a run plus one register-file dict per
        executed instruction."""
        log = []
        trace = self._run(regs, self._prepare_upsets(injection),
                          max_cycles, log)
        return trace, log

    def run_from(self, snapshot, injection=None,
                 max_cycles=DEFAULT_MAX_CYCLES, converge=None, tails=None):
        upsets = self._prepare_upsets(injection)
        if upsets and upsets[0].cycle < snapshot.cycle \
                and not (upsets[0].cycle == -1 and snapshot.cycle == 0):
            raise SimulationError(
                f"injection at cycle {upsets[0].cycle} precedes "
                f"snapshot at cycle {snapshot.cycle}")
        memory = bytearray(snapshot.memory)
        trace = Trace()
        source = snapshot.trace
        trace.resumed_from = snapshot
        trace.executed = source.executed[:snapshot.n_executed]
        trace.outputs = source.outputs[:snapshot.n_outputs]
        trace.stores = source.stores[:snapshot.n_stores]
        trace.loads = source.loads[:snapshot.n_loads]
        registers = snapshot.register_dict()
        while upsets and upsets[0].cycle == -1:
            _apply_upset(upsets.pop(0), registers, memory, self._value_mask)
        return self._execute(registers, memory, trace, snapshot.pc,
                             snapshot.cycle, upsets, max_cycles, None)

    def _run(self, regs, upsets, max_cycles, register_log):
        value_mask = self._value_mask
        registers = {}
        if regs:
            for reg, value in regs.items():
                registers[reg] = value & value_mask
        memory = bytearray(self.memory_size)
        memory[:len(self.memory_image)] = self.memory_image
        trace = Trace()
        while upsets and upsets[0].cycle == -1:
            _apply_upset(upsets.pop(0), registers, memory, value_mask)
        return self._execute(registers, memory, trace, 0, 0, upsets,
                             max_cycles, register_log)

    # -- decode ------------------------------------------------------------------

    def _reference_program(self):
        """The tuple-tag decode (compiled on first use)."""
        if self._program is None:
            self._program = self._decode_reference()
        return self._program

    def _decode_reference(self):
        function = self.function
        value_mask = self._value_mask
        program = []
        total = len(function.instructions)
        for instruction in function.instructions:
            pp = instruction.pp
            opcode = instruction.opcode
            fmt = instruction.format
            next_pp = pp + 1 if pp + 1 < total else None
            if fmt is Format.BRANCH or fmt is Format.BRANCHZ:
                target = self._first_pp[instruction.label]
                program.append(("branch", opcode, instruction.rs1,
                                instruction.rs2, target, next_pp))
            elif fmt is Format.JUMP:
                program.append(("jump", self._first_pp[instruction.label]))
            elif opcode is Opcode.RET:
                program.append(("ret", instruction.rs1))
            elif opcode is Opcode.OUT:
                program.append(("out", instruction.rs1, next_pp))
            elif opcode is Opcode.CHECK:
                program.append(("check", instruction.rs1,
                                instruction.rs2, next_pp))
            elif opcode is Opcode.LI:
                program.append(("li", instruction.rd,
                                instruction.imm & value_mask, next_pp))
            elif fmt is Format.RR:
                program.append(("unary", opcode, instruction.rd,
                                instruction.rs1, next_pp))
            elif fmt is Format.RRR:
                program.append(("alu", opcode, instruction.rd,
                                instruction.rs1, instruction.rs2, next_pp))
            elif fmt is Format.RRI:
                program.append(("alui", opcode, instruction.rd,
                                instruction.rs1,
                                instruction.imm & value_mask, next_pp))
            elif instruction.is_load:
                program.append(("load", opcode, instruction.rd,
                                instruction.rs1, instruction.imm, next_pp))
            elif instruction.is_store:
                program.append(("store", opcode, instruction.rs2,
                                instruction.rs1, instruction.imm, next_pp))
            elif opcode is Opcode.NOP:
                program.append(("nop", next_pp))
            else:
                raise SimulationError(f"cannot decode {instruction}")
        return program

    # -- execution ---------------------------------------------------------------

    def _execute(self, registers, memory, trace, pc, cycle, upsets,
                 max_cycles, register_log):
        """The tuple-tag interpreter loop; mutates and returns *trace*
        (and appends to *register_log* unless it is ``None``)."""
        width = self.width
        value_mask = self._value_mask
        program = self._reference_program()
        executed = trace.executed
        outputs = trace.outputs
        stores = trace.stores
        inject_cycle = upsets[0].cycle if upsets else None

        def read(reg):
            if reg == ZERO:
                return 0
            try:
                return registers[reg]
            except KeyError:
                # Reading a never-written register models an unknown
                # power-on value; zero keeps runs deterministic.
                return 0

        memory_size = self.memory_size
        try:
            while pc is not None:
                if cycle >= max_cycles:
                    trace.outcome = OUTCOME_TIMEOUT
                    break
                decoded = program[pc]
                kind = decoded[0]
                executed.append(pc)
                if kind == "alu":
                    _, opcode, rd, rs1, rs2, next_pp = decoded
                    value = alu(opcode, read(rs1), read(rs2), width)
                    if rd != ZERO:
                        registers[rd] = value
                    pc = next_pp
                elif kind == "alui":
                    _, opcode, rd, rs1, imm, next_pp = decoded
                    value = alu(opcode, read(rs1), imm, width)
                    if rd != ZERO:
                        registers[rd] = value
                    pc = next_pp
                elif kind == "li":
                    _, rd, imm, next_pp = decoded
                    if rd != ZERO:
                        registers[rd] = imm
                    pc = next_pp
                elif kind == "unary":
                    _, opcode, rd, rs1, next_pp = decoded
                    value = unary(opcode, read(rs1), width)
                    if rd != ZERO:
                        registers[rd] = value
                    pc = next_pp
                elif kind == "branch":
                    _, opcode, rs1, rs2, target, next_pp = decoded
                    b = read(rs2) if rs2 is not None else 0
                    if branch_taken(opcode, read(rs1), b, width):
                        pc = target
                    else:
                        pc = next_pp
                elif kind == "jump":
                    pc = decoded[1]
                elif kind == "load":
                    _, opcode, rd, base, offset, next_pp = decoded
                    address = (read(base) + offset) & value_mask
                    value = self._load(memory, memory_size, opcode, address)
                    trace.loads.append(
                        (cycle, pc, address,
                         4 if opcode is Opcode.LW else 1, rd))
                    if rd != ZERO:
                        registers[rd] = value & value_mask
                    pc = next_pp
                elif kind == "store":
                    _, opcode, src, base, offset, next_pp = decoded
                    address = (read(base) + offset) & value_mask
                    value = read(src)
                    self._store(memory, memory_size, opcode, address, value)
                    stores.append((address, value,
                                   4 if opcode is Opcode.SW else 1))
                    pc = next_pp
                elif kind == "out":
                    _, rs, next_pp = decoded
                    outputs.append(read(rs))
                    pc = next_pp
                elif kind == "check":
                    _, rs1, rs2, next_pp = decoded
                    if read(rs1) != read(rs2):
                        raise MachineTrap(TRAP_DETECTED,
                                          f"{rs1} != {rs2}")
                    pc = next_pp
                elif kind == "ret":
                    rs = decoded[1]
                    trace.returned = read(rs) if rs is not None else None
                    cycle += 1
                    if register_log is not None:
                        register_log.append(dict(registers))
                    # A flip after `ret` has no observable effect.
                    break
                else:  # nop
                    pc = decoded[1]
                if register_log is not None:
                    register_log.append(dict(registers))
                cycle += 1
                while inject_cycle is not None and cycle - 1 == inject_cycle:
                    _apply_upset(upsets.pop(0), registers, memory,
                                 value_mask)
                    inject_cycle = upsets[0].cycle if upsets else None
        except MachineTrap as trap:
            trace.outcome = OUTCOME_TRAP
            trace.trap_kind = trap.kind
        trace.cycles = cycle
        if trace.outcome == OUTCOME_OK and pc is not None \
                and cycle >= max_cycles:
            trace.outcome = OUTCOME_TIMEOUT
        return trace

    def _load(self, memory, size, opcode, address):
        if opcode is Opcode.LW:
            if address + 4 > size:
                raise MachineTrap("load-oob", f"address {address}")
            return int.from_bytes(memory[address:address + 4], "little")
        if address >= size:
            raise MachineTrap("load-oob", f"address {address}")
        byte = memory[address]
        if opcode is Opcode.LB and byte >= 0x80:
            # Sign-extend to the machine's actual width (a hard-coded
            # 32-bit fill would be wrong for any other bit_width).
            return byte | (self._value_mask & ~0xFF)
        return byte

    @staticmethod
    def _store(memory, size, opcode, address, value):
        if opcode is Opcode.SW:
            if address + 4 > size:
                raise MachineTrap("store-oob", f"address {address}")
            memory[address:address + 4] = (value & 0xFFFFFFFF).to_bytes(
                4, "little")
        else:
            if address >= size:
                raise MachineTrap("store-oob", f"address {address}")
            memory[address] = value & 0xFF
