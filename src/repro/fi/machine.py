"""ISA-level simulator for the IR (the reproduction's SPIKE).

The machine executes one finalized function with a register file, a flat
byte-addressed memory and a cycle counter (one instruction per cycle).
It supports *single-event-upset* fault injection: a single bit of a
register is flipped after a given dynamic cycle, exactly the model the
paper uses for its campaigns (one fault per run, faults persist until
overwritten).

Two execution cores share the machine's public API and produce
bit-identical traces:

* the **threaded core** (the default): registers live in a dense
  ``list`` indexed by decode-time slot numbers, and code runs as
  *tiers* generated by :mod:`repro.fi.threaded` — straight-line Python
  functions along a path of instructions: one instruction (a single
  step, compiled the first time it runs), and, for hot block starts, a
  superblock and a basic block.  Injections, snapshots, convergence
  checks and the cycle budget are handled at precomputed cycle
  boundaries, and between two of them the loop runs the largest tier
  that fits — else a single step;
* the **batched core** (``core="batched"``): a campaign-level core —
  :class:`repro.fi.engine.CampaignEngine` executes the whole plan with
  NumPy-vectorized lockstep lanes (:mod:`repro.fi.batch`, one lane per
  planned injection along the golden path).  Single runs on a batched
  machine (:meth:`Machine.run`, :meth:`Machine.run_from`) execute on
  the threaded core, which is also where divergent lanes escape to,
  so per-run semantics are by construction identical.

The slot table is fixed at decode: slot 0 is ``zero``, then the
parameters, then every register an instruction names.  An injection or
input naming a register outside it has no slot; no instruction reads
such a register, so the threaded core drops it and the batched core
runs its plan entry on the scalar path.  Every snapshot is a slot list
in this layout, whichever core the machine uses: snapshots are always
captured on the threaded core.

All arithmetic is bit-accurate: the threaded core inlines the
semantics of :mod:`repro.ir.concrete`, the same definitions the static
analyses use, in the code it generates.  The original tuple-tag
interpreter, which calls those definitions directly, is kept as a
test-local oracle (``tests/fi/reference.py``); the differential suites
check both cores against it trace for trace.
"""

from repro.errors import SimulationError
from repro.fi import threaded
from repro.fi.trace import OUTCOME_OK, OUTCOME_TIMEOUT, OUTCOME_TRAP, Trace
from repro.ir.concrete import mask
from repro.ir.instructions import Opcode
from repro.ir.registers import ZERO

#: Default dynamic instruction budget per run.
DEFAULT_MAX_CYCLES = 2_000_000


class Injection:
    """A single-event upset: flip *bit* of *reg* right after *cycle*.

    ``cycle`` counts executed instructions; ``cycle=t`` flips the bit
    after the instruction at trace position ``t`` completes, i.e. inside
    the fault window that opens at that access.  ``cycle=-1`` flips the
    bit before execution starts.

    The bit index is validated against the actual register width when
    the injection meets a machine (:meth:`Machine.run`), so a campaign
    plan with out-of-range sites fails loudly instead of silently
    flipping nothing.
    """

    __slots__ = ("cycle", "reg", "bit")

    def __init__(self, cycle, reg, bit):
        if reg == ZERO:
            raise SimulationError("the zero register has no fault sites")
        self.cycle = cycle
        self.reg = reg
        self.bit = bit

    def __repr__(self):
        return f"Injection(cycle={self.cycle}, reg={self.reg!r}, bit={self.bit})"

    def __eq__(self, other):
        if type(other) is not Injection:
            return NotImplemented
        return (self.cycle, self.reg, self.bit) == \
            (other.cycle, other.reg, other.bit)

    def __hash__(self):
        return hash((Injection, self.cycle, self.reg, self.bit))


class MemoryInjection:
    """A single-event upset in memory: flip bit *bit* of the word at
    *address* right after *cycle* (same cycle convention as
    :class:`Injection`; ``cycle=-1`` flips before execution starts).

    ``bit`` indexes little-endian within the word starting at
    *address*: bit 11 flips bit 3 of the byte at ``address + 1``.
    The paper's model covers this case explicitly — "data points may
    refer to memory cells if data in memory is modeled" (§II).  Targets
    past the machine's memory are rejected when the injection meets a
    machine, not silently ignored.
    """

    __slots__ = ("cycle", "address", "bit")

    def __init__(self, cycle, address, bit):
        if address < 0:
            raise SimulationError("negative memory address")
        if bit < 0:
            raise SimulationError("negative bit index")
        self.cycle = cycle
        self.address = address
        self.bit = bit

    def __repr__(self):
        return (f"MemoryInjection(cycle={self.cycle}, "
                f"address={self.address}, bit={self.bit})")

    def __eq__(self, other):
        if type(other) is not MemoryInjection:
            return NotImplemented
        return (self.cycle, self.address, self.bit) == \
            (other.cycle, other.address, other.bit)

    def __hash__(self):
        return hash((MemoryInjection, self.cycle, self.address, self.bit))


class Snapshot:
    """Point-in-time image of a machine mid-run (a checkpoint).

    Snapshots are taken during *clean* (injection-free) runs at
    configurable cycle intervals; :meth:`Machine.run_from` restores one
    and executes only the tail, which is what makes exhaustive
    campaigns O(runs × avg-tail) instead of O(runs × trace-length).

    ``registers`` is the threaded core's slot-indexed register file,
    laid out by ``reg_names`` (the machine's slot table, fixed at
    decode), so any machine of the same function restores it with one
    ``list()`` copy; :meth:`register_dict` gives it by name.  The trace
    prefix is not copied eagerly: a snapshot keeps a reference to the
    (immutable once the golden run finishes) golden trace plus the
    prefix lengths, and :meth:`Machine.run_from` slices the prefix per
    resumed run.  ``memory`` is stored as immutable :class:`bytes` so
    each restore is a single copy, and consecutive snapshots of one run
    whose memory did not change share one ``bytes`` object.
    """

    __slots__ = ("cycle", "pc", "registers", "memory", "trace",
                 "n_executed", "n_outputs", "n_stores", "n_loads",
                 "reg_names")

    def __init__(self, cycle, pc, registers, memory, trace, reg_names):
        self.cycle = cycle
        self.pc = pc
        self.registers = registers
        self.memory = memory
        self.trace = trace
        self.reg_names = reg_names
        self.n_executed = len(trace.executed)
        self.n_outputs = len(trace.outputs)
        self.n_stores = len(trace.stores)
        self.n_loads = len(trace.loads)

    def register_dict(self):
        """Register file as a ``{name: value}`` dict (the zero register
        is omitted)."""
        return {name: value
                for name, value in zip(self.reg_names, self.registers)
                if name != ZERO}

    def byte_size(self):
        """Approximate in-memory footprint (for accounting/benchmarks)."""
        return len(self.memory) + 16 * len(self.registers) + 64

    def __repr__(self):
        return (f"<Snapshot cycle={self.cycle} pc={self.pc} "
                f"regs={len(self.registers)}>")


def _apply_slot_upset(upset, slot_of, registers, memory):
    """Flip the bit named by *upset* in a slot-indexed register file or
    memory.  Validation guarantees the bit is inside the register width
    and the memory target is in bounds, so no masking is needed; a
    register outside the slot table is never read, so its flip is
    dropped."""
    if isinstance(upset, MemoryInjection):
        memory[upset.address + upset.bit // 8] ^= 1 << (upset.bit % 8)
    else:
        slot = slot_of.get(upset.reg)
        if slot is not None:
            registers[slot] ^= 1 << upset.bit


def _sorted_upsets(injection):
    if injection is None:
        return []
    if isinstance(injection, (list, tuple)):
        return sorted(injection, key=lambda upset: upset.cycle)
    return [injection]


def _snapshot_image(memory, previous):
    """Immutable copy of *memory* for a snapshot, reusing the previous
    snapshot's image when memory has not changed since (kernels store
    rarely, so most snapshots of a run then share a handful of
    images)."""
    if previous is not None and previous == memory:
        return previous
    return bytes(memory)


class Machine:
    """Executable image of one function plus a memory.

    ``core`` selects the execution core: ``"threaded"`` (default) or
    ``"batched"`` (lockstep-vectorized *campaign* execution — single
    runs on such a machine use the threaded core).  Both produce
    bit-identical traces and campaign aggregates, which the test suite
    checks against the reference interpreter in
    ``tests/fi/reference.py``.
    """

    #: Valid ``core`` arguments.
    CORES = ("threaded", "batched")

    def __init__(self, function, memory_size=1 << 16, memory_image=None,
                 core="threaded"):
        if core not in self.CORES:
            raise SimulationError(f"unknown execution core {core!r}")
        self.function = function
        self.width = function.bit_width
        self.memory_size = memory_size
        self.memory_image = bytes(memory_image or b"")
        self.core = core
        if len(self.memory_image) > memory_size:
            raise SimulationError("memory image larger than memory")
        self._value_mask = mask(self.width)
        self._decode()

    # -- decode ------------------------------------------------------------------

    def _decode(self):
        function = self.function
        self._first_pp = {}
        for block in function.blocks:
            if block.instructions:
                self._first_pp[block.label] = block.instructions[0].pp
        # The slot table is fixed here: code compiled lazily mid-run
        # finds every register it names, and every snapshot of the
        # function shares one layout.
        names = [ZERO, *function.params]
        for instruction in function.instructions:
            names += instruction.writes() + instruction.reads()
        self._reg_of = tuple(dict.fromkeys(names))
        self._slot_of = {reg: slot for slot, reg in enumerate(self._reg_of)}
        self._tiers = None      # built on first run

    def _threaded_ops(self):
        """The threaded core's :class:`~repro.fi.threaded.Tiers`,
        built on first use."""
        if self._tiers is None:
            self._tiers = threaded.Tiers(self.function,
                                         self._slot_of.__getitem__,
                                         self._first_pp, self.memory_size)
        return self._tiers

    # -- fault-site validation ---------------------------------------------------

    def _prepare_upsets(self, injection):
        """Sort the upsets and validate every site against this machine
        (register width, memory bounds) so bad campaign plans fail
        loudly before any simulation happens."""
        upsets = _sorted_upsets(injection)
        for upset in upsets:
            if isinstance(upset, MemoryInjection):
                if upset.address + upset.bit // 8 >= self.memory_size:
                    raise SimulationError(
                        f"memory injection at address {upset.address} "
                        f"bit {upset.bit} is outside the "
                        f"{self.memory_size}-byte memory")
            else:
                if not 0 <= upset.bit < self.width:
                    raise SimulationError(
                        f"injection bit {upset.bit} is outside the "
                        f"{self.width}-bit register {upset.reg!r}")
        return upsets

    # -- execution ---------------------------------------------------------------

    def run(self, regs=None, injection=None, max_cycles=DEFAULT_MAX_CYCLES,
            snapshot_interval=None, snapshots=None):
        """Execute from the entry block; returns a :class:`Trace`.

        ``regs`` provides initial register values (parameters).
        ``injection``, if given, is a single :class:`Injection` /
        :class:`MemoryInjection` or a sequence of them — multi-event
        upsets model the double-bit flips that exceed EDAC's correction
        capability (paper §I), each applied at its own cycle.

        With ``snapshot_interval=N`` (clean runs only — snapshots of a
        faulted run would poison every resumed tail) a :class:`Snapshot`
        is appended to the ``snapshots`` list every N executed
        instructions, starting at cycle 0.  Runs execute on the threaded
        core whichever core the machine uses.
        """
        upsets = self._prepare_upsets(injection)
        if upsets:
            # Never snapshot a faulted run — a pre-execution (cycle=-1)
            # upset would otherwise leave `upsets` empty by the time
            # the interpreter checks, poisoning every resumed tail.
            snapshot_interval = snapshots = None
        self._threaded_ops()
        registers = [0] * len(self._reg_of)
        slot_of = self._slot_of
        if regs:
            value_mask = self._value_mask
            for reg, value in regs.items():
                slot = slot_of.get(reg)
                if slot:        # neither zero nor outside the slot table
                    registers[slot] = value & value_mask
        memory = bytearray(self.memory_size)
        memory[:len(self.memory_image)] = self.memory_image
        trace = Trace()
        while upsets and upsets[0].cycle == -1:
            _apply_slot_upset(upsets.pop(0), slot_of, registers, memory)
        return self._execute_threaded(registers, memory, trace, 0, 0,
                                      upsets, max_cycles,
                                      snapshot_interval=snapshot_interval,
                                      snapshots=snapshots)

    def run_with_snapshots(self, regs=None, interval=64,
                           max_cycles=DEFAULT_MAX_CYCLES):
        """Clean (golden) run that also captures checkpoints.

        Returns ``(trace, snapshots)`` where ``snapshots`` is sorted by
        cycle and starts with the initial (cycle-0) state.
        """
        if interval <= 0:
            raise SimulationError("snapshot interval must be positive")
        snapshots = []
        trace = self.run(regs=regs, max_cycles=max_cycles,
                         snapshot_interval=interval, snapshots=snapshots)
        return trace, snapshots

    def run_from(self, snapshot, injection=None,
                 max_cycles=DEFAULT_MAX_CYCLES, converge=None, tails=None):
        """Resume from *snapshot* and execute only the tail.

        Produces a trace bit-identical to a full :meth:`run` with the
        same ``injection``, provided every upset fires at or after the
        snapshot point (``upset.cycle >= snapshot.cycle``; ``cycle=-1``
        pre-execution upsets require the cycle-0 snapshot).  ``cycle``
        and ``max_cycles`` remain absolute, so timeout classification
        matches the full run as well.

        ``converge`` may pass the full snapshot list of the same golden
        run: when the resumed run reaches a later snapshot's cycle with
        exactly that snapshot's machine state (pc, registers, memory),
        its remaining execution is provably identical to the golden
        run's, so the golden suffix is spliced onto the trace instead
        of being re-executed — masked runs then cost
        O(fault-lifetime + interval) instead of O(tail).

        ``tails`` may pass the campaign's
        :class:`repro.fi.tails.TailMemo` (with ``converge``, after its
        ``begin(snapshot)``): at the first ``tails.stops`` of those
        stops where the golden check fails, the run probes the memo
        with its state.  On a hit an earlier run of the campaign
        reached the same state with the same trace so far, so the rest
        of the trace is that run's: the run stops there and the
        returned trace carries the earlier run's ``(effect, signature,
        byte_size)`` record in ``reused`` (its own fields then end at
        the stop).  The test-local reference interpreter
        (``tests/fi/reference.py``) ignores ``converge`` and ``tails``
        and re-executes the whole tail, so its traces check both
        shortcuts instead of using them.
        """
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
        horizon = max([upset.cycle for upset in upsets] + [snapshot.cycle])
        converge = [candidate for candidate in converge or ()
                    if candidate.cycle > horizon]
        self._threaded_ops()
        registers = list(snapshot.registers)
        slot_of = self._slot_of
        while upsets and upsets[0].cycle == -1:
            _apply_slot_upset(upsets.pop(0), slot_of, registers, memory)
        return self._execute_threaded(registers, memory, trace,
                                      snapshot.pc, snapshot.cycle, upsets,
                                      max_cycles, converge=converge,
                                      tails=tails)

    @staticmethod
    def _splice_golden_suffix(trace, snapshot):
        """State reconverged with the golden run at *snapshot*: the
        remaining trace is the golden suffix, verbatim."""
        source = snapshot.trace
        trace.spliced_at = snapshot
        trace.executed.extend(source.executed[snapshot.n_executed:])
        trace.outputs.extend(source.outputs[snapshot.n_outputs:])
        trace.stores.extend(source.stores[snapshot.n_stores:])
        trace.loads.extend(source.loads[snapshot.n_loads:])
        trace.returned = source.returned
        trace.outcome = source.outcome
        trace.trap_kind = source.trap_kind
        trace.cycles = source.cycles
        return trace

    # -- the threaded core -------------------------------------------------------

    def _execute_threaded(self, registers, memory, trace, pc, cycle,
                          upsets, max_cycles, snapshot_interval=None,
                          snapshots=None, converge=None, tails=None):
        """The threaded-code interpreter loop.

        Everything that is *conditional* per cycle in the reference
        interpreter (``tests/fi/reference.py``) — injections, the cycle
        budget, snapshot capture, convergence checks — is turned into a
        precomputed stop cycle,
        and the inner loop runs check-free up to it.  Between stops it
        runs the largest tier that fits before the stop: a hot start's
        superblock, else its basic block, else the single step of the
        current instruction (:mod:`repro.fi.threaded`).  Every tier
        returns ``(next_pc, path, len(path))``; the executed path is
        recorded with one ``extend`` of that precomputed tuple.  A trap
        is a :class:`~repro.fi.threaded.BlockTrap` carrying the path
        through the trapping instruction.  A failed convergence check
        probes *tails* (the first ``tails.stops`` times).
        """
        tiers = self._tiers
        super_len = tiers.super_len
        super_code = tiers.super_code
        block_len = tiers.block_len
        block_code = tiers.block_code
        step_code = tiers.step_code
        executed_extend = trace.executed.extend
        slot_of = self._slot_of
        capture = (snapshot_interval is not None and snapshots is not None
                   and not upsets)
        next_capture = cycle if capture else None
        image = None        # memory of the latest snapshot (shared)
        converge_index = 0
        converge_cycle = converge[0].cycle if converge else None
        probes = tails.stops if tails is not None else 0
        inject_cycle = upsets[0].cycle if upsets else None
        ended_at = None     # pp of the instruction that ended the run
        try:
            while pc is not None:
                stop = max_cycles
                if inject_cycle is not None and inject_cycle + 1 < stop:
                    stop = inject_cycle + 1
                if next_capture is not None and next_capture < stop:
                    stop = next_capture
                if converge_cycle is not None and converge_cycle < stop:
                    stop = converge_cycle
                while cycle < stop:
                    room = stop - cycle
                    if super_len[pc] <= room:
                        code = super_code[pc]
                    elif block_len[pc] <= room:
                        code = block_code[pc]
                    else:
                        code = step_code[pc]
                    pc, path, length = code(registers, memory, trace, cycle)
                    executed_extend(path)
                    cycle += length
                    if pc is None:
                        ended_at = path[-1]
                        break
                if pc is None:
                    break
                # Event order matches the reference interpreter
                # (tests/fi/reference.py): upsets fire at the tail of the
                # previous cycle, then the budget check; capture and
                # convergence follow, all before the instruction at
                # `cycle` executes.
                while upsets and upsets[0].cycle + 1 == cycle:
                    _apply_slot_upset(upsets.pop(0), slot_of, registers,
                                      memory)
                inject_cycle = upsets[0].cycle if upsets else None
                if cycle >= max_cycles:
                    trace.outcome = OUTCOME_TIMEOUT
                    break
                if next_capture is not None and cycle == next_capture:
                    image = _snapshot_image(memory, image)
                    snapshots.append(Snapshot(cycle, pc, registers[:],
                                              image, trace, self._reg_of))
                    next_capture += snapshot_interval
                if converge_cycle is not None and cycle == converge_cycle:
                    candidate = converge[converge_index]
                    if pc == candidate.pc \
                            and registers == candidate.registers \
                            and memory == candidate.memory:
                        return self._splice_golden_suffix(trace, candidate)
                    if probes:
                        probes -= 1
                        record = tails.probe(trace, candidate, pc,
                                             registers)
                        if record is not None:
                            trace.reused = record
                            trace.cycles = cycle
                            return trace
                    converge_index += 1
                    converge_cycle = (converge[converge_index].cycle
                                      if converge_index < len(converge)
                                      else None)
        except threaded.BlockTrap as trap:
            # The tier's path runs through the trapping instruction,
            # which executed but did not complete.
            executed_extend(trap.path)
            cycle += len(trap.path) - 1
            trace.outcome = OUTCOME_TRAP
            trace.trap_kind = trap.kind
        trace.cycles = cycle
        if trace.outcome == OUTCOME_OK and cycle >= max_cycles \
                and ended_at is not None \
                and self.function.instruction_at(ended_at).opcode \
                is Opcode.RET:
            # The reference interpreter (tests/fi/reference.py)
            # classifies a `ret` on exactly the last budgeted cycle as a
            # timeout (its loop re-enters the budget check before
            # noticing the return); match it bit-for-bit.
            trace.outcome = OUTCOME_TIMEOUT
        return trace
