"""Memory-cell fault modeling (paper §II: "data points may refer to
memory cells if data in memory is modeled by a compiler").

The paper's campaigns target the register file; this module extends the
same machinery to memory.  Because memory addresses are dynamic, the
analysis here is *trace-directed*: the golden trace supplies the loads,
and the static BEC result supplies the maskedness of the register bits
each load writes.

**Fault model.**  One :class:`~repro.fi.machine.MemoryInjection` flips a
single memory bit; like register faults it persists until overwritten.
The inject-on-read population has one candidate injection per bit of
every dynamic load (the fault is placed right before the load).

**Pruning.**  A memory-bit fault is observed only through the loads that
read it before the next store to its byte (its *memory epoch*).  Each
read hands the bit to a register window whose bit-level maskedness BEC
already knows.  Hence, for the loads ``L_i .. L_n`` of one epoch that
see a given bit:

* if the bit is masked at **every** ``L_i .. L_n``, the fault is fully
  masked — no injection needed (analog of Table III "Masked bits");
* if the bit is masked at ``L_i`` but not at some later load, injecting
  before ``L_i`` is equivalent to injecting before ``L_{i+1}`` — one of
  the two runs is inferrable (analog of "Inferrable bits");
* otherwise the injection before ``L_i`` is a distinct required run.

Sign-extending byte loads (``lb``) map memory bit 7 onto register bits
``7 .. width-1`` simultaneously, so that bit counts as masked only when
*all* of those register bits are masked.
"""

from collections import namedtuple

from repro.ir.instructions import Opcode
from repro.ir.registers import ZERO
from repro.fi.campaign import PlannedRun
from repro.fi.machine import MemoryInjection

#: One dynamic observation of a memory bit by a load.
MemoryBitRead = namedtuple(
    "MemoryBitRead",
    ["cycle", "pp", "address", "bit", "reg_bits", "rd"])


def _register_bits_for(opcode, byte_offset, bit, width):
    """Register bits of the load's destination that memory bit *bit* of
    byte *byte_offset* feeds (little-endian).

    Memory bits beyond the register width never enter the register
    (the machine masks loaded values), so they map to no bits at all —
    an empty tuple, which the maskedness check treats as masked.
    """
    if opcode is Opcode.LW:
        position = byte_offset * 8 + bit
        return (position,) if position < width else ()
    if opcode is Opcode.LBU:
        return (bit,) if bit < width else ()
    if opcode is Opcode.LB:
        if bit == 7:
            return tuple(range(7, width))
        return (bit,) if bit < width else ()
    raise ValueError(f"not a load opcode: {opcode}")


def iter_memory_bit_reads(function, trace):
    """Yield one :class:`MemoryBitRead` per bit of every dynamic load."""
    width = function.bit_width
    for cycle, pp, address, size, rd in trace.loads:
        opcode = function.instruction_at(pp).opcode
        for byte_offset in range(size):
            for bit in range(8):
                yield MemoryBitRead(
                    cycle=cycle, pp=pp,
                    address=address + byte_offset,
                    bit=bit,
                    reg_bits=_register_bits_for(opcode, byte_offset, bit,
                                                width),
                    rd=rd)


def _is_masked_read(read, bec):
    """True when the fault arriving via *read* is provably masked."""
    if read.rd == ZERO:
        return True          # the loaded value is discarded
    if not bec.fault_space.has_site(read.pp, read.rd):
        return False
    return all(bec.is_masked(read.pp, read.rd, reg_bit)
               for reg_bit in read.reg_bits)


def _epochs_by_bit(function, trace):
    """Group the dynamic reads of each memory bit into store-delimited
    epochs, in program order.

    Returns ``{(address, bit): [[reads of epoch 0], [epoch 1], ...]}``.
    """
    # Reconstruct store cycles from the executed sequence.
    stores = []
    store_index = 0
    for cycle, pp in enumerate(trace.executed):
        instruction = function.instruction_at(pp)
        if instruction.is_store:
            address, _value, size = trace.stores[store_index]
            stores.append((cycle, address, size))
            store_index += 1

    epochs = {}
    current = {}
    events = []
    for read in iter_memory_bit_reads(function, trace):
        events.append((read.cycle, 1, read))
    for cycle, address, size in stores:
        for byte_offset in range(size):
            for bit in range(8):
                events.append((cycle, 0, (address + byte_offset, bit)))
    events.sort(key=lambda event: (event[0], event[1]))

    for _cycle, kind, payload in events:
        if kind == 0:
            key = payload
            if current.get(key):
                epochs.setdefault(key, []).append(current[key])
                current[key] = []
        else:
            key = (payload.address, payload.bit)
            current.setdefault(key, []).append(payload)
    for key, reads in current.items():
        if reads:
            epochs.setdefault(key, []).append(reads)
    return epochs


def memory_fault_accounting(function, trace, bec):
    """Table-III-style accounting for the memory fault space.

    Returns ``live_in_values`` (one per dynamic load bit),
    ``live_in_bits`` (injections a pruned campaign still needs),
    ``masked_bits``, ``inferrable_bits`` and ``pruned_percent``.
    """
    live_in_values = 0
    live_in_bits = 0
    masked = 0
    for reads in _all_epochs(function, trace):
        flags = [_is_masked_read(read, bec) for read in reads]
        live_in_values += len(reads)
        live_in_bits += sum(1 for flag in flags if not flag)
        # Trailing all-masked suffix: fully dead fault windows.
        trailing = 0
        for flag in reversed(flags):
            if not flag:
                break
            trailing += 1
        masked += trailing
    inferrable = live_in_values - live_in_bits - masked
    pruned = 0.0
    if live_in_values:
        pruned = 100.0 * (live_in_values - live_in_bits) / live_in_values
    return {
        "live_in_values": live_in_values,
        "live_in_bits": live_in_bits,
        "masked_bits": masked,
        "inferrable_bits": inferrable,
        "pruned_percent": pruned,
    }


def _all_epochs(function, trace):
    for epoch_list in _epochs_by_bit(function, trace).values():
        for reads in epoch_list:
            yield reads


def _injection_for(read):
    """The inject-on-read injection observing *read*: the bit is flipped
    right before the load executes."""
    return MemoryInjection(read.cycle - 1, read.address, read.bit)


def plan_memory_inject_on_read(function, trace):
    """One injection per bit of every dynamic load (the value-level
    baseline for memory faults)."""
    return [PlannedRun(_injection_for(read), read.pp, None, None)
            for read in iter_memory_bit_reads(function, trace)]


def plan_memory_bec(function, trace, bec):
    """The BEC-pruned memory campaign.

    Within each epoch, a read whose bit is masked is skipped: if every
    later read masks it too the fault is dead, otherwise its effect is
    identical to injecting before the next read (which the plan keeps).
    """
    plan = []
    for reads in _all_epochs(function, trace):
        for read in reads:
            if not _is_masked_read(read, bec):
                plan.append(PlannedRun(_injection_for(read), read.pp,
                                       None, None))
    return plan

