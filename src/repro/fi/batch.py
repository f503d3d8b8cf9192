"""Lockstep-vectorized campaign execution (SIMD across faults).

The threaded core (:mod:`repro.fi.threaded`) made *one* injected run
cheap; campaigns still pay the Python interpreter loop once **per
planned injection**.  This module amortizes that loop across faults:
each function is compiled once into NumPy-vectorized per-opcode
closures whose register file is a matrix of shape ``(slots, lanes)`` —
one lane per planned injection — and all lanes execute **in lockstep
along the golden control-flow path**.

The core invariant is that every *active* lane executes the golden
*path* with the golden *memory effects*.  Each event boundary performs
a vectorized compare against the golden run:

* a branch whose per-lane decision differs from the golden decision, a
  failing ``check``, an out-of-bounds access, or a ``store`` whose
  per-lane (address, value) pair differs from the golden record
  **diverges** — such lanes are retired to a scalar *escape queue* and
  re-executed bit-identically by the threaded core from the deepest
  golden snapshot (the engine's normal resume protocol);
* an ``out``/``ret`` whose per-lane value differs from the golden
  record stays in lockstep — the lane is merely marked *dirty* and the
  per-lane event values are recorded.  A dirty lane that finishes the
  path is a silent data corruption by definition (same executed path,
  different observable value), and its trace signature is rebuilt
  exactly — the hash prefix over the shared executed path is computed
  once and forked per lane with its recorded event values;
* at every snapshot cycle, lanes whose register file re-equals the
  golden snapshot (after their fault fired) are **reconverged**: their
  remaining execution is provably the golden suffix, so they retire on
  the spot — clean lanes as ``masked``, dirty lanes as ``sdc`` with
  the golden suffix spliced onto their recorded events (the vectorized
  form of the engine's golden splicing).

Because store-divergent lanes leave the batch immediately, active
lanes never write memory differently from the golden run, so one
*shared* golden memory image serves every lane (loads gather from it
with per-lane addresses); per-lane state is just the register matrix.
Lanes are grouped by snapshot window — each batch joins at the deepest
snapshot before its injection cycle — and free lanes are refilled from
the next window as earlier lanes retire, so a single sweep down the
golden trace classifies an entire campaign when capacity suffices.

The classifier's contract is exact: masked and sdc lanes produce the
signature and byte size a scalar run of the same trace hashes to, and
every divergent run is produced by the unmodified threaded core — so
``CampaignResult`` aggregates are bit-identical to the scalar engine,
which the parity suite (``tests/fi/test_batch.py``) and the three-way
differential fuzzer enforce against the reference interpreter in
``tests/fi/reference.py``.

NumPy is optional: :func:`numpy_available` gates the whole module and
the engine falls back to the scalar threaded path when it is missing.
"""

import bisect

from repro import obs
from repro.errors import SimulationError
from repro.fi import threaded
from repro.fi.campaign import EFFECT_MASKED, EFFECT_SDC
from repro.fi.machine import Injection
from repro.fi.trace import OUTCOME_OK, SignatureForge
from repro.ir.instructions import Format, Opcode

try:                                       # soft dependency
    import numpy as _np
except ImportError:                        # pragma: no cover - env without numpy
    _np = None

#: Lane count per batch.  Wide enough to amortize the ~1 us
#: NumPy dispatch per vector op across many faults, small enough that a
#: batch's register matrix stays cache-resident.
LANES = 256

#: Widths the uint64 lane arithmetic is exact for (``mul``/``mulhu``
#: need the full product to fit in 64 bits).
MAX_BATCH_WIDTH = 32


def numpy_available():
    """Whether the vectorized core can run at all."""
    return _np is not None


def batchable(machine, golden, max_cycles):
    """Whether the lockstep core applies to this campaign setup.

    Requires NumPy, a register width the uint64 lane arithmetic is
    exact for, and a clean golden run that fits the cycle budget (so a
    bit-identical run classifies ``ok``, never ``timeout``).  The
    engine's golden snapshots, which start at cycle 0, are the join
    points of the windows.
    """
    return (_np is not None
            and machine.width <= MAX_BATCH_WIDTH
            and golden.outcome == OUTCOME_OK
            and golden.cycles < max_cycles)


# -- vectorized expression tables ---------------------------------------------
#
# The threaded core's tables (repro.fi.threaded) with NumPy semantics:
# operands ``a``/``b`` are uint64 arrays (or a uint64 scalar immediate)
# already truncated to the machine width, and ``m``, ``sign`` and
# ``shift_mask`` are uint64 scalars.  Most entries read the same either
# way; these are the NumPy spellings of the rest.  Arithmetic right
# shift uses the fill trick (logical shift with the top ``sh`` bits set
# for negative values) because uint64 ``>>`` is logical; signed
# division/remainder run in int64, exact for widths <= 32.

_NUMPY_EXPR = {
    Opcode.SRA: "vsra(a, b & shift_mask, m, sign, np)",
    Opcode.SRAI: "vsra(a, b & shift_mask, m, sign, np)",
    Opcode.SLT: "((a ^ sign) < (b ^ sign)).astype(np.uint64)",
    Opcode.SLTI: "((a ^ sign) < (b ^ sign)).astype(np.uint64)",
    Opcode.SLTU: "(a < b).astype(np.uint64)",
    Opcode.SLTIU: "(a < b).astype(np.uint64)",
    Opcode.MULHU: "(a * b) >> width64",
    Opcode.DIV: "vdiv(a, b, m, width, np)",
    Opcode.DIVU: "np.where(b == 0, m, a // np.where(b == 0, one, b))",
    Opcode.REM: "vrem(a, b, m, width, np)",
    Opcode.REMU: "np.where(b == 0, a, a % np.where(b == 0, one, b))",
    Opcode.NEG: "(m + one - a) & m",
    Opcode.SEQZ: "(a == 0).astype(np.uint64)",
    Opcode.SNEZ: "(a != 0).astype(np.uint64)",
}


def _signed(value, sign, width, np):
    """int64 two's-complement reinterpretation of uint64 images."""
    wide = np.asarray(value, dtype=np.int64)
    return np.where(np.asarray(value & sign, dtype=np.uint64) != 0,
                    wide - np.int64(1 << width), wide)


def _vsra(a, sh, m, sign, np):
    logical = a >> sh
    fill = (m >> sh) ^ m
    return np.where((a & sign) != 0, logical | fill, logical)


def _vdiv(a, b, m, width, np):
    sa = _signed(a, np.uint64(1) << np.uint64(width - 1), width, np)
    sb = _signed(b, np.uint64(1) << np.uint64(width - 1), width, np)
    zero = sb == 0
    safe = np.where(zero, np.int64(1), sb)
    quotient = np.abs(sa) // np.abs(safe)
    quotient = np.where((sa < 0) != (sb < 0), -quotient, quotient)
    min_int = np.int64(-(1 << (width - 1)))
    quotient = np.where((sa == min_int) & (sb == -1), min_int, quotient)
    return np.where(zero, m, quotient.astype(np.uint64) & m)


def _vrem(a, b, m, width, np):
    sa = _signed(a, np.uint64(1) << np.uint64(width - 1), width, np)
    sb = _signed(b, np.uint64(1) << np.uint64(width - 1), width, np)
    zero = sb == 0
    safe = np.where(zero, np.int64(1), sb)
    remainder = np.abs(sa) % np.abs(safe)
    remainder = np.where(sa < 0, -remainder, remainder)
    min_int = np.int64(-(1 << (width - 1)))
    remainder = np.where((sa == min_int) & (sb == -1),
                         np.int64(0), remainder)
    return np.where(zero, a, remainder.astype(np.uint64) & m)


# -- closure factories --------------------------------------------------------
#
# Every step closure has the uniform signature
# ``step(R, mem, cycle, ctx) -> diverged``: ``R`` is the (slots,
# lanes) uint64 register matrix, ``mem`` the shared golden memory
# (uint8), ``ctx`` the live sweep context (golden per-cycle event
# records plus the dirty-lane bookkeeping).  The return value is
# ``None`` (no divergence possible) or a boolean lane mask of lanes
# that must escape to the scalar core.

_RRR_TEMPLATE = """\
def _make(rd, rs1, rs2, m, width, width64, sign, shift_mask, one, np):
    def step(R, mem, cycle, ctx):
        a = R[rs1]
        b = R[rs2]
        R[rd] = {expr}
        return None
    return step
"""

_RRI_TEMPLATE = """\
def _make(rd, rs1, b, m, width, width64, sign, shift_mask, one, np):
    def step(R, mem, cycle, ctx):
        a = R[rs1]
        R[rd] = {expr}
        return None
    return step
"""

_UNARY_TEMPLATE = """\
def _make(rd, rs1, m, width, width64, sign, shift_mask, one, np):
    def step(R, mem, cycle, ctx):
        a = R[rs1]
        R[rd] = {expr}
        return None
    return step
"""

_BRANCH_TEMPLATE = """\
def _make(rs1, rs2, m, width, width64, sign, shift_mask, one, np):
    def step(R, mem, cycle, ctx):
        a = R[rs1]
        b = R[rs2]
        taken = {expr}
        if ctx.taken_at[cycle]:
            return ~taken
        return taken
    return step
"""

_EXEC_GLOBALS = {"vsra": _vsra, "vdiv": _vdiv, "vrem": _vrem}


def _build(template, expr):
    namespace = dict(_EXEC_GLOBALS)
    exec(template.format(expr=expr), namespace)  # noqa: S102 - static templates
    return namespace["_make"]


def _makers(template, table):
    """One closure factory per opcode of *table*, compiled once at
    import (the slots are bound per program point by calling it)."""
    return {op: _build(template, _NUMPY_EXPR.get(op, expr))
            for op, expr in table.items()}


_RRR_MAKERS = _makers(_RRR_TEMPLATE, threaded._BINARY_EXPR)
_RRI_MAKERS = _makers(_RRI_TEMPLATE, threaded._BINARY_EXPR)
_UNARY_MAKERS = _makers(_UNARY_TEMPLATE, threaded._UNARY_EXPR)
_BRANCH_MAKERS = _makers(_BRANCH_TEMPLATE, threaded._BRANCH_EXPR)


def _make_li(rd, value, np):
    value = np.uint64(value)

    def step(R, mem, cycle, ctx):
        R[rd] = value
        return None
    return step


def _make_out(rs):
    # A differing `out` value does not leave the golden path: the lane
    # is marked dirty and its event value recorded, to be rebuilt into
    # an exact sdc trace when the lane retires.
    def step(R, mem, cycle, ctx):
        index, golden_value = ctx.out_at[cycle]
        values = R[rs]
        differ = values != golden_value
        if differ.any():
            ctx.clean &= ~differ
            ctx.out_vals[index] = values.copy()
        elif index in ctx.out_vals:
            # Refresh a vector recorded by an earlier pass over this
            # event (lanes are repacked between passes).
            ctx.out_vals[index] = values.copy()
        return None
    return step


def _make_check(rs1, rs2):
    def step(R, mem, cycle, ctx):
        return R[rs1] != R[rs2]
    return step


def _make_ret(rs, returned, np):
    if rs is None:
        return None                      # ``ret`` with no value: no compare
    value = np.uint64(returned)

    def step(R, mem, cycle, ctx):
        values = R[rs]
        differ = values != value
        ctx.ret_vals = values.copy()
        if differ.any():
            ctx.clean &= ~differ
        return None
    return step


def _make_load(opcode, rd, base, offset, m, memory_size, np):
    # Offsets may be negative; folding them modulo 2**64 keeps the
    # uint64 address addition exact modulo the width mask.
    off = np.uint64(offset % (1 << 64))
    sign_fill = np.uint64(int(m) & ~0xFF)
    if opcode is Opcode.LW:
        limit = np.uint64(memory_size - 4)

        def step(R, mem, cycle, ctx):
            address = (R[base] + off) & m
            oob = address > limit
            idx = np.minimum(address, limit).astype(np.intp)
            value = (mem[idx].astype(np.uint64)
                     | mem[idx + 1].astype(np.uint64) << np.uint64(8)
                     | mem[idx + 2].astype(np.uint64) << np.uint64(16)
                     | mem[idx + 3].astype(np.uint64) << np.uint64(24))
            if rd:
                R[rd] = value & m
            return oob
    else:
        limit = np.uint64(memory_size - 1)
        signed = opcode is Opcode.LB

        def step(R, mem, cycle, ctx):
            address = (R[base] + off) & m
            oob = address > limit
            idx = np.minimum(address, limit).astype(np.intp)
            value = mem[idx].astype(np.uint64)
            if signed:
                value = np.where(value >= 0x80, value | sign_fill, value)
            if rd:
                R[rd] = value & m
            return oob
    return step


def _make_store(src, base, offset, m, np):
    # Any lane whose (address, value) pair differs from the golden
    # store record escapes — keeping it would fork the shared memory —
    # and the remaining lanes all write the golden bytes, which the
    # shared memory applies once.
    off = np.uint64(offset % (1 << 64))

    def step(R, mem, cycle, ctx):
        g_addr, g_value, g_lo, g_hi, g_image = ctx.store_at[cycle]
        address = (R[base] + off) & m
        diverged = (address != g_addr) | (R[src] != g_value)
        mem[g_lo:g_hi] = g_image
        return diverged
    return step


def compile_batch_ops(function, slot, first_pp, memory_size, golden_returned):
    """Compile *function* into lockstep step closures, one per program
    point (``None`` where the instruction can neither write state nor
    diverge).  The per-opcode semantics are those of the threaded
    core's tier generator (:func:`repro.fi.threaded._tier_source`),
    vectorized across lanes; ``slot`` is the owning machine's
    register-slot mapper."""
    np = _np
    width = function.bit_width
    m = np.uint64((1 << width) - 1)
    sign = np.uint64(1 << (width - 1))
    shift_mask = np.uint64(width - 1)
    width64 = np.uint64(width)
    one = np.uint64(1)
    total = len(function.instructions)
    ops = []
    for instruction in function.instructions:
        pp = instruction.pp
        opcode = instruction.opcode
        fmt = instruction.format
        nxt = pp + 1 if pp + 1 < total else None
        if fmt is Format.BRANCH or fmt is Format.BRANCHZ:
            if first_pp[instruction.label] == nxt:
                # Both arms fall through to the same program point: the
                # decision is unobservable in the executed path.
                ops.append(None)
            else:
                rs2 = (slot(instruction.rs2) if fmt is Format.BRANCH
                       else 0)
                ops.append(_BRANCH_MAKERS[opcode](
                    slot(instruction.rs1), rs2, m, width, width64, sign,
                    shift_mask, one, np))
        elif fmt is Format.JUMP or opcode is Opcode.NOP:
            ops.append(None)
        elif opcode is Opcode.RET:
            rs = None if instruction.rs1 is None else slot(instruction.rs1)
            ops.append(_make_ret(rs, golden_returned, np))
        elif opcode is Opcode.OUT:
            ops.append(_make_out(slot(instruction.rs1)))
        elif opcode is Opcode.CHECK:
            ops.append(_make_check(slot(instruction.rs1),
                                   slot(instruction.rs2)))
        elif opcode is Opcode.LI:
            rd = slot(instruction.rd)
            ops.append(_make_li(rd, instruction.imm & int(m), np) if rd
                       else None)
        elif fmt is Format.RR:
            rd = slot(instruction.rd)
            ops.append(_UNARY_MAKERS[opcode](
                rd, slot(instruction.rs1), m, width, width64, sign,
                shift_mask, one, np) if rd else None)
        elif fmt is Format.RRR:
            rd = slot(instruction.rd)
            ops.append(_RRR_MAKERS[opcode](
                rd, slot(instruction.rs1), slot(instruction.rs2), m,
                width, width64, sign, shift_mask, one, np)
                if rd else None)
        elif fmt is Format.RRI:
            rd = slot(instruction.rd)
            ops.append(_RRI_MAKERS[opcode](
                rd, slot(instruction.rs1),
                np.uint64(instruction.imm & int(m)), m, width, width64,
                sign, shift_mask, one, np) if rd else None)
        elif instruction.is_load:
            # A discarded load still probes memory and can trap, so it
            # keeps its bounds check even with rd == zero.
            ops.append(_make_load(
                opcode, slot(instruction.rd), slot(instruction.rs1),
                instruction.imm, m, memory_size, np))
        elif instruction.is_store:
            ops.append(_make_store(
                slot(instruction.rs2), slot(instruction.rs1),
                instruction.imm, m, np))
        else:
            raise SimulationError(f"cannot batch-compile {instruction}")
    return ops


# -- the classifier -----------------------------------------------------------


class _SweepContext:
    """Mutable per-sweep state shared with the step closures: the
    golden per-cycle event records plus the dirty-lane bookkeeping
    (``clean`` flags, recorded ``out``/``ret`` value vectors)."""

    __slots__ = ("taken_at", "out_at", "store_at", "clean", "out_vals",
                 "ret_vals")

    def __init__(self, taken_at, out_at, store_at, clean):
        self.taken_at = taken_at
        self.out_at = out_at
        self.store_at = store_at
        self.clean = clean
        self.out_vals = {}              # out-event index -> lane values
        self.ret_vals = None            # lane return values (last cycle)


class BatchClassifier:
    """Classifies planned runs with the lockstep core.

    Built once per campaign (and inherited by forked workers): holds
    the compiled op table, the golden per-cycle event records and the
    snapshot join points, but not the plan.  :meth:`classify` then
    classifies the rows it is handed — one engine chunk at a time —
    masked runs on the vector path, everything else through the scalar
    escape queue, returning records bit-identical to the scalar
    engine's.
    """

    def __init__(self, machine, golden, snapshots, max_cycles, tails=None):
        if _np is None:
            raise SimulationError("the batched core requires NumPy")
        if not batchable(machine, golden, max_cycles):
            raise SimulationError("campaign setup is not batchable")
        self.machine = machine
        self.golden = golden
        self.snapshots = snapshots
        self.max_cycles = max_cycles
        self.tails = tails              # the campaign's TailMemo or None
        self._masked_record = (EFFECT_MASKED, golden.signature(),
                               golden.byte_size())
        self.ops = compile_batch_ops(machine.function,
                                     machine._slot_of.__getitem__,
                                     machine._first_pp,
                                     machine.memory_size, golden.returned)
        self._build_meta()
        # On-path dirty lanes share the golden executed path, stores
        # and outcome; the forge hashes that prefix once and forks the
        # signature per lane with its recorded outputs/return value.
        # The packed images are the snapshots' golden trace's, the
        # ones the scalar escapes' signatures slice their prefixes from.
        path, stores = snapshots[0].trace.packed()
        self._forge = SignatureForge(len(golden.executed), (path,),
                                     (stores,), golden.outcome,
                                     golden.trap_kind)
        self.snap_cycles = [snapshot.cycle for snapshot in snapshots]
        self._snap_cols = {}
        # Per-classify tallies, flushed to the metrics registry once
        # per call (escape attribution).
        self._escape_counts = {}         # divergence pp -> lanes escaped
        self._retired = {"masked": 0, "sdc": 0}

    # -- setup ----------------------------------------------------------------

    def _build_meta(self):
        """Per-golden-cycle event records for the step closures."""
        np = _np
        function = self.machine.function
        first_pp = self.machine._first_pp
        taken_at = {}
        out_at = {}
        store_at = {}
        executed = self.golden.executed
        n_out = 0
        n_store = 0
        for cycle, pp in enumerate(executed):
            instruction = function.instruction_at(pp)
            fmt = instruction.format
            if fmt is Format.BRANCH or fmt is Format.BRANCHZ:
                target = first_pp[instruction.label]
                if target != pp + 1:
                    taken_at[cycle] = executed[cycle + 1] == target
            elif instruction.opcode is Opcode.OUT:
                out_at[cycle] = (n_out,
                                 np.uint64(self.golden.outputs[n_out]))
                n_out += 1
            elif instruction.is_store:
                address, value, size = self.golden.stores[n_store]
                n_store += 1
                image = (value & 0xFFFFFFFF).to_bytes(4, "little")[:size]
                store_at[cycle] = (np.uint64(address), np.uint64(value),
                                   address, address + size,
                                   np.frombuffer(image, dtype=np.uint8))
        self.taken_at = taken_at
        self.out_at = out_at
        self.store_at = store_at

    def _onpath_sdc_record(self, outputs, returned):
        """The ``(effect, signature, byte_size)`` record of a lane that
        finished the golden path with divergent event values — exactly
        what a scalar run of the same trace produces (same executed
        path and stores imply the golden byte size)."""
        return (EFFECT_SDC, self._forge.signature(outputs, returned),
                self.golden.byte_size())

    def _snap_col(self, index):
        """Snapshot *index*'s register file as a uint64 column."""
        column = self._snap_cols.get(index)
        if column is None:
            column = self._snap_cols[index] = _np.array(
                self.snapshots[index].registers, dtype=_np.uint64)
        return column

    def _snapshot_memory(self, index):
        return _np.frombuffer(self.snapshots[index].memory,
                              dtype=_np.uint8).copy()

    def _snap_at_or_before(self, cycle):
        return bisect.bisect_right(self.snap_cycles, cycle) - 1

    # -- classification --------------------------------------------------------

    def _classify_scalar(self, injection):
        from repro.fi.engine import run_injection

        return run_injection(self.machine, self.golden, injection,
                             self.snapshots, self.max_cycles, self.tails)

    def classify(self, rows):
        """Classify the planned runs *rows*; returns one ``(effect,
        signature, byte_size)`` record per row, in order, bit-identical
        to the scalar engine's records.  Every site is validated first,
        with the simulator's message."""
        machine = self.machine
        slot_of = machine._slot_of
        n_cycles = self.golden.cycles
        # Lane entries are keyed by position in *rows*, not by row: a
        # plan may repeat a row.  Memory faults, multi-event upsets,
        # post-trace flips and registers outside the slot table get no
        # lane: they keep the scalar resume protocol.
        queue = []
        for position, planned in enumerate(rows):
            injection = planned.injection
            machine._prepare_upsets(injection)
            if (type(injection) is Injection
                    and -1 <= injection.cycle < n_cycles
                    and injection.reg in slot_of):
                queue.append((injection.cycle, position,
                              slot_of[injection.reg], 1 << injection.bit))
        queue.sort()
        results = [None] * len(rows)
        while queue:
            queue = self._sweep(queue, rows, results)
        scalar_direct = 0
        for position, planned in enumerate(rows):
            if results[position] is None:
                scalar_direct += 1
                results[position] = self._classify_scalar(planned.injection)
        self._flush_metrics(scalar_direct)
        return results

    def _flush_metrics(self, scalar_direct):
        """Fold this call's tallies into the metrics registry: lanes
        retired in lockstep by outcome class, lanes that escaped to
        the scalar core labeled by the program point/opcode where they
        diverged from the golden path, and plan entries that never had
        a lockstep lane at all (memory faults, multi-event upsets)."""
        registry = obs.metrics()
        retired = self._retired
        for outcome in ("masked", "sdc"):
            if retired[outcome]:
                registry.counter("batch.lanes_retired",
                                 outcome=outcome).inc(retired[outcome])
        if self._escape_counts:
            escaped = sum(self._escape_counts.values())
            registry.counter("batch.lanes_retired",
                             outcome="escape").inc(escaped)
            function = self.machine.function
            for pp, count in sorted(self._escape_counts.items()):
                opcode = function.instruction_at(pp).opcode.name
                registry.counter("batch.escapes", pp=str(pp),
                                 opcode=opcode).inc(count)
        if scalar_direct:
            registry.counter("batch.scalar_direct").inc(scalar_direct)
        self._escape_counts = {}
        self._retired = {"masked": 0, "sdc": 0}

    def _sweep(self, queue, rows, results):
        """One rolling pass down the golden trace.  Consumes as many
        queue entries as lane capacity allows (joining each at its
        window's snapshot, refilling as lanes retire), stores each
        record at its position in *results* and returns the entries
        that must wait for the next pass."""
        np = _np
        machine = self.machine
        golden = self.golden
        n_slots = len(machine._reg_of)
        n_cycles = golden.cycles
        lanes = LANES
        ops = self.ops
        executed = golden.executed
        snap_cycles = self.snap_cycles
        snapshots = self.snapshots

        R = np.zeros((n_slots, lanes), dtype=np.uint64)
        active = np.zeros(lanes, dtype=bool)
        ctx = _SweepContext(self.taken_at, self.out_at, self.store_at,
                            np.ones(lanes, dtype=bool))
        lane_row = [-1] * lanes         # position in rows per lane
        lane_join_out = [0] * lanes     # out-event index at lane join
        lane_fire = np.full(lanes, -2, dtype=np.int64)
        free = list(range(lanes))
        sched = {}                      # fire cycle -> [(lane, slot, bit)]
        escape_counts = self._escape_counts
        retired_counts = self._retired
        escapes = []
        leftovers = []
        qi = 0
        n_queue = len(queue)

        def window_end(snap_index):
            return (snap_cycles[snap_index + 1]
                    if snap_index + 1 < len(snap_cycles) else n_cycles)

        def refill(snap_index):
            """Join pending entries whose window starts at this
            snapshot; entries whose window was passed while every lane
            was busy wait for the next sweep."""
            nonlocal qi
            start = snap_cycles[snap_index]
            end = window_end(snap_index)
            column = None
            while qi < n_queue:
                cycle, position, slot, bit = queue[qi]
                joined = max(cycle, 0)
                if joined < start:
                    leftovers.append(queue[qi])
                    qi += 1
                    continue
                if joined >= end:
                    break
                if not free:
                    break
                if column is None:
                    column = self._snap_col(snap_index)
                lane = free.pop()
                R[:, lane] = column
                lane_row[lane] = position
                lane_join_out[lane] = snapshots[snap_index].n_outputs
                lane_fire[lane] = cycle
                ctx.clean[lane] = True
                if cycle == -1:          # pre-execution flip: apply now
                    R[slot, lane] ^= np.uint64(bit)
                else:
                    sched.setdefault(cycle, []).append((lane, slot, bit))
                active[lane] = True
                qi += 1

        def dirty_record(lane, retire_event, returned):
            """Exact sdc record of an on-path dirty lane: recorded
            event values between join and retirement, golden values
            outside that span (before the join the lane *was* the
            golden run; after a reconvergence retirement its future
            provably is)."""
            join_event = lane_join_out[lane]
            outputs = list(golden.outputs)
            for index, values in ctx.out_vals.items():
                if join_event <= index < retire_event:
                    outputs[index] = int(values[lane])
            return self._onpath_sdc_record(outputs, returned)

        def retire_lanes(mask, retire_event, at_end=False):
            for lane in np.nonzero(mask)[0]:
                lane = int(lane)
                if retire_event is None:          # escape to scalar core
                    escapes.append(lane_row[lane])
                    pp = int(executed[cycle])     # divergence site
                    escape_counts[pp] = escape_counts.get(pp, 0) + 1
                else:
                    if ctx.clean[lane]:
                        record = self._masked_record
                        retired_counts["masked"] += 1
                    elif at_end and ctx.ret_vals is not None:
                        record = dirty_record(lane, retire_event,
                                              int(ctx.ret_vals[lane]))
                        retired_counts["sdc"] += 1
                    else:     # reconverged: the suffix (incl. ret) is golden
                        record = dirty_record(lane, retire_event,
                                              golden.returned)
                        retired_counts["sdc"] += 1
                    results[lane_row[lane]] = record
                active[lane] = False
                lane_fire[lane] = -2
                free.append(lane)

        while qi < n_queue or active.any():
            if not active.any():
                if qi >= n_queue:
                    break
                # Fast-forward: every lane retired, so restart the
                # lockstep state at the next pending entry's window.
                snap_index = self._snap_at_or_before(max(queue[qi][0], 0))
                cycle = snap_cycles[snap_index]
                mem = self._snapshot_memory(snap_index)
                refill(snap_index)
                boundary = snap_index + 1
                if not active.any():     # nothing joinable this sweep
                    break
            while cycle < n_cycles:
                if (boundary < len(snap_cycles)
                        and cycle == snap_cycles[boundary]):
                    # Vectorized reconvergence: lanes whose registers
                    # re-equal the golden snapshot (fault already
                    # fired, shared memory is golden by construction)
                    # can never diverge again — the rest of their run
                    # is the golden suffix, spliced on retirement.
                    column = self._snap_col(boundary)
                    converged = (active & (lane_fire < cycle)
                                 & (R == column[:, None]).all(axis=0))
                    if converged.any():
                        retire_lanes(converged,
                                     snapshots[boundary].n_outputs)
                    refill(boundary)
                    boundary += 1
                    if not active.any():
                        break
                op = ops[executed[cycle]]
                if op is not None:
                    diverged = op(R, mem, cycle, ctx)
                    if diverged is not None:
                        escaping = active & diverged
                        if escaping.any():
                            retire_lanes(escaping, None)
                            if not active.any():
                                # Whole batch escaped: skip the rest of
                                # the window (the outer loop restarts
                                # at the next pending entry's window).
                                break
                flips = sched.pop(cycle, None)
                if flips:
                    for lane, slot, bit in flips:
                        if active[lane]:
                            R[slot, lane] ^= np.uint64(bit)
                cycle += 1
            else:
                # Reached the end of the golden trace: every surviving
                # lane matched the full golden path.
                if active.any():
                    retire_lanes(active, len(golden.outputs),
                                 at_end=True)
        sched.clear()

        # Scalar-escape time in its own span, apart from the lockstep
        # pass that nests it (`repro obs summarize`).
        with obs.tracer().span("batch.escape_queue", lanes=len(escapes)):
            for position in escapes:
                results[position] = self._classify_scalar(
                    rows[position].injection)
        leftovers.extend(queue[qi:])
        return leftovers
