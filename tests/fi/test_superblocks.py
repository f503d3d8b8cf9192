"""Differential tests of the threaded core's tiers.

All threaded code is generated straight-line code from one generator
(:mod:`repro.fi.threaded`): single steps (one-instruction tiers), and
for hot block starts superblocks along the statically predicted path
and plain basic blocks near a stop.  Every test here compares the
threaded core against the reference interpreter
(:mod:`tests.fi.reference`) trace for trace:
executed path, side effects, loads, outcome, trap kind, cycle count
and signature.  Most tests compile every block start on its first
entry (``HOT_ENTRIES = 1``), so superblocks and basic blocks execute
the code under test; :class:`TestSingleSteps` also runs with no start
ever hot (``HOT_ENTRIES = sys.maxsize``), where single steps execute
all of it.
"""

import random
import sys

import pytest

from repro.fi import threaded
from repro.fi.campaign import PlannedRun
from repro.fi.engine import CampaignEngine, pick_snapshot
from repro.fi.machine import Injection, Machine
from repro.fi.sink import CollectSink
from repro.fi.trace import SignatureForge, Trace, pack_path, pack_stores
from repro.ir.parser import parse_function
from repro.ir.randgen import GeneratorConfig, generate_function, random_inputs
from repro.ir.registers import ZERO
from tests.fi.reference import ReferenceMachine, whole_trace_interval

from hypothesis import given, settings, strategies as st

MEMORY = 256

#: Cycle budget of injected runs: a flipped loop counter times out fast.
BUDGET = 2000

#: A loop whose body is one superblock in which every instruction but
#: the loop counter and back edge can trap, each through its own
#: register: the `lw`/`sw`/`lbu`/`sb`/`lb` bases p0..p5 and the
#: `check` pairs k/kc and q/qc.  The `lb` reads a byte >= 0x80, so it
#: sign-extends.
TRAPS = """
func traps width=32 params=n
bb.entry:
    li p0, 0
    li p1, 64
    li p2, 128
    li p3, 160
    li p4, 192
    li p5, 224
    li k, 5
    li kc, 5
    li q, 9
    li qc, 9
    li h, 200
    sb h, 195(zero)
bb.loop:
    lw a, 0(p0)
    sw a, 4(p1)
    lbu b, 1(p2)
    check k, kc
    sb b, 2(p3)
    lb c, 3(p4)
    check q, qc
    lw d, 8(p5)
    addi n, n, -1
    bnez n, bb.loop
bb.exit:
    out d
    ret c
"""

#: The trap-capable offsets of the TRAPS loop superblock, with the
#: register whose corruption makes that instruction trap.
TRAP_SITES = ((0, "p0", "load-oob"), (1, "p1", "store-oob"),
              (2, "p2", "load-oob"), (3, "k", "detected-fault"),
              (4, "p3", "store-oob"), (5, "p4", "load-oob"),
              (6, "q", "detected-fault"), (7, "p5", "load-oob"))

#: A loop with a data-dependent forward branch (predicted not taken,
#: taken on even i) and a backward loop branch (predicted taken, falls
#: through on the last iteration), so side exits go both ways.
BRANCHY = """
func branchy width=32 params=n
bb.entry:
    li acc, 1
    li i, 0
bb.loop:
    andi t, i, 1
    beqz t, bb.even
bb.odd:
    add acc, acc, i
    sw acc, 0(zero)
    j bb.next
bb.even:
    xori acc, acc, 3
    lw u, 0(zero)
    add acc, acc, u
bb.next:
    addi i, i, 1
    blt i, n, bb.loop
bb.exit:
    out acc
    ret acc
"""


@pytest.fixture
def hot(monkeypatch):
    """Compile every block start on its first entry."""
    monkeypatch.setattr(threaded, "HOT_ENTRIES", 1)


def _machines(source):
    function = parse_function(source)
    return (ReferenceMachine(function, memory_size=MEMORY),
            Machine(function, memory_size=MEMORY))


def assert_identical(expected, actual, context=None):
    assert actual.executed == expected.executed, context
    assert actual.outputs == expected.outputs, context
    assert actual.stores == expected.stores, context
    assert actual.loads == expected.loads, context
    assert actual.returned == expected.returned, context
    assert actual.outcome == expected.outcome, context
    assert actual.trap_kind == expected.trap_kind, context
    assert actual.cycles == expected.cycles, context
    assert actual.signature() == expected.signature(), context


def _start(machine, label):
    return machine._first_pp[label]


class _Spy:
    """Wraps one compiled superblock and records how each call ended:
    ``(next_pc, executed length)`` or ``("trap", offset)``."""

    def __init__(self, machine, start):
        tiers = machine._tiers
        self.code = tiers.super_code[start]
        self.length = tiers.super_len[start]
        self.calls = []
        tiers.super_code[start] = self

    def __call__(self, regs, memory, trace, cycle):
        try:
            result = self.code(regs, memory, trace, cycle)
        except threaded.BlockTrap as trap:
            self.calls.append(("trap", len(trap.path) - 1))
            raise
        self.calls.append((result[0], result[2]))
        return result


class TestTraps:
    def test_trap_at_every_offset_of_a_superblock(self, hot):
        reference, fast = _machines(TRAPS)
        regs = {"n": 6}
        golden = fast.run(regs=regs)
        assert_identical(reference.run(regs=regs), golden)
        start = _start(fast, "bb.loop")
        assert fast._tiers.super_len[start] == 10
        # The back edge of the second iteration: the flip lands between
        # iterations, so the whole third iteration is one tier call.
        back_edge = [cycle for cycle, pp in enumerate(golden.executed)
                     if pp == start + 9][1]
        spy = _Spy(fast, start)
        for offset, register, kind in TRAP_SITES:
            injection = Injection(back_edge, register, 20)
            expected = reference.run(regs=regs, injection=injection,
                                     max_cycles=BUDGET)
            actual = fast.run(regs=regs, injection=injection,
                              max_cycles=BUDGET)
            assert actual.trap_kind == kind
            assert_identical(expected, actual, register)
            assert spy.calls[-1] == ("trap", offset)
            assert actual.executed[-1] == start + offset

    def test_trap_in_a_resumed_run(self, hot):
        reference, fast = _machines(TRAPS)
        regs = {"n": 6}
        golden, snapshots = fast.run_with_snapshots(regs=regs, interval=5)
        for _, register, _ in TRAP_SITES:
            for cycle in range(0, golden.cycles, 3):
                injection = Injection(cycle, register, 20)
                resumed = fast.run_from(pick_snapshot(snapshots, cycle),
                                        injection=injection,
                                        max_cycles=BUDGET,
                                        converge=snapshots)
                assert_identical(reference.run(regs=regs,
                                               injection=injection,
                                               max_cycles=BUDGET),
                                 resumed, (register, cycle))


class TestSideExits:
    def test_side_exits_taken_both_ways(self, hot):
        reference, fast = _machines(BRANCHY)
        regs = {"n": 9}
        fast.run(regs=regs)               # compile every start
        tiers = fast._tiers
        spies = [_Spy(fast, start) for start in set(fast._first_pp.values())
                 if tiers.super_len[start] > 1]
        assert_identical(reference.run(regs=regs), fast.run(regs=regs))
        side_exits = {next_pc for spy in spies
                      for next_pc, length in spy.calls
                      if length < spy.length}
        # The forward branch taken against its prediction (into
        # bb.even) and the backward one falling through against its
        # prediction (out of the loop).
        assert {_start(fast, "bb.even"), _start(fast, "bb.exit")} \
            <= side_exits
        assert any(length == spy.length for spy in spies
                   for _, length in spy.calls)

    def test_head_tested_loop_runs_one_superblock_per_iteration(self, hot):
        """The compiler's loops test at the head with a forward branch
        into the body; it is predicted taken, so an iteration is one
        superblock call and only the loop exit leaves through a side
        exit."""
        reference, fast = _machines("""
func headloop width=32 params=n
bb.entry:
    li acc, 0
    li i, 0
bb.head:
    blt i, n, bb.body
bb.leave:
    j bb.end
bb.body:
    add acc, acc, i
    addi i, i, 1
    j bb.head
bb.end:
    out acc
    ret acc
""")
        regs = {"n": 40}
        fast.run(regs=regs)
        head = _start(fast, "bb.head")
        assert threaded.tier_path(fast.function, fast._first_pp, head,
                                  True) == [head, head + 2, head + 3,
                                            head + 4]
        spy = _Spy(fast, head)
        assert_identical(reference.run(regs=regs), fast.run(regs=regs))
        # The entry block's superblock runs the first iteration.
        assert spy.calls == [(head, 4)] * 39 + [(head + 1, 1)]

    def test_injection_at_every_cycle_of_a_loop(self, hot):
        reference, fast = _machines(BRANCHY)
        regs = {"n": 7}
        golden, snapshots = fast.run_with_snapshots(regs=regs, interval=4)
        for cycle in range(-1, golden.cycles + 1):
            for register in ("acc", "i", "t", "u", "n"):
                for bit in (0, 1, 31):
                    injection = Injection(cycle, register, bit)
                    expected = reference.run(regs=regs,
                                             injection=injection,
                                             max_cycles=BUDGET)
                    context = (cycle, register, bit)
                    assert_identical(expected, fast.run(
                        regs=regs, injection=injection,
                        max_cycles=BUDGET), context)
                    snapshot = pick_snapshot(snapshots, cycle)
                    if snapshot is not None:
                        assert_identical(expected, fast.run_from(
                            snapshot, injection=injection,
                            max_cycles=BUDGET, converge=snapshots),
                            context)


class TestStops:
    @pytest.mark.parametrize("interval", range(1, 8))
    def test_checkpoint_intervals_with_reconvergence(self, hot, interval):
        function = parse_function(BRANCHY)
        regs = {"n": 8}
        reference = ReferenceMachine(function, memory_size=MEMORY)
        fast = Machine(function, memory_size=MEMORY)
        golden = reference.run(regs=regs)
        plan = [PlannedRun(Injection(cycle, register, bit), None, None,
                           None)
                for cycle in range(golden.cycles)
                for register in ("acc", "i", "t")
                for bit in (0, 5)]
        expected_records, actual_records = CollectSink(), CollectSink()
        expected = CampaignEngine(reference, plan, regs=regs,
                                  golden=golden).run(
            checkpoint_interval=whole_trace_interval(golden),
            sink=expected_records)
        CampaignEngine(fast, plan, regs=regs, golden=golden).run(
            checkpoint_interval=interval, sink=actual_records)
        assert actual_records.records == expected_records.records
        # Most of these faults are overwritten or cancel out, so the
        # resumed runs reconverge and splice the golden suffix.
        assert expected.effect_counts()["masked"] > len(plan) // 3

    def test_max_cycles_boundary_inside_a_superblock(self, hot):
        reference, fast = _machines(TRAPS)
        regs = {"n": 3}
        golden = fast.run(regs=regs)
        assert fast._tiers.super_len[_start(fast, "bb.exit")] == 2
        for budget in range(1, golden.cycles + 3):
            assert_identical(reference.run(regs=regs, max_cycles=budget),
                             fast.run(regs=regs, max_cycles=budget),
                             budget)
        # The reference interpreter times out a `ret` on exactly the last
        # budgeted cycle; the tier ending in that `ret` must as well.
        assert fast.run(regs=regs,
                        max_cycles=golden.cycles).outcome == "timeout"
        assert fast.run(regs=regs,
                        max_cycles=golden.cycles + 1).outcome == "ok"


class TestWidths:
    """Masking inside tiers: loads narrower machines must truncate,
    and address arithmetic wraps at the machine width."""

    @pytest.mark.parametrize("width", (4, 8, 16, 32))
    def test_loads_truncate_and_addresses_wrap(self, hot, width):
        source = f"""
func narrow width={width} params=n
bb.entry:
    li acc, 0
    li p, {(1 << width) - 2}
bb.loop:
    lw a, 6(p)
    lb b, 9(p)
    lbu c, 10(p)
    out a
    out b
    out c
    add acc, acc, a
    xor acc, acc, b
    add acc, acc, c
    sw acc, 12(p)
    addi n, n, -1
    bnez n, bb.loop
bb.exit:
    out acc
    ret acc
"""
        function = parse_function(source)
        image = bytes([0x81, 0xF7, 0xFF, 0x7F, 0x90, 0xFE, 0xC3, 0x5A])
        machines = [make(function, memory_size=MEMORY, memory_image=image)
                    for make in (ReferenceMachine, Machine)]
        regs = {"n": 3}
        expected, actual = (machine.run(regs=regs) for machine in machines)
        assert actual.outcome == "ok"
        assert_identical(expected, actual, width)
        for cycle in range(expected.cycles):
            injection = Injection(cycle, "p", width - 1)
            assert_identical(
                machines[0].run(regs=regs, injection=injection,
                                max_cycles=BUDGET),
                machines[1].run(regs=regs, injection=injection,
                                max_cycles=BUDGET), (width, cycle))


class TestHotness:
    def test_start_turns_hot_mid_run(self):
        reference, fast = _machines(BRANCHY)
        regs = {"n": 3 * threaded.HOT_ENTRIES}
        fast._threaded_ops()
        start = _start(fast, "bb.loop")
        assert fast._tiers.super_len[start] == 1      # counting stub
        assert_identical(reference.run(regs=regs), fast.run(regs=regs))
        assert fast._tiers.super_len[start] > 1       # compiled mid-run
        injection = Injection(5, "acc", 2)
        assert_identical(reference.run(regs=regs, injection=injection,
                                       max_cycles=BUDGET),
                         fast.run(regs=regs, injection=injection,
                                  max_cycles=BUDGET))

    def test_straight_line_code_is_never_compiled(self):
        _, fast = _machines(BRANCHY)
        fast.run(regs={"n": 3 * threaded.HOT_ENTRIES})
        tiers = fast._tiers
        assert tiers.super_len[_start(fast, "bb.entry")] == 1
        assert tiers.super_len[_start(fast, "bb.exit")] == 1

    def test_trap_on_a_cold_start(self):
        reference, fast = _machines(TRAPS)
        regs = {"n": 6}
        injection = Injection(0, "p0", 20)      # first loop entry traps
        assert_identical(reference.run(regs=regs, injection=injection),
                         fast.run(regs=regs, injection=injection))
        assert fast._tiers.super_len[_start(fast, "bb.loop")] == 1

    def test_workers_identical_to_serial(self):
        function = parse_function(BRANCHY)
        regs = {"n": 2 * threaded.HOT_ENTRIES}
        golden = Machine(function, memory_size=MEMORY).run(regs=regs)
        fast = Machine(function, memory_size=MEMORY)
        rng = random.Random(7)
        plan = [PlannedRun(Injection(rng.randrange(golden.cycles),
                                     rng.choice(("acc", "i", "u")),
                                     rng.randrange(32)), None, None, None)
                for _ in range(120)]
        serial_records, parallel_records = CollectSink(), CollectSink()
        serial = CampaignEngine(Machine(function, memory_size=MEMORY),
                                plan, regs=regs, golden=golden).run(
            checkpoint_interval=whole_trace_interval(golden),
            sink=serial_records)
        parallel = CampaignEngine(fast, plan, regs=regs,
                                  golden=golden).run(
            workers=2, checkpoint_interval=16, sink=parallel_records)
        assert parallel_records.records == serial_records.records
        assert parallel.effect_counts() == serial.effect_counts()
        assert parallel.distinct_traces == serial.distinct_traces
        # Workers compile in their own memory, so the loop's tiers in
        # the parent come from its snapshot run, before the fork.
        assert fast._tiers.super_len[_start(fast, "bb.loop")] > 1


@pytest.fixture(params=(1, sys.maxsize), ids=("hot", "cold"))
def hot_entries(request, monkeypatch):
    """Every block start compiled on its first entry, or never."""
    monkeypatch.setattr(threaded, "HOT_ENTRIES", request.param)
    return request.param


class TestSingleSteps:
    """Traps and the cycle budget whether a block start's code runs as
    one superblock or as single steps only."""

    def test_trap_at_every_offset(self, hot_entries):
        reference, fast = _machines(TRAPS)
        regs = {"n": 6}
        golden = fast.run(regs=regs)
        assert_identical(reference.run(regs=regs), golden)
        start = _start(fast, "bb.loop")
        back_edge = [cycle for cycle, pp in enumerate(golden.executed)
                     if pp == start + 9][1]
        for offset, register, kind in TRAP_SITES:
            injection = Injection(back_edge, register, 20)
            actual = fast.run(regs=regs, injection=injection,
                              max_cycles=BUDGET)
            assert actual.trap_kind == kind
            assert actual.executed[-1] == start + offset
            assert_identical(reference.run(regs=regs, injection=injection,
                                           max_cycles=BUDGET),
                             actual, register)
        cold = hot_entries == sys.maxsize
        assert fast._tiers.super_len[start] == (1 if cold else 10)

    def test_max_cycles_boundary(self, hot_entries):
        reference, fast = _machines(TRAPS)
        regs = {"n": 3}
        golden = fast.run(regs=regs)
        for budget in range(1, golden.cycles + 3):
            assert_identical(reference.run(regs=regs, max_cycles=budget),
                             fast.run(regs=regs, max_cycles=budget),
                             budget)
        assert fast.run(regs=regs,
                        max_cycles=golden.cycles).outcome == "timeout"
        assert fast.run(regs=regs,
                        max_cycles=golden.cycles + 1).outcome == "ok"

    def test_slot_table_names_every_program_register(self):
        """Steps compile lazily, so the slot table must already hold
        the registers of code that has not run yet (``x`` and ``y`` on
        the rare path) before the first register file is sized."""
        reference, fast = _machines("""
func rare width=32 params=n
bb.entry:
    beqz n, bb.rare
bb.common:
    addi a, n, 1
    ret a
bb.rare:
    li x, 7
    sw x, 4(y)
    ret x
""")
        program = {ZERO, *fast.function.registers()}
        assert program == {ZERO, "n", "a", "x", "y"}
        assert set(fast._reg_of) == program
        for n in (1, 0):
            assert_identical(reference.run(regs={"n": n}),
                             fast.run(regs={"n": n}), n)
            assert set(fast._reg_of) == program


_RANDOM = (GeneratorConfig(width=8, registers=5, params=2, structures=3,
                           max_ops=4),
           GeneratorConfig(width=32, registers=6, params=2, structures=3,
                           max_ops=5))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_random_programs_identical(seed):
    """Random programs with every start compiled on first entry:
    clean, injected and resumed runs match the reference interpreter."""
    original = threaded.HOT_ENTRIES
    threaded.HOT_ENTRIES = 1
    try:
        for config in _RANDOM:
            _assert_random_program(seed, config)
    finally:
        threaded.HOT_ENTRIES = original


def _assert_random_program(seed, config):
    function = generate_function(seed, config)
    reference = ReferenceMachine(function, memory_size=4096)
    fast = Machine(function, memory_size=4096)
    regs = random_inputs(seed, function)
    golden, snapshots = fast.run_with_snapshots(regs=regs, interval=7,
                                                max_cycles=50_000)
    assert_identical(reference.run(regs=regs, max_cycles=50_000), golden,
                     seed)
    rng = random.Random(seed)
    registers = function.registers()
    for _ in range(8):
        injection = Injection(rng.randrange(-1, golden.cycles + 1),
                              rng.choice(registers),
                              rng.randrange(function.bit_width))
        expected = reference.run(regs=regs, injection=injection,
                                 max_cycles=50_000)
        assert_identical(expected, fast.run(
            regs=regs, injection=injection, max_cycles=50_000),
            (seed, injection))
        snapshot = pick_snapshot(snapshots, injection.cycle)
        if snapshot is not None:
            assert_identical(expected, fast.run_from(
                snapshot, injection=injection, max_cycles=50_000,
                converge=snapshots), (seed, injection))


def _materialised(trace):
    """The same trace as a fresh object: no resume or splice links."""
    copy = Trace()
    copy.executed = list(trace.executed)
    copy.outputs = list(trace.outputs)
    copy.stores = list(trace.stores)
    copy.returned = trace.returned
    copy.outcome = trace.outcome
    copy.trap_kind = trace.trap_kind
    return copy


class TestSignatureIdentity:
    """A resumed trace hashes slices of the golden images for the
    records it did not simulate; its signature must equal the forge
    over the fully materialised trace."""

    def _assert_signature(self, trace):
        forge = SignatureForge(len(trace.executed),
                               (pack_path(trace.executed),),
                               (pack_stores(trace.stores),),
                               trace.outcome, trace.trap_kind)
        expected = forge.signature(trace.outputs, trace.returned)
        assert trace.signature() == expected
        assert _materialised(trace).signature() == expected

    def test_resumed_spliced_and_full_runs(self):
        function = parse_function(BRANCHY)
        fast = Machine(function, memory_size=MEMORY)
        regs = {"n": 9}
        golden, snapshots = fast.run_with_snapshots(regs=regs, interval=6)
        kinds = set()
        for cycle in range(golden.cycles):
            for register, bit in (("acc", 0), ("i", 0), ("u", 3),
                                  ("i", 31)):
                injection = Injection(cycle, register, bit)
                resumed = fast.run_from(pick_snapshot(snapshots, cycle),
                                        injection=injection,
                                        max_cycles=BUDGET,
                                        converge=snapshots)
                assert resumed.resumed_from is not None
                kinds.add("spliced" if resumed.spliced_at is not None
                          else resumed.outcome)
                self._assert_signature(resumed)
                full = fast.run(regs=regs, injection=injection,
                                max_cycles=BUDGET)
                assert full.resumed_from is None
                self._assert_signature(full)
                assert full.signature() == resumed.signature()
        assert {"spliced", "ok", "timeout"} <= kinds

    def test_resumed_traps(self):
        function = parse_function(TRAPS)
        fast = Machine(function, memory_size=MEMORY)
        regs = {"n": 4}
        golden, snapshots = fast.run_with_snapshots(regs=regs, interval=7)
        for cycle in range(0, golden.cycles, 2):
            for _, register, _ in TRAP_SITES:
                resumed = fast.run_from(pick_snapshot(snapshots, cycle),
                                        injection=Injection(cycle,
                                                            register, 20),
                                        max_cycles=BUDGET,
                                        converge=snapshots)
                self._assert_signature(resumed)

    def test_golden_images_are_cached(self):
        function = parse_function(BRANCHY)
        fast = Machine(function, memory_size=MEMORY)
        golden, snapshots = fast.run_with_snapshots(regs={"n": 5},
                                                    interval=4)
        images = golden.packed()
        assert golden.packed() is images
        assert images == (pack_path(golden.executed),
                          pack_stores(golden.stores))
