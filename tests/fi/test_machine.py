"""Tests for the ISA simulator."""

import pytest

from repro.errors import SimulationError
from repro.ir.parser import parse_function
from repro.fi.machine import Injection, Machine
from repro.ir.registers import ZERO
from tests.fi.reference import ReferenceMachine


def run_source(source, regs=None, injection=None, **kwargs):
    function = parse_function(source)
    machine = Machine(function, memory_size=kwargs.pop("memory_size", 256),
                      memory_image=kwargs.pop("memory_image", None))
    return machine.run(regs=regs, injection=injection, **kwargs)


class TestExecution:
    def test_motivating_example_result(self, motivating_golden):
        assert motivating_golden.returned == 2
        assert motivating_golden.cycles == 59

    def test_arithmetic(self):
        trace = run_source("""
func f width=32
bb.entry:
    li a, 6
    li b, 7
    mul c, a, b
    out c
    ret c
""")
        assert trace.outputs == [42]
        assert trace.returned == 42

    def test_width_masking(self):
        trace = run_source("""
func f width=4
bb.entry:
    li a, 15
    addi a, a, 1
    ret a
""")
        assert trace.returned == 0            # 4-bit wraparound

    def test_branches_and_loops(self):
        trace = run_source("""
func f width=8 params=n
bb.entry:
    li acc, 0
bb.loop:
    add acc, acc, n
    addi n, n, -1
    bnez n, bb.loop
bb.exit:
    ret acc
""", regs={"n": 5})
        assert trace.returned == 15

    def test_zero_register_semantics(self):
        trace = run_source("""
func f width=8
bb.entry:
    li zero, 42
    add a, zero, zero
    ret a
""")
        assert trace.returned == 0

    def test_memory_round_trip(self):
        trace = run_source("""
func f width=32
bb.entry:
    li a, 0xABCD
    sw a, 16(zero)
    lw b, 16(zero)
    li c, 0xEF
    sb c, 20(zero)
    lbu d, 20(zero)
    add e, b, d
    ret e
""")
        assert trace.returned == 0xABCD + 0xEF

    def test_lb_sign_extends(self):
        trace = run_source("""
func f width=32
bb.entry:
    li a, 0x80
    sb a, 0(zero)
    lb b, 0(zero)
    ret b
""")
        assert trace.returned == 0xFFFFFF80

    @pytest.mark.parametrize("width,expected", [
        (8, 0x80),          # sign extension within one byte is identity
        (16, 0xFF80),       # fills bits 8..15, not a hard-coded 32-bit mask
        (24, 0xFFFF80),
        (32, 0xFFFFFF80),
    ])
    def test_lb_sign_extends_to_machine_width(self, width, expected):
        trace = run_source(f"""
func f width={width}
bb.entry:
    li a, 0x80
    sb a, 0(zero)
    lb b, 0(zero)
    ret b
""")
        assert trace.returned == expected

    def test_memory_image_loaded(self):
        trace = run_source("""
func f width=32
bb.entry:
    lw a, 0(zero)
    ret a
""", memory_image=(1234).to_bytes(4, "little"))
        assert trace.returned == 1234

    def test_trace_records_stores_and_outputs(self):
        trace = run_source("""
func f width=32
bb.entry:
    li a, 7
    sw a, 8(zero)
    out a
    ret
""")
        assert trace.stores == [(8, 7, 4)]
        assert trace.outputs == [7]

    def test_executed_sequence(self, motivating_golden):
        assert motivating_golden.executed[:3] == [0, 1, 2]
        assert motivating_golden.executed[-1] == 10


class TestOutcomes:
    def test_out_of_bounds_load_traps(self):
        trace = run_source("""
func f width=32
bb.entry:
    li a, 100000
    lw b, 0(a)
    ret b
""")
        assert trace.outcome == "trap"
        assert trace.trap_kind == "load-oob"

    def test_out_of_bounds_store_traps(self):
        trace = run_source("""
func f width=32
bb.entry:
    li a, 100000
    sw a, 0(a)
    ret
""")
        assert trace.outcome == "trap"

    def test_timeout(self):
        trace = run_source("""
func f width=4
bb.entry:
    li a, 1
bb.loop:
    j bb.loop
""", max_cycles=100)
        assert trace.outcome == "timeout"
        assert trace.cycles == 100


class TestInjection:
    SOURCE = """
func f width=4
bb.entry:
    li a, 0
    li b, 3
    add c, a, b
    out c
    ret c
"""

    def test_flip_changes_result(self):
        clean = run_source(self.SOURCE)
        faulty = run_source(self.SOURCE,
                            injection=Injection(1, "a", 2))
        assert clean.returned == 3
        assert faulty.returned == 7           # a becomes 4

    def test_flip_after_last_read_is_masked(self):
        clean = run_source(self.SOURCE)
        faulty = run_source(self.SOURCE,
                            injection=Injection(2, "a", 2))
        assert faulty.same_as(clean)          # a dead after the add

    def test_flip_is_a_flip(self):
        # Injecting twice at the same site restores the value; here we
        # just check 1 -> 0 direction works.
        faulty = run_source(self.SOURCE, injection=Injection(1, "b", 0))
        assert faulty.returned == 2           # b: 3 -> 2

    def test_preexecution_injection(self):
        trace = run_source("""
func f width=4 params=x
bb.entry:
    ret x
""", regs={"x": 0}, injection=Injection(-1, "x", 3))
        assert trace.returned == 8

    def test_zero_register_not_injectable(self):
        with pytest.raises(SimulationError):
            Injection(0, "zero", 0)

    def test_injection_into_unwritten_register(self):
        trace = run_source(self.SOURCE, injection=Injection(0, "d", 1))
        clean = run_source(self.SOURCE)
        assert trace.same_as(clean)           # d never read

    def test_injection_bit_outside_width_rejected(self):
        # width=4: bit 4 is not a fault site, the plan is buggy.
        with pytest.raises(SimulationError):
            run_source(self.SOURCE, injection=Injection(1, "a", 4))

    def test_injection_negative_bit_rejected(self):
        with pytest.raises(SimulationError):
            run_source(self.SOURCE, injection=Injection(1, "a", -1))


class TestDeterminism:
    def test_runs_are_reproducible(self, motivating_machine):
        first = motivating_machine.run()
        second = motivating_machine.run()
        assert first.same_as(second)
        assert first.signature() == second.signature()


class TestExecutionCores:
    """The threaded core and the reference interpreter
    (:mod:`tests.fi.reference`) must be trace-for-trace interchangeable
    (the fuzz suite widens this to random programs; here the fixed
    subjects keep failures readable)."""

    def test_unknown_core_rejected(self, motivating_function):
        with pytest.raises(SimulationError):
            Machine(motivating_function, core="jit")

    def test_clean_parity_on_motivating(self, motivating_function):
        reference = ReferenceMachine(motivating_function, memory_size=256)
        fast = Machine(motivating_function, memory_size=256)
        expected = reference.run()
        actual = fast.run()
        assert actual.key() == expected.key()
        assert actual.cycles == expected.cycles
        assert actual.loads == expected.loads

    def test_injected_parity_on_motivating(self, motivating_function,
                                           motivating_golden):
        reference = ReferenceMachine(motivating_function, memory_size=256)
        fast = Machine(motivating_function, memory_size=256)
        for cycle in (-1, 0, 17, motivating_golden.cycles - 1):
            for bit in range(motivating_function.bit_width):
                injection = Injection(cycle, "v", bit)
                expected = reference.run(injection=injection)
                actual = fast.run(injection=injection)
                assert actual.key() == expected.key(), (cycle, bit)
                assert actual.cycles == expected.cycles

    def test_snapshot_register_dict(self, motivating_machine):
        """Snapshots are threaded-core slot lists whichever machine
        takes them, and register_dict names them as the reference
        interpreter's register file at that cycle."""
        _, snapshots = motivating_machine.run_with_snapshots(interval=8)
        reference = ReferenceMachine(motivating_machine.function,
                                     memory_size=256)
        _, reference_snapshots = reference.run_with_snapshots(interval=8)
        _, log = reference.run_with_register_log()
        assert len(reference_snapshots) == len(snapshots)
        for fast_snapshot, reference_snapshot in zip(snapshots,
                                                     reference_snapshots):
            assert type(reference_snapshot.registers) is list
            assert reference_snapshot.registers == fast_snapshot.registers
            assert reference_snapshot.reg_names == reference._reg_of
            registers = reference_snapshot.register_dict()
            assert set(registers) == set(reference._reg_of) - {ZERO}
            if reference_snapshot.cycle:
                # The dict file omits never-written registers; the slot
                # file holds them as 0.
                before = log[reference_snapshot.cycle - 1]
                assert registers == {reg: before.get(reg, 0)
                                     for reg in registers}

    @pytest.mark.parametrize("budget", [3, 4, 5, 6, 100])
    def test_budget_boundary_outcomes_match(self, budget):
        """A run that returns on exactly the last budgeted cycle
        classifies as a timeout on the threaded core as on the
        reference interpreter (whose budget check fires before it
        notices the return)."""
        source = """
func f width=8
bb.entry:
    li a, 1
    li b, 2
    add c, a, b
    ret c
"""
        function = parse_function(source)
        expected = ReferenceMachine(function,
                                    memory_size=64).run(max_cycles=budget)
        actual = Machine(function, memory_size=64).run(max_cycles=budget)
        assert actual.outcome == expected.outcome, budget
        assert actual.key() == expected.key(), budget
        assert actual.cycles == expected.cycles, budget

    def test_slot_table_fixed_at_decode(self, motivating_function,
                                        motivating_golden):
        """Machines of one function share one slot table, which no
        off-program injection or input changes, so each resumes the
        other's snapshots positionally."""
        first = Machine(motivating_function, memory_size=256)
        second = Machine(motivating_function, memory_size=256)
        assert first._reg_of == second._reg_of
        machines = [Machine(motivating_function, memory_size=256, core=core)
                    for core in Machine.CORES]
        machines.append(ReferenceMachine(motivating_function,
                                         memory_size=256))
        for machine in machines:
            label = type(machine).__name__, machine.core
            for cycle in (-1, 0, 17):
                trace = machine.run(injection=Injection(cycle, "offprogram",
                                                        1))
                assert trace.key() == motivating_golden.key(), (label,
                                                                cycle)
            assert machine.run(regs={"offprogram": 5}).key() \
                == motivating_golden.key(), label
            assert machine._reg_of == first._reg_of
            assert "offprogram" not in machine._slot_of
        golden, snapshots = first.run_with_snapshots(interval=8)
        injection = Injection(20, "v1", 2)
        expected = first.run(injection=injection)
        for snapshot in snapshots:
            assert second.run_from(snapshot).key() == golden.key()
        resumed = second.run_from(snapshots[2], injection=injection,
                                  converge=snapshots)
        assert resumed.key() == expected.key()

    @pytest.mark.parametrize("make", [Machine, ReferenceMachine],
                             ids=["threaded", "reference"])
    def test_snapshots_share_unchanged_memory(self, motivating_function,
                                              make):
        """A run without stores keeps one memory image for all of its
        snapshots, and resuming from any of them is unchanged."""
        machine = make(motivating_function, memory_size=256)
        golden, snapshots = machine.run_with_snapshots(interval=8)
        assert not golden.stores
        assert len(snapshots) > 2
        assert len({id(snapshot.memory) for snapshot in snapshots}) == 1
        for snapshot in snapshots:
            injection = Injection(snapshot.cycle, "v", 1)
            resumed = machine.run_from(snapshot, injection=injection,
                                       converge=snapshots)
            assert resumed.key() == machine.run(injection=injection).key()

    @pytest.mark.parametrize("make", [Machine, ReferenceMachine],
                             ids=["threaded", "reference"])
    def test_snapshots_copy_changed_memory(self, make):
        """Each store gives the following snapshot its own image, equal
        to memory at that cycle."""
        function = parse_function("""
func f width=32
bb.entry:
    li a, 7
    sw a, 16(zero)
    li b, 9
    sw b, 20(zero)
    lw c, 16(zero)
    lw d, 20(zero)
    add e, c, d
    ret e
""")
        machine = make(function, memory_size=64)
        golden, snapshots = machine.run_with_snapshots(interval=1)
        images = [snapshot.memory for snapshot in snapshots]
        # A snapshot at cycle N precedes instruction N: cycles 0-1 see
        # the initial memory, 2-3 the first store, 4 onwards both.
        assert images[0] is images[1]
        assert images[2] is images[3] and images[2] is not images[1]
        assert all(image is images[4] for image in images[4:])
        assert images[4] is not images[3]
        assert images[2][16] == 7 and images[2][20] == 0
        assert images[4][20] == 9
        for snapshot in snapshots:
            assert machine.run_from(snapshot).key() == golden.key()

    def test_cross_core_snapshot_restore(self, motivating_function,
                                         motivating_golden):
        """The threaded core and the reference interpreter each resume
        either machine's snapshots.  A reference run_from re-executes
        the whole tail (it never splices) and matches a full reference
        run, as the threaded core's spliced resumes do."""
        reference = ReferenceMachine(motivating_function, memory_size=256)
        fast = Machine(motivating_function, memory_size=256)
        _, fast_snapshots = fast.run_with_snapshots(interval=8)
        _, reference_snapshots = reference.run_with_snapshots(interval=8)
        from repro.fi.engine import pick_snapshot
        spliced = 0
        for cycle in (-1, 3, 20, motivating_golden.cycles - 1):
            for bit in range(motivating_function.bit_width):
                injection = Injection(cycle, "v1", bit)
                expected = reference.run(injection=injection)
                for snapshots in (fast_snapshots, reference_snapshots):
                    snapshot = pick_snapshot(snapshots, cycle)
                    resumed = reference.run_from(snapshot,
                                                 injection=injection,
                                                 converge=snapshots)
                    assert resumed.key() == expected.key(), (cycle, bit)
                    assert resumed.spliced_at is None
                    resumed = fast.run_from(snapshot, injection=injection,
                                            converge=snapshots)
                    assert resumed.key() == expected.key(), (cycle, bit)
                    spliced += resumed.spliced_at is not None
        assert spliced
