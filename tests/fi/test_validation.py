"""Tests for the Table II soundness validator."""

import pytest

from repro.ir.parser import parse_function
from repro.bec.analysis import run_bec
from repro.experiments.common import benchmark_run
from repro.fi.machine import Machine
from repro.fi.validate import validate_bec

from tests.bec.program_gen import random_function
from tests.fi.reference import ReferenceMachine
from tests.fi.walks import instances_walked


class TestTableTwoRow:
    def test_rsa_prefix_matches_pinned_row(self):
        # The Table II row recorded before validation ran on the engine.
        run = benchmark_run("RSA")
        report = validate_bec(run.function, run.machine, run.bec,
                              regs=run.regs, golden=run.golden,
                              cycle_limit=120)
        assert report._asdict() == {
            "instances": 5248, "masked_checked": 1452, "unsound_masked": 0,
            "equivalence_groups": 384, "unsound_equivalences": 0,
            "sound_precise_pairs": 732, "imprecise_pairs": 5047,
            "runs": 5248}

    def test_walk_stops_at_cycle_limit(self):
        run = benchmark_run("bitcount")
        report, walked = instances_walked(
            validate_bec, run.function, run.machine, run.bec,
            regs=run.regs, golden=run.golden, cycle_limit=10)
        assert report.instances > 0
        assert walked == report.instances


class TestCoreParity:
    """Validation runs on the caller's core; every core, and the
    reference interpreter (:mod:`tests.fi.reference`), must give the
    same report."""

    @staticmethod
    def _reports(function, memory_size):
        bec = run_bec(function)
        machines = [Machine(function, memory_size=memory_size, core=core)
                    for core in Machine.CORES]
        machines.append(ReferenceMachine(function, memory_size=memory_size))
        return [validate_bec(function, machine, bec)
                for machine in machines]

    def test_motivating(self, motivating_function):
        threaded, batched, reference = self._reports(motivating_function,
                                                     256)
        assert threaded.instances == 348
        assert reference == threaded
        assert batched == threaded

    @pytest.mark.parametrize("seed", [27, 73, 148])
    def test_random_programs(self, seed):
        threaded, batched, reference = self._reports(random_function(seed),
                                                     64)
        assert threaded.instances > 0
        assert reference == threaded
        assert batched == threaded


class TestMotivatingValidation:
    def test_no_unsound_cases(self, motivating_function,
                              motivating_machine, motivating_golden,
                              motivating_bec):
        report = validate_bec(motivating_function, motivating_machine,
                              motivating_bec, golden=motivating_golden)
        assert report.unsound_masked == 0
        assert report.unsound_equivalences == 0

    def test_everything_validated(self, motivating_function,
                                  motivating_machine, motivating_golden,
                                  motivating_bec):
        report = validate_bec(motivating_function, motivating_machine,
                              motivating_bec, golden=motivating_golden)
        # 288 live + 60 killed window-bit instances.
        assert report.instances == 348
        assert report.runs == report.instances
        assert report.masked_checked == 42 + 60

    def test_equivalences_confirmed(self, motivating_function,
                                    motivating_machine,
                                    motivating_golden, motivating_bec):
        report = validate_bec(motivating_function, motivating_machine,
                              motivating_bec, golden=motivating_golden)
        assert report.equivalence_groups > 0
        assert report.sound_precise_pairs > 0

    def test_imprecision_exists(self, motivating_function,
                                motivating_machine, motivating_golden,
                                motivating_bec):
        # Like the paper we expect *some* sound-but-imprecise pairs
        # (dynamic coincidences the static analysis cannot see).
        report = validate_bec(motivating_function, motivating_machine,
                              motivating_bec, golden=motivating_golden)
        assert report.imprecise_pairs > 0

    def test_cycle_limit_reduces_work(self, motivating_function,
                                      motivating_machine,
                                      motivating_golden, motivating_bec):
        limited = validate_bec(motivating_function, motivating_machine,
                               motivating_bec, golden=motivating_golden,
                               cycle_limit=10)
        full = validate_bec(motivating_function, motivating_machine,
                            motivating_bec, golden=motivating_golden)
        assert limited.runs < full.runs


class TestScheduledVariantStaysSound:
    def test_fig2c_schedule(self, motivating_scheduled_function):
        bec = run_bec(motivating_scheduled_function)
        machine = Machine(motivating_scheduled_function, memory_size=256)
        report = validate_bec(motivating_scheduled_function, machine, bec)
        assert report.unsound_masked == 0
        assert report.unsound_equivalences == 0


class TestHandCraftedPatterns:
    """Targeted patterns that historically break bit-level reasoning."""

    def _validate(self, source):
        function = parse_function(source)
        bec = run_bec(function)
        machine = Machine(function, memory_size=64)
        report = validate_bec(function, machine, bec)
        assert report.unsound_masked == 0, source
        assert report.unsound_equivalences == 0, source
        return report

    def test_loop_invariant_operand(self):
        # k stays live across the loop; its window must NOT merge with
        # the xor result (the fault re-corrupts z every iteration).
        self._validate("""
func f width=4
bb.entry:
    li k, 5
    li i, 3
    li acc, 0
bb.loop:
    xor z, k, i
    add acc, acc, z
    addi i, i, -1
    bnez i, bb.loop
bb.exit:
    out acc
    ret k
""")

    def test_shift_by_same_register(self):
        self._validate("""
func f width=4
bb.entry:
    li a, 9
    srl b, a, a
    out b
    ret b
""")

    def test_xor_with_itself(self):
        self._validate("""
func f width=4
bb.entry:
    li a, 9
    xor b, a, a
    out b
    ret b
""")

    def test_mv_chain(self):
        self._validate("""
func f width=4
bb.entry:
    li a, 6
    mv b, a
    mv c, b
    out c
    ret c
""")

    def test_dead_masking_cascade(self):
        self._validate("""
func f width=4
bb.entry:
    li a, 15
    andi b, a, 3
    andi c, b, 1
    out c
    ret c
""")

    def test_propagation_not_observed_on_all_paths(self):
        # Distilled from generator seed 27: v's only read sits on one
        # arm; on the other arm the fault is silently overwritten, so
        # merging with the read's result window would be unsound.
        self._validate("""
func f width=4 params=c
bb.entry:
    li v, 0
    bnez c, bb.use
bb.kill:
    li v, 5
    j bb.join
bb.use:
    andi z, v, 15
    out z
    li v, 5
bb.join:
    out v
    ret v
""")

    def test_tie_must_not_ride_on_window_claims(self):
        # Distilled from generator seed 73: an eval tie at the first
        # read changes the comparison result away from golden; the
        # second read (xor) then mixes the *corrupted* comparison result
        # back with the corrupted source.  Tying the two source bits via
        # the xor-result windows would be unsound.
        self._validate("""
func f width=4
bb.entry:
    li a, 5
    li b, 3
    slt r, a, b
    xor r, a, r
    bnez r, bb.then
bb.else:
    out r
    ret r
bb.then:
    li t, 1
    out t
    ret t
""")

    def test_masking_needs_golden_other_operand(self):
        # Distilled from generator seed 148: the fault flows through
        # `or r2, v, v` into r2, so at the following `and` BOTH operands
        # are corrupted and the known-zero mask of r2 no longer holds.
        self._validate("""
func f width=4
bb.entry:
    li v, 11
    or r2, v, v
    and v, v, r2
    out v
    ret v
""")

    def test_branch_diamond(self):
        self._validate("""
func f width=4
bb.entry:
    li c, 1
    li a, 6
    bnez c, bb.then
bb.else:
    slli r, a, 1
    j bb.join
bb.then:
    srli r, a, 1
bb.join:
    out r
    ret r
""")
