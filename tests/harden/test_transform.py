"""Unit tests for the hardening transform (duplication + checkers)."""

import pytest

from repro.errors import AnalysisError
from repro.fi.machine import Machine
from repro.harden import harden
from repro.harden.transform import (OverheadModel, harden_function,
                                    shadow_prefix)
from repro.harden.select import eligible_pps
from repro.ir.instructions import Opcode
from repro.ir.parser import parse_function
from repro.ir.printer import format_function

from collections import Counter


def checks(function):
    return [i for i in function.instructions if i.opcode is Opcode.CHECK]


def parse(text):
    return parse_function(text)


class TestCheckerInsertion:
    """One test per synchronization-point kind."""

    def test_checker_before_store(self):
        function = parse("""
            func f width=8 params=a
            bb.entry:
                addi v, a, 1
                li base, 16
                sw v, 0(base)
                ret
        """)
        result = harden(function, "full")
        hardened = result.function
        inserted = checks(hardened)
        # Both the stored value and the base address are checked.
        checked = {c.rs1 for c in inserted}
        assert "v" in checked and "base" in checked
        store = next(i for i in hardened.instructions if i.is_store)
        kinds = [i.opcode for i in store.block.instructions]
        assert kinds.index(Opcode.CHECK) < kinds.index(Opcode.SW)

    def test_checker_before_branch(self):
        function = parse("""
            func f width=8 params=a
            bb.entry:
                addi v, a, 1
                bnez v, bb.exit
            bb.fall:
                nop
            bb.exit:
                ret
        """)
        hardened = harden(function, "full").function
        entry = hardened.entry.instructions
        assert entry[-1].opcode is Opcode.BNEZ
        assert entry[-2].opcode is Opcode.CHECK
        assert entry[-2].rs1 == "v"

    def test_checker_before_ret(self):
        function = parse("""
            func f width=8 params=a
            bb.entry:
                addi v, a, 3
                ret v
        """)
        hardened = harden(function, "full").function
        entry = hardened.entry.instructions
        assert entry[-1].opcode is Opcode.RET
        assert entry[-2].opcode is Opcode.CHECK
        assert entry[-2].rs1 == "v"

    def test_checker_before_out(self):
        function = parse("""
            func f width=8 params=a
            bb.entry:
                addi v, a, 3
                out v
                ret
        """)
        hardened = harden(function, "full").function
        kinds = [i.opcode for i in hardened.entry.instructions]
        assert kinds.index(Opcode.CHECK) == kinds.index(Opcode.OUT) - 1

    def test_bare_ret_needs_no_checker(self):
        function = parse("""
            func f width=8
            bb.entry:
                li v, 3
                ret
        """)
        hardened = harden(function, "full").function
        assert not checks(hardened)

    def test_operand_checked_once_per_sync(self):
        """``sw v, 0(v)`` reads v twice but needs one checker."""
        function = parse("""
            func f width=8
            bb.entry:
                li v, 16
                sw v, 0(v)
                ret
        """)
        hardened = harden(function, "full").function
        assert len(checks(hardened)) == 1


class TestShadowValidity:
    def test_unprotected_redefinition_invalidates_shadow(self):
        function = parse("""
            func f width=8 params=a
            bb.entry:
                addi v, a, 1
                mv v, a
                ret v
        """)
        # Protect only the first definition of v: after the unprotected
        # `mv v, a`, v's shadow is stale, so no checker may compare it.
        first = function.entry.instructions[0].pp
        result = harden_function(function, {first})
        assert not checks(result.function)

    def test_protected_redefinition_keeps_shadow_valid(self):
        function = parse("""
            func f width=8 params=a
            bb.entry:
                addi v, a, 1
                mv v, a
                ret v
        """)
        result = harden_function(
            function, {i.pp for i in function.entry.instructions
                       if i.rd == "v"})
        assert len(checks(result.function)) == 1

    def test_one_unprotected_path_invalidates_join(self):
        function = parse("""
            func f width=8 params=a
            bb.entry:
                beqz a, bb.other
            bb.left:
                addi v, a, 1
                j bb.join
            bb.other:
                addi v, a, 2
            bb.join:
                ret v
        """)
        left = function.block("bb.left").instructions[0].pp
        other = function.block("bb.other").instructions[0].pp
        # Both defs protected: the join may check v (the parameter `a`
        # is checked at the branch either way, via its entry init).
        both = harden_function(function, {left, other})
        assert [c.rs1 for c in checks(both.function) if c.rs1 == "v"]
        # Only one path protected: it must not.
        one = harden_function(function, {left})
        assert not [c.rs1 for c in checks(one.function) if c.rs1 == "v"]

    def test_loop_backedge_validity(self):
        function = parse("""
            func f width=8 params=n
            bb.entry:
                li s, 0
            bb.loop:
                addi s, s, 1
                addi n, n, -1
                bnez n, bb.loop
            bb.exit:
                ret s
        """)
        protected = frozenset(eligible_pps(function))
        model = OverheadModel(function)
        loop = function.block("bb.loop").index
        valid = next(valid for index, _, valid in model.walk(protected)
                     if index == loop)
        assert valid & model.bit["s"]
        assert valid & model.bit["n"]


class TestCleanRunEquivalence:
    @pytest.mark.parametrize("strategy", ["none", "full", "bec"])
    def test_architectural_behaviour_unchanged(self, motivating_function,
                                               motivating_golden,
                                               motivating_bec, strategy):
        result = harden(motivating_function, strategy, budget=0.3,
                        golden=motivating_golden, bec=motivating_bec)
        machine = Machine(result.function, memory_size=256)
        trace = machine.run()
        assert trace.outcome == "ok"
        assert trace.outputs == motivating_golden.outputs
        assert trace.stores == motivating_golden.stores
        assert trace.returned == motivating_golden.returned
        assert result.projected_path(trace) == motivating_golden.executed

    def test_none_strategy_is_identity(self, motivating_function):
        result = harden(motivating_function, "none")
        assert format_function(result.function) \
            == format_function(motivating_function)
        assert result.origin == list(range(
            len(motivating_function.instructions)))

    def test_in_place_update_duplicates_correctly(self):
        """`add v, v, w`: the shadow must observe pre-instruction
        operand values (it is emitted before the original)."""
        function = parse("""
            func f width=8 params=v,w
            bb.entry:
                add v, v, w
                add v, v, w
                ret v
        """)
        golden = Machine(function).run(regs={"v": 3, "w": 5})
        result = harden(function, "full")
        trace = Machine(result.function).run(regs={"v": 3, "w": 5})
        assert trace.outcome == "ok"
        assert trace.returned == golden.returned == 13

    def test_load_duplication(self):
        function = parse("""
            func f width=32 params=base
            bb.entry:
                lw v, 4(base)
                out v
                ret v
        """)
        image = bytes(range(16))
        golden = Machine(function, memory_image=image).run(
            regs={"base": 0})
        result = harden(function, "full")
        trace = Machine(result.function, memory_image=image).run(
            regs={"base": 0})
        assert trace.outputs == golden.outputs
        assert trace.returned == golden.returned


class TestOverheadPrediction:
    @pytest.mark.parametrize("strategy,budget", [
        ("full", None), ("bec", 0.3), ("bec", 0.6)])
    def test_predicted_equals_measured(self, motivating_function,
                                       motivating_golden, motivating_bec,
                                       strategy, budget):
        kwargs = {"budget": budget} if budget is not None else {}
        result = harden(motivating_function, strategy,
                        golden=motivating_golden, bec=motivating_bec,
                        **kwargs)
        trace = Machine(result.function, memory_size=256).run()
        measured = trace.cycles - motivating_golden.cycles
        assert result.predicted_extra_cycles(motivating_golden) \
            == measured

    def test_static_overhead_matches_result(self, motivating_function,
                                            motivating_golden):
        protected = frozenset(eligible_pps(motivating_function)[:4])
        result = harden_function(motivating_function, protected)
        counts = Counter(motivating_golden.executed)
        assert OverheadModel(motivating_function, counts).extra_cycles(
            protected) == result.predicted_extra_cycles(motivating_golden)


class TestStructure:
    def test_shadow_prefix_avoids_collisions(self):
        function = parse("""
            func f width=8 params=dup_v
            bb.entry:
                addi dup_v, dup_v, 1
                ret dup_v
        """)
        prefix = shadow_prefix(function)
        assert prefix != "dup_"
        result = harden(function, "full")
        trace = Machine(result.function).run(regs={"dup_v": 1})
        assert trace.returned == 2

    def test_hardened_ir_round_trips(self, motivating_function,
                                     motivating_golden):
        result = harden(motivating_function, "full")
        text = format_function(result.function)
        reparsed = parse_function(text)
        trace = Machine(reparsed, memory_size=256).run()
        assert trace.outputs == motivating_golden.outputs
        assert trace.returned == motivating_golden.returned

    def test_ineligible_point_rejected(self, motivating_function):
        ret_pp = next(i.pp for i in motivating_function.instructions
                      if i.opcode is Opcode.RET)
        with pytest.raises(AnalysisError):
            harden_function(motivating_function, {ret_pp})

    def test_unknown_strategy_rejected(self, motivating_function):
        with pytest.raises(AnalysisError):
            harden(motivating_function, "paranoid")

    def test_bec_requires_golden(self, motivating_function):
        with pytest.raises(AnalysisError):
            harden(motivating_function, "bec")

    def test_param_inits_precede_body(self):
        function = parse("""
            func f width=8 params=a,b
            bb.entry:
                add v, a, b
                ret v
        """)
        result = harden(function, "full")
        entry = result.function.entry.instructions
        assert [i.opcode for i in entry[:2]] == [Opcode.MV, Opcode.MV]
        assert result.n_init == 2
