"""Tests for BEC-guided protection selection under an overhead budget."""

from collections import Counter

import pytest

from repro.fi.machine import Machine
from repro.harden import harden
from repro.harden.select import (eligible_pps, select_bec,
                                 vulnerability_benefit)
from repro.harden.transform import OverheadModel, is_eligible


class TestEligibility:
    def test_eligible_points_are_value_producers(self, motivating_function):
        for pp in eligible_pps(motivating_function):
            instruction = motivating_function.instruction_at(pp)
            assert is_eligible(instruction)
            assert instruction.data_writes()

    def test_sync_points_not_eligible(self, motivating_function):
        eligible = set(eligible_pps(motivating_function))
        for instruction in motivating_function.instructions:
            if instruction.is_terminator or instruction.is_store:
                assert instruction.pp not in eligible


class TestBenefit:
    def test_benefit_only_on_eligible_defs(self, motivating_function,
                                           motivating_golden,
                                           motivating_bec):
        benefit = vulnerability_benefit(motivating_function,
                                        motivating_golden, motivating_bec)
        eligible = set(eligible_pps(motivating_function))
        assert benefit
        assert set(benefit) <= eligible
        assert all(value > 0 for value in benefit.values())


class TestSelection:
    @pytest.mark.parametrize("budget", [0.0, 0.1, 0.3, 0.6, 1.0])
    def test_budget_honored_exactly(self, motivating_function,
                                    motivating_golden, motivating_bec,
                                    budget):
        selected = select_bec(motivating_function, motivating_golden,
                              motivating_bec, budget=budget)
        counts = Counter(motivating_golden.executed)
        extra = OverheadModel(motivating_function, counts).extra_cycles(
            selected)
        assert extra <= budget * motivating_golden.cycles
        # And the measured run agrees with the static prediction.
        result = harden(motivating_function, "bec", budget=budget,
                        golden=motivating_golden, bec=motivating_bec)
        trace = Machine(result.function, memory_size=256).run()
        assert trace.cycles - motivating_golden.cycles \
            <= budget * motivating_golden.cycles

    def test_zero_budget_selects_nothing(self, motivating_function,
                                         motivating_golden,
                                         motivating_bec):
        assert select_bec(motivating_function, motivating_golden,
                          motivating_bec, budget=0.0) == frozenset()

    def test_huge_budget_selects_all_beneficial(self, motivating_function,
                                                motivating_golden,
                                                motivating_bec):
        benefit = vulnerability_benefit(motivating_function,
                                        motivating_golden, motivating_bec)
        selected = select_bec(motivating_function, motivating_golden,
                              motivating_bec, budget=10.0)
        assert selected == frozenset(benefit)

    def test_deterministic(self, motivating_function, motivating_golden,
                           motivating_bec):
        first = select_bec(motivating_function, motivating_golden,
                           motivating_bec, budget=0.3)
        second = select_bec(motivating_function, motivating_golden,
                            motivating_bec, budget=0.3)
        assert first == second

    def test_negative_budget_rejected(self, motivating_function,
                                      motivating_golden, motivating_bec):
        with pytest.raises(ValueError):
            select_bec(motivating_function, motivating_golden,
                       motivating_bec, budget=-0.1)

    def test_selection_only_contains_eligible(self, motivating_function,
                                              motivating_golden,
                                              motivating_bec):
        selected = select_bec(motivating_function, motivating_golden,
                              motivating_bec, budget=0.5)
        assert selected <= frozenset(eligible_pps(motivating_function))
