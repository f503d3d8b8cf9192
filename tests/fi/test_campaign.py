"""Tests for campaign planning and effect classification."""


from repro.fi.campaign import (EFFECT_MASKED, EFFECT_SDC, classify_effect,
                               plan_bec, plan_exhaustive,
                               plan_inject_on_read)
from repro.fi.engine import CampaignEngine
from repro.fi.trace import Trace


class TestPlans:
    def test_exhaustive_covers_everything(self, motivating_function,
                                          motivating_golden):
        plan = plan_exhaustive(motivating_function, motivating_golden)
        # 59 cycles x 4 registers x 4 bits
        assert len(plan) == 59 * 4 * 4

    def test_inject_on_read_is_288(self, motivating_function,
                                   motivating_golden):
        plan = plan_inject_on_read(motivating_function, motivating_golden)
        assert len(plan) == 288

    def test_bec_plan_is_225(self, motivating_function, motivating_golden,
                             motivating_bec):
        plan = plan_bec(motivating_function, motivating_golden,
                        motivating_bec)
        assert len(plan) == 225

    def test_bec_plan_subset_of_inject_on_read(self, motivating_function,
                                               motivating_golden,
                                               motivating_bec):
        value_level = {
            (run.injection.cycle, run.injection.reg, run.injection.bit)
            for run in plan_inject_on_read(motivating_function,
                                           motivating_golden)}
        bit_level = {
            (run.injection.cycle, run.injection.reg, run.injection.bit)
            for run in plan_bec(motivating_function, motivating_golden,
                                motivating_bec)}
        assert bit_level <= value_level


class TestClassification:
    def _trace(self, **overrides):
        trace = Trace()
        trace.executed = overrides.get("executed", [0, 1, 2])
        trace.outputs = overrides.get("outputs", [5])
        trace.returned = overrides.get("returned", 5)
        trace.outcome = overrides.get("outcome", "ok")
        trace.trap_kind = overrides.get("trap_kind")
        return trace

    def test_identical_is_masked(self):
        golden = self._trace()
        assert classify_effect(golden, self._trace()) == EFFECT_MASKED

    def test_wrong_output_is_sdc(self):
        golden = self._trace()
        faulty = self._trace(outputs=[6], returned=6)
        assert classify_effect(golden, faulty) == EFFECT_SDC

    def test_trap(self):
        golden = self._trace()
        faulty = self._trace(outcome="trap", trap_kind="load-oob")
        assert classify_effect(golden, faulty) == "trap"

    def test_timeout(self):
        golden = self._trace()
        faulty = self._trace(outcome="timeout")
        assert classify_effect(golden, faulty) == "timeout"

    def test_benign_divergence(self):
        golden = self._trace()
        faulty = self._trace(executed=[0, 2, 2])
        assert classify_effect(golden, faulty) == "benign-divergence"


class TestRunningCampaigns:
    def test_bec_campaign_on_motivating(self, motivating_function,
                                        motivating_machine,
                                        motivating_golden,
                                        motivating_bec):
        plan = plan_bec(motivating_function, motivating_golden,
                        motivating_bec)
        result = CampaignEngine(motivating_machine, plan,
                                golden=motivating_golden).run()
        assert result.n_runs == 225
        counts = result.effect_counts()
        assert sum(counts.values()) == 225
        assert result.vulnerable_runs() > 0
        assert counts.get(EFFECT_MASKED, 0) > 0

    def test_effect_counts_zero_defaults(self, motivating_function,
                                         motivating_machine,
                                         motivating_golden,
                                         motivating_bec):
        """Every effect class is present with a zero default, so
        reporting code can index any class (e.g. `detected`) without
        guarding against missing keys."""
        from repro.fi.campaign import EFFECT_CLASSES

        plan = plan_bec(motivating_function, motivating_golden,
                        motivating_bec)[:5]
        result = CampaignEngine(motivating_machine, plan,
                                golden=motivating_golden).run()
        counts = result.effect_counts()
        assert set(counts) == set(EFFECT_CLASSES)
        assert counts["detected"] == 0
        assert counts["timeout"] == 0
        empty = CampaignEngine(motivating_machine, [],
                               golden=motivating_golden).run()
        assert empty.effect_counts() \
            == {effect: 0 for effect in EFFECT_CLASSES}

    def test_distinct_traces_bounded(self, motivating_function,
                                     motivating_machine,
                                     motivating_golden, motivating_bec):
        plan = plan_bec(motivating_function, motivating_golden,
                        motivating_bec)
        result = CampaignEngine(motivating_machine, plan,
                                golden=motivating_golden).run()
        assert 1 <= result.distinct_traces <= result.n_runs
        assert result.archived_bytes > 0
        assert result.wall_time > 0


class TestCampaignEquivalenceWithPruning:
    """The pruned campaign must reach the same verdict per pruned site
    as the full campaign — the paper's 'no loss of accuracy' claim."""

    def test_pruned_runs_represent_their_class(self, motivating_function,
                                               motivating_machine,
                                               motivating_golden,
                                               motivating_bec):
        from repro.fi.accounting import iter_bit_instances
        from repro.fi.machine import Injection
        signatures = {}
        # Run the FULL inject-on-read campaign, then check that within
        # each (class, epoch) the emitted (pruned-campaign) run has the
        # same signature as every skipped run.
        for instance in iter_bit_instances(
                motivating_function, motivating_golden, motivating_bec):
            if instance.rep == 0:
                continue
            injected = motivating_machine.run(
                injection=Injection(instance.cycle, instance.reg,
                                    instance.bit),
                max_cycles=4 * motivating_golden.cycles)
            key = (instance.rep, instance.epoch)
            signatures.setdefault(key, set()).add(injected.signature())
        for key, group in signatures.items():
            assert len(group) == 1, f"class/epoch {key} diverged"
