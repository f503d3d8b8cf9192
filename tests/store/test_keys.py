"""Tests for the content-address recipe (repro.store.keys)."""

import pytest

from repro.bec.analysis import run_bec
from repro.bench.motivating import count_years, count_years_scheduled
from repro.errors import SimulationError
from repro.fi.campaign import plan_bec, plan_exhaustive
from repro.fi.machine import Machine
from repro.store import campaign_key, canonical_config
from repro.store.keys import KEY_KNOBS, PARITY_KNOBS


@pytest.fixture(scope="module")
def function():
    return count_years()


@pytest.fixture(scope="module")
def golden(function):
    return Machine(function, memory_size=256).run()


@pytest.fixture(scope="module")
def plan(function, golden):
    return plan_bec(function, golden, run_bec(function))


class TestCanonicalConfig:
    def test_defaults(self):
        config = canonical_config()
        assert config == {"core": "threaded", "prune": "none",
                          "harden": "none", "budget": None,
                          "max_cycles": "auto"}

    def test_parity_knobs_dropped(self):
        assert canonical_config({"workers": 8, "checkpoint_interval": 64}) \
            == canonical_config({})

    def test_unknown_knob_rejected(self):
        with pytest.raises(SimulationError):
            canonical_config({"sharding": "by-epoch"})

    def test_budget_only_counts_under_bec(self):
        assert canonical_config({"harden": "full", "budget": 0.3}) \
            == canonical_config({"harden": "full", "budget": 0.9})
        assert canonical_config({"harden": "bec", "budget": 0.3}) \
            != canonical_config({"harden": "bec", "budget": 0.9})

    def test_knob_lists_disjoint(self):
        assert not set(KEY_KNOBS) & set(PARITY_KNOBS)


class TestCampaignKey:
    def test_deterministic(self, function, plan):
        assert campaign_key(function, plan) == campaign_key(function,
                                                            plan)

    def test_parity_knobs_never_change_the_key(self, function, plan):
        base = campaign_key(function, plan, config={})
        assert campaign_key(
            function, plan,
            config={"workers": 4, "checkpoint_interval": 16}) == base

    def test_key_knobs_change_the_key(self, function, plan):
        base = campaign_key(function, plan)
        assert campaign_key(function, plan,
                            config={"core": "batched"}) != base
        assert campaign_key(function, plan,
                            config={"prune": "liveness"}) != base
        assert campaign_key(function, plan,
                            config={"harden": "bec",
                                    "budget": 0.3}) != base
        assert campaign_key(function, plan,
                            config={"max_cycles": 5000}) != base

    def test_plan_changes_the_key(self, function, golden, plan):
        exhaustive = plan_exhaustive(function, golden)
        assert campaign_key(function, plan) \
            != campaign_key(function, exhaustive)
        assert campaign_key(function, plan) \
            != campaign_key(function, plan[:-1])

    def test_function_changes_the_key(self, function, plan):
        other = count_years_scheduled()
        assert campaign_key(function, plan) != campaign_key(other, plan)

    def test_inputs_change_the_key(self, function, plan):
        base = campaign_key(function, plan)
        assert campaign_key(function, plan, regs={"a": 1}) != base
        assert campaign_key(function, plan, memory_image=b"\x01") != base
        assert campaign_key(function, plan, memory_size=1 << 12) != base

    def test_reg_order_is_canonical(self, function, plan):
        assert campaign_key(function, plan, regs={"a": 1, "b": 2}) \
            == campaign_key(function, plan, regs={"b": 2, "a": 1})
