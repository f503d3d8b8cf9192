"""Tests for the content-address recipe (repro.store.keys)."""

import hashlib
import json
import random

import pytest

import repro.store.keys

from repro.bec.analysis import run_bec
from repro.bench.motivating import count_years, count_years_scheduled
from repro.errors import SimulationError
from repro.ir.printer import format_function
from repro.fi.campaign import (PlannedRun, plan_bec, plan_exhaustive,
                               plan_inject_on_read)
from repro.fi.machine import Injection, Machine
from repro.fi.validate import validation_plan
from repro.store import campaign_key, canonical_config
from repro.store.keys import (KEY_KNOBS, KEY_VERSION, PARITY_KNOBS,
                              plan_rows)


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


def one_shot_key(function, plan, regs=None, memory_image=None,
                 memory_size=1 << 16, config=None):
    """The key recipe as one ``json.dumps`` of the whole payload."""
    payload = {
        "schema": KEY_VERSION,
        "function": format_function(function),
        "memory_image": bytes(memory_image or b"").hex(),
        "memory_size": memory_size,
        "regs": sorted((reg, int(value))
                       for reg, value in (regs or {}).items()),
        "plan": plan_rows(plan),
        "config": canonical_config(config),
    }
    blob = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


#: Register names JSON must escape: quotes, backslashes, control and
#: non-ASCII characters.
AWKWARD_NAMES = ("v1", 'q"uote', "back\\slash", "tab\there", "caf\u00e9",
                 "\u2603", '"plan":[]', "nl\n")


def random_plan(rng, length):
    plan = []
    for _ in range(length):
        ranked = rng.random() < 0.5
        plan.append(PlannedRun(
            Injection(rng.randrange(10_000), rng.choice(AWKWARD_NAMES),
                      rng.randrange(64)),
            rng.randrange(500),
            rng.randrange(1, 1 << 20) if ranked else None,
            rng.choice([None, rng.randrange(1 << 30)]) if ranked else None))
    return plan


class TestStreamedKey:
    """The streamed key digests the very bytes of the one-shot recipe."""

    def test_empty_plan(self, function):
        assert campaign_key(function, []) == one_shot_key(function, [])

    @pytest.mark.parametrize("seed", range(12))
    def test_random_plans(self, function, monkeypatch, seed):
        monkeypatch.setattr(repro.store.keys, "KEY_ROWS_PER_STEP", 5)
        rng = random.Random(seed)
        plan = random_plan(rng, rng.choice([1, 4, 5, 6, 17, 300]))
        regs = {name: rng.randrange(256) for name in
                rng.sample(AWKWARD_NAMES, 3)}
        config = {"core": rng.choice(["threaded", "batched"]),
                  "harden": rng.choice(["none", "bec"]), "budget": 0.3}
        assert campaign_key(function, plan, regs=regs,
                            memory_image=b"\x00\xff", config=config) \
            == one_shot_key(function, plan, regs=regs,
                            memory_image=b"\x00\xff", config=config)

    def test_plans(self, function, golden, plan):
        exhaustive = plan_exhaustive(function, golden)
        for each in (plan, exhaustive, exhaustive[::7], plan[3:40]):
            assert campaign_key(function, each) == \
                one_shot_key(function, list(each))

    @pytest.mark.parametrize("step", [5, 4096])
    def test_plans_are_encoded_from_their_columns(self, function, golden,
                                                 plan, monkeypatch, step):
        monkeypatch.setattr(repro.store.keys, "KEY_ROWS_PER_STEP", step)
        validation = validation_plan(function, golden, run_bec(function))
        inject_on_read = plan_inject_on_read(function, golden)
        assert any(run.epoch is None for run in validation)
        assert all(run.rep is None for run in inject_on_read)
        for each in (plan, validation, inject_on_read,
                     plan_exhaustive(function, golden)):
            for variant in (each, each[::7], each[3:40], each[::-3],
                            each[:0], list(each[5:60])):
                assert campaign_key(function, variant) == \
                    one_shot_key(function, list(variant))
