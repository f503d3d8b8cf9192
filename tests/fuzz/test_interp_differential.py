"""Differential fuzzing of the execution cores.

The threaded core (slot-indexed registers, code generated as
straight-line tiers: single steps, basic blocks and superblocks) must
be *trace-for-trace* identical to the reference interpreter
(:mod:`tests.fi.reference`) — same executed path, side effects, loads,
outcome and cycle count — on arbitrary programs, clean and faulted.
Random programs from :mod:`repro.ir.randgen` exercise every opcode
family; injections corrupt address and counter registers, so the trap
and timeout paths are covered as well.

The campaign fuzzer extends the comparison **three ways**: whole
fault-injection campaigns are executed on the reference interpreter and
on the threaded and batched (lockstep-vectorized) cores — with
checkpointing, golden reconvergence splicing and hardened ``check``
instructions in play — and the per-run ``(effect, signature)`` records
must agree exactly.
"""

import random
from unittest import mock

import pytest

from repro.fi import batch
from repro.fi.campaign import PlannedRun
from repro.fi.engine import CampaignEngine, pick_snapshot
from repro.fi.machine import Injection, Machine, MemoryInjection
from repro.fi.sink import CollectSink
from repro.ir.randgen import GeneratorConfig, generate_function, random_inputs
from tests.fi.reference import ReferenceMachine, whole_trace_interval

from hypothesis import given, settings, strategies as st

_CFG = GeneratorConfig(width=8, registers=5, params=2, structures=3,
                       max_ops=4)
_WIDE = GeneratorConfig(width=32, registers=6, params=2, structures=3,
                        max_ops=5)
_MAX_CYCLES = 50_000
_MEMORY_SIZE = 4096


def _machines(function):
    reference = ReferenceMachine(function, memory_size=_MEMORY_SIZE)
    fast = Machine(function, memory_size=_MEMORY_SIZE)
    return reference, fast


def assert_traces_identical(expected, actual, context):
    assert actual.executed == expected.executed, context
    assert actual.outputs == expected.outputs, context
    assert actual.stores == expected.stores, context
    assert actual.loads == expected.loads, context
    assert actual.returned == expected.returned, context
    assert actual.outcome == expected.outcome, context
    assert actual.trap_kind == expected.trap_kind, context
    assert actual.cycles == expected.cycles, context
    assert actual.signature() == expected.signature(), context


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_clean_runs_identical(seed):
    for config in (_CFG, _WIDE):
        function = generate_function(seed, config)
        reference, fast = _machines(function)
        regs = random_inputs(seed, function)
        expected = reference.run(regs=regs, max_cycles=_MAX_CYCLES)
        actual = fast.run(regs=regs, max_cycles=_MAX_CYCLES)
        assert_traces_identical(expected, actual, (seed, config.width))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_tight_budget_outcomes_identical(seed):
    """Timeout classification at and around the exact budget boundary
    (including a `ret` on the last budgeted cycle) must match."""
    function = generate_function(seed, _CFG)
    reference, fast = _machines(function)
    regs = random_inputs(seed, function)
    golden = reference.run(regs=regs, max_cycles=_MAX_CYCLES)
    budgets = {max(1, golden.cycles - 1), golden.cycles,
               golden.cycles + 1, max(1, golden.cycles // 2)}
    for budget in sorted(budgets):
        expected = reference.run(regs=regs, max_cycles=budget)
        actual = fast.run(regs=regs, max_cycles=budget)
        assert_traces_identical(expected, actual, (seed, budget))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_register_injection_runs_identical(seed):
    function = generate_function(seed, _CFG)
    reference, fast = _machines(function)
    regs = random_inputs(seed, function)
    golden = reference.run(regs=regs, max_cycles=_MAX_CYCLES)
    registers = function.registers()
    width = function.bit_width
    rng = random.Random(seed ^ 0xD1FF)
    for trial in range(8):
        injection = Injection(rng.randrange(-1, golden.cycles),
                              rng.choice(registers),
                              rng.randrange(width))
        expected = reference.run(regs=regs, injection=injection,
                                 max_cycles=_MAX_CYCLES)
        actual = fast.run(regs=regs, injection=injection,
                          max_cycles=_MAX_CYCLES)
        assert_traces_identical(expected, actual, (seed, injection))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_memory_injection_runs_identical(seed):
    function = generate_function(seed, _CFG)
    reference, fast = _machines(function)
    regs = random_inputs(seed, function)
    golden = reference.run(regs=regs, max_cycles=_MAX_CYCLES)
    rng = random.Random(seed ^ 0x3E37)
    for trial in range(6):
        injection = MemoryInjection(rng.randrange(-1, golden.cycles),
                                    rng.randrange(_MEMORY_SIZE - 8),
                                    rng.randrange(32))
        expected = reference.run(regs=regs, injection=injection,
                                 max_cycles=_MAX_CYCLES)
        actual = fast.run(regs=regs, injection=injection,
                          max_cycles=_MAX_CYCLES)
        assert_traces_identical(expected, actual, (seed, injection))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_multi_event_upsets_identical(seed):
    """Double-bit flips (paper §I's beyond-EDAC case) through both
    cores, mixing register and memory upsets in one run."""
    function = generate_function(seed, _CFG)
    reference, fast = _machines(function)
    regs = random_inputs(seed, function)
    golden = reference.run(regs=regs, max_cycles=_MAX_CYCLES)
    registers = function.registers()
    rng = random.Random(seed ^ 0xABCD)
    injection = [
        Injection(rng.randrange(-1, golden.cycles),
                  rng.choice(registers),
                  rng.randrange(function.bit_width)),
        MemoryInjection(rng.randrange(-1, golden.cycles),
                        rng.randrange(_MEMORY_SIZE - 8),
                        rng.randrange(32)),
    ]
    expected = reference.run(regs=regs, injection=injection,
                             max_cycles=_MAX_CYCLES)
    actual = fast.run(regs=regs, injection=injection,
                      max_cycles=_MAX_CYCLES)
    assert_traces_identical(expected, actual, (seed, injection))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_hardened_runs_identical(seed):
    """Hardened programs (shadow instructions + `check` traps) must be
    trace-for-trace identical across cores too — clean and faulted,
    including injections into shadow registers that fire the
    detected-fault trap path."""
    from repro.harden import harden

    function = generate_function(seed, _CFG)
    regs = random_inputs(seed, function)
    golden_probe = Machine(function, memory_size=_MEMORY_SIZE).run(
        regs=regs, max_cycles=_MAX_CYCLES)
    result = harden(function, "full")
    reference, fast = _machines(result.function)
    expected = reference.run(regs=regs, max_cycles=_MAX_CYCLES)
    actual = fast.run(regs=regs, max_cycles=_MAX_CYCLES)
    assert_traces_identical(expected, actual, seed)
    if golden_probe.outcome == "ok":
        assert result.projected_path(actual) == golden_probe.executed
    registers = result.function.registers()   # originals + shadows
    width = function.bit_width
    rng = random.Random(seed ^ 0x44E7)
    for trial in range(6):
        injection = Injection(rng.randrange(-1, max(expected.cycles, 1)),
                              rng.choice(registers),
                              rng.randrange(width))
        faulted_expected = reference.run(regs=regs, injection=injection,
                                         max_cycles=_MAX_CYCLES)
        faulted_actual = fast.run(regs=regs, injection=injection,
                                  max_cycles=_MAX_CYCLES)
        assert_traces_identical(faulted_expected, faulted_actual,
                                (seed, injection))


# -- three-way campaign fuzzing -----------------------------------------------


def _random_plan(rng, function, golden, memory_faults=False):
    """A campaign plan spanning the whole trace: register flips at
    random cycles (including pre-execution and post-trace ones) plus,
    optionally, memory upsets — the sites the lockstep core must route
    through its scalar escape path."""
    registers = function.registers()
    width = function.bit_width
    plan = []
    for _ in range(24):
        plan.append(PlannedRun(
            Injection(rng.randrange(-1, golden.cycles + 2),
                      rng.choice(registers), rng.randrange(width)),
            None, None, None))
    if memory_faults:
        for _ in range(4):
            plan.append(PlannedRun(
                MemoryInjection(rng.randrange(-1, golden.cycles),
                                rng.randrange(_MEMORY_SIZE - 8),
                                rng.randrange(32)),
                None, None, None))
        rng.shuffle(plan)
    return plan


def _campaign_records(machine, plan, regs, golden, **kwargs):
    records = CollectSink()
    CampaignEngine(machine, plan, regs=regs, golden=golden).run(
        sink=records, **kwargs)
    return [(effect, signature)
            for _, effect, signature, _ in records.records]


def assert_campaigns_identical(function, plan, regs, memory_image=b"",
                               seed=None):
    """Reference (serial, from cycle 0) vs threaded (checkpointed)
    vs batched (lockstep + reconvergence splicing + scalar escapes)."""
    reference = ReferenceMachine(function, memory_size=_MEMORY_SIZE,
                                 memory_image=memory_image)
    threaded = Machine(function, memory_size=_MEMORY_SIZE,
                       memory_image=memory_image)
    batched = Machine(function, memory_size=_MEMORY_SIZE,
                      memory_image=memory_image, core="batched")
    golden = threaded.run(regs=regs, max_cycles=_MAX_CYCLES)
    interval = max(1, golden.cycles // 7)
    expected = _campaign_records(
        reference, plan, regs, golden,
        checkpoint_interval=whole_trace_interval(golden))
    assert _campaign_records(
        threaded, plan, regs, golden,
        checkpoint_interval=interval) == expected, seed
    assert _campaign_records(
        batched, plan, regs, golden,
        checkpoint_interval=interval) == expected, seed
    with mock.patch.object(batch, "LANES", 5):
        assert _campaign_records(
            batched, plan, regs, golden, checkpoint_interval=interval,
            prune="liveness") == expected, seed


@pytest.mark.skipif(not batch.numpy_available(),
                    reason="NumPy not installed")
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_campaigns_identical_three_ways(seed):
    """Whole-campaign parity on random programs, register and memory
    upsets included (memory upsets exercise the scalar escape path;
    traps and timeouts arise naturally from corrupted address and
    counter registers)."""
    for config in (_CFG, _WIDE):
        function = generate_function(seed, config)
        regs = random_inputs(seed, function)
        golden = Machine(function, memory_size=_MEMORY_SIZE).run(
            regs=regs, max_cycles=_MAX_CYCLES)
        if golden.outcome != "ok":
            continue          # batched falls back; nothing new to fuzz
        rng = random.Random(seed ^ 0xBA7C)
        plan = _random_plan(rng, function, golden,
                            memory_faults=config is _CFG)
        assert_campaigns_identical(function, plan, regs, seed=seed)


@pytest.mark.skipif(not batch.numpy_available(),
                    reason="NumPy not installed")
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_hardened_campaigns_identical_three_ways(seed):
    """Three-way campaign parity on hardened programs: `check`
    instructions fire the detected-fault trap out of the lockstep
    batch, and shadow registers double the fault space."""
    from repro.harden import harden

    function = generate_function(seed, _CFG)
    regs = random_inputs(seed, function)
    result = harden(function, "full")
    hardened = result.function
    golden = Machine(hardened, memory_size=_MEMORY_SIZE).run(
        regs=regs, max_cycles=_MAX_CYCLES)
    if golden.outcome != "ok":
        return
    rng = random.Random(seed ^ 0x5EED)
    plan = _random_plan(rng, hardened, golden)
    assert_campaigns_identical(hardened, plan, regs, seed=seed)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_snapshot_resume_identical_across_cores(seed):
    """The threaded core's checkpoint/resume must agree with the
    reference interpreter's full run — the property the campaign engine's snapshots rely on."""
    function = generate_function(seed, _CFG)
    reference, fast = _machines(function)
    regs = random_inputs(seed, function)
    golden, snapshots = fast.run_with_snapshots(regs=regs, interval=16,
                                                max_cycles=_MAX_CYCLES)
    reference_golden = reference.run(regs=regs, max_cycles=_MAX_CYCLES)
    assert_traces_identical(reference_golden, golden, seed)
    registers = function.registers()
    rng = random.Random(seed ^ 0x5A5A)
    for trial in range(4):
        injection = Injection(rng.randrange(0, golden.cycles),
                              rng.choice(registers),
                              rng.randrange(function.bit_width))
        snapshot = pick_snapshot(snapshots, injection.cycle)
        assert snapshot is not None
        expected = reference.run(regs=regs, injection=injection,
                                 max_cycles=_MAX_CYCLES)
        resumed = fast.run_from(snapshot, injection=injection,
                                max_cycles=_MAX_CYCLES,
                                converge=snapshots)
        assert_traces_identical(expected, resumed, (seed, injection))
