"""The template-compiled walk (repro.fi.accounting.BitWalk) against the
per-bit oracle, on whole kernel traces and random programs.

Every product of the walk is checked: the per-instance view
``iter_bit_instances``, the BEC plan (whole and capped), the sampling
population, the validation plan (whole and cut at a cycle limit), the
Table III counts and the ``walk.instances`` counter.
"""

import bisect
import itertools

import pytest

from repro.bec.analysis import run_bec
from repro.bench.programs import (BENCHMARK_ORDER, compile_benchmark,
                                  get_benchmark)
from repro.fi.accounting import fault_injection_accounting, iter_bit_instances
from repro.fi.campaign import plan_bec, plan_walk
from repro.fi.machine import Machine
from repro.fi.validate import validation_plan
from repro.ir.randgen import GeneratorConfig, generate_function, random_inputs

from tests.fi.walks import instances_walked, oracle_bit_instances

#: Instances compared per step, so a whole-trace check holds one step.
STEP = 4096


def as_row(instance):
    return (instance.cycle, instance.reg, instance.bit, instance.pp,
            instance.rep, instance.epoch)


def check_walk(function, golden, bec, with_view):
    """Walker == oracle without killed windows: the sampling
    population, the BEC plan, Table III's counts and, *with_view*, the
    per-instance view."""
    population, walked = instances_walked(plan_walk, function,
                                          golden.executed, bec)
    bec_plan = plan_bec(function, golden, bec)
    oracle = oracle_bit_instances(function, golden, bec)
    view = iter_bit_instances(function, golden, bec) if with_view else ()
    seen = emitted = masked = 0
    while True:
        expected = list(itertools.islice(oracle, STEP))
        if with_view:
            assert list(itertools.islice(view, STEP)) == expected
        rows = [as_row(instance) for instance in expected]
        assert population.tuples(seen, seen + len(rows)) == rows
        emits = [row for row, instance in zip(rows, expected)
                 if instance.emit]
        assert bec_plan.tuples(emitted, emitted + len(emits)) == emits
        seen += len(rows)
        emitted += len(emits)
        masked += sum(1 for instance in expected if instance.rep == 0)
        if not expected:
            break
    assert (len(population), len(bec_plan), walked) == (seen, emitted, seen)

    accounting = fault_injection_accounting(function, golden, bec)
    windows = sum(len(bec.liveness.live_windows(pp))
                  for pp in golden.executed)
    assert accounting["live_in_values"] == windows * function.bit_width
    assert accounting["live_in_bits"] == emitted
    assert accounting["masked_bits"] == masked
    return bec_plan, population


def check_caps(function, golden, bec, bec_plan, population):
    """A capped BEC plan is the whole plan's prefix and walks no
    further than the end of the cycle that reaches the cap."""
    for cap in sorted({0, 1, 37, 300, len(bec_plan) // 2}):
        capped, walked = instances_walked(plan_bec, function, golden, bec,
                                          max_runs=cap)
        want = bec_plan[:cap]
        assert capped.tuples(0, len(capped)) == want.tuples(0, len(want))
        if cap == 0:
            assert walked == 0
        elif cap < len(bec_plan):
            # Instances of cycles up to the capping one, counted on the
            # population (checked against the oracle by check_walk).
            assert walked == rows_before(population,
                                         capped[-1].injection.cycle + 1)


def rows_before(plan, cycle):
    """Rows of a cycle-ordered *plan* in the cycles before *cycle*."""
    return bisect.bisect_left(
        range(len(plan)), cycle,
        key=lambda index: plan[index].injection.cycle)


def check_validation(function, golden, bec, limits, with_view):
    """Walker == oracle with killed windows, whole and cut."""
    plan = validation_plan(function, golden, bec)
    oracle = oracle_bit_instances(function, golden, bec, include_killed=True)
    view = iter_bit_instances(function, golden, bec,
                              include_killed=True) if with_view else ()
    seen = 0
    while True:
        expected = list(itertools.islice(oracle, STEP))
        if with_view:
            assert list(itertools.islice(view, STEP)) == expected
        assert plan.tuples(seen, seen + len(expected)) == \
            [as_row(instance) for instance in expected]
        seen += len(expected)
        if not expected:
            break
    assert len(plan) == seen
    for limit in limits:
        cut, walked = instances_walked(validation_plan, function, golden,
                                       bec, cycle_limit=limit)
        end = rows_before(plan, limit)
        assert cut.tuples(0, len(cut)) == plan.tuples(0, end)
        assert walked == end


@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_kernel_walk_matches_oracle(name):
    program = compile_benchmark(name)
    regs = program.initial_regs(*get_benchmark(name).args)
    function = program.function
    golden = Machine(function,
                     memory_image=program.memory_image).run(regs=regs)
    bec = run_bec(function)
    # The per-instance view is checked on the random programs only: it
    # reads the same templates as the plans, one instance at a time.
    check_caps(function, golden, bec,
               *check_walk(function, golden, bec, with_view=False))
    check_validation(function, golden, bec, (0, 1, 60, 120),
                     with_view=False)


@pytest.mark.parametrize("width, registers", [(8, 5), (32, 6)])
def test_random_program_walks_match_oracle(width, registers):
    config = GeneratorConfig(width=width, registers=registers, params=2,
                             structures=3, max_ops=4)
    for seed in range(50):
        function = generate_function(seed, config)
        golden = Machine(function).run(regs=random_inputs(seed, function),
                                       max_cycles=20_000)
        bec = run_bec(function)
        check_caps(function, golden, bec,
                   *check_walk(function, golden, bec, with_view=True))
        check_validation(function, golden, bec,
                         (0, 1, len(golden.executed) // 2), with_view=True)
