"""The overhead prediction is exact, and its validity dataflow is the
reference one.

For seeded random sets of eligible program points on every benchmark
kernel, :meth:`OverheadModel.extra_cycles` must equal the hardened
function's
:meth:`~repro.harden.transform.HardenResult.predicted_extra_cycles`,
the measured extra cycles of its fault-free run, and the value of the
reference below, which re-derives shadow validity from the IR on every
call (round-robin over block-level register sets); the per-instruction
validity of :meth:`OverheadModel.walk` must equal the reference's.
"""

import random
from collections import Counter

import pytest

from repro.bench.programs import BENCHMARK_ORDER
from repro.fi.machine import Machine
from repro.harden.select import eligible_pps
from repro.harden.transform import (OverheadModel, harden_function,
                                    is_sync_point)

#: Random protected sets per kernel, and the densities they are drawn at.
SETS = 6
DENSITIES = (0.05, 0.2, 0.5, 0.9)


def reference_validity(function, protected, with_inits):
    all_regs = frozenset(function.registers())
    entry = function.entry

    def transfer(block, valid):
        valid = set(valid)
        if with_inits and block is entry:
            valid |= set(function.params)
        for instruction in block.instructions:
            if instruction.pp in protected:
                valid.add(instruction.rd)
            else:
                for reg in instruction.data_writes():
                    valid.discard(reg)
        return valid

    in_map = {}
    out_map = {block.label: set(all_regs) for block in function.blocks}
    changed = True
    while changed:
        changed = False
        for block in function.blocks:
            in_state = set()
            if block is not entry and block.preds:
                in_state = set(all_regs)
                for pred in block.preds:
                    in_state &= out_map[pred.label]
            in_map[block.label] = in_state
            out_state = transfer(block, in_state)
            if out_state != out_map[block.label]:
                out_map[block.label] = out_state
                changed = True
    return in_map


def reference_overhead(function, protected, exec_counts):
    """The extra cycles of protecting *protected*, and per program point
    the registers with a valid shadow right before it."""
    with_inits = bool(protected)
    validity = reference_validity(function, protected, with_inits)
    entry = function.entry
    extra = len(function.params) \
        * exec_counts.get(entry.instructions[0].pp, 0) if with_inits else 0
    valid_before = {}
    for block in function.blocks:
        valid = set(validity[block.label])
        if with_inits and block is entry:
            valid |= set(function.params)
        for instruction in block.instructions:
            valid_before[instruction.pp] = frozenset(valid)
            count = exec_counts.get(instruction.pp, 0)
            if is_sync_point(instruction):
                extra += count * len(set(instruction.data_reads()) & valid)
            if instruction.pp in protected:
                extra += count
                valid.add(instruction.rd)
            else:
                valid.difference_update(instruction.data_writes())
    return extra, valid_before


def _protected_sets(function, seed):
    rng = random.Random(seed)
    eligible = eligible_pps(function)
    yield frozenset()
    for index in range(SETS):
        density = DENSITIES[index % len(DENSITIES)]
        yield frozenset(pp for pp in eligible if rng.random() < density)


@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_prediction_is_exact(name, kernel_runs):
    run = kernel_runs[name]
    function, golden = run.function, run.golden
    counts = Counter(golden.executed)
    model = OverheadModel(function, counts)
    for protected in _protected_sets(function, BENCHMARK_ORDER.index(name)):
        predicted = model.extra_cycles(protected)
        extra, valid_before = reference_overhead(function, protected,
                                                 counts)
        assert predicted == extra
        assert {row[1]: frozenset(reg for reg in model.registers
                                  if valid & model.bit[reg])
                for _, row, valid in model.walk(protected)} == valid_before
        result = harden_function(function, protected)
        assert predicted == result.predicted_extra_cycles(golden)
        trace = Machine(result.function,
                        memory_image=run.memory_image).run(regs=run.regs)
        assert trace.outcome == "ok"
        assert trace.cycles - golden.cycles == predicted
