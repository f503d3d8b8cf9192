"""The bit-value fixpoint's sparse meets and memoized evaluations change
no result.

The reference below is the dense formulation: every block
re-evaluation builds fresh vectors, and every join meets every register
of the incoming state.  ``compute_bit_values`` must reach the same
before/after states and the same executable blocks on the benchmark
kernels and on random programs.
"""

from collections import deque

import pytest

from repro.bench.programs import BENCHMARK_ORDER
from repro.bitvalue.analysis import (_feasible_successors, abstract_value,
                                     compute_bit_values, state_reader)
from repro.bitvalue.lattice import BitVector
from repro.ir.randgen import GeneratorConfig, generate_function

_SMALL = GeneratorConfig(width=4, registers=4, params=1, structures=2,
                         max_ops=3, max_loop_iterations=2)
_MEDIUM = GeneratorConfig(width=8, registers=5, params=2, structures=3,
                          max_ops=4)


def reference_bit_values(function):
    """``(before, after, executable)`` of the dense fixpoint, with
    every state as a sorted tuple of ``(reg, ones, zeros, bot)``."""
    width = function.bit_width
    bottom = BitVector.bottom(width)
    block_in = {function.entry.label: {param: BitVector.top(width)
                                       for param in function.params}}
    executable = {function.entry.label}
    worklist = deque([function.entry])
    queued = {function.entry.label}

    def run_block(block, state, on_instruction=None):
        read = state_reader(state, width)
        feasible = None
        for instruction in block.instructions:
            if on_instruction:
                on_instruction(instruction.pp, "before", state)
            written = abstract_value(instruction, read, width)
            if written is not None:
                for reg in instruction.data_writes():
                    state[reg] = written
            if instruction.is_conditional_branch:
                feasible = _feasible_successors(instruction, read, width)
            if on_instruction:
                on_instruction(instruction.pp, "after", state)
        return feasible

    while worklist:
        block = worklist.popleft()
        queued.discard(block.label)
        state = dict(block_in.get(block.label, {}))
        feasible = run_block(block, state)
        successors = [s for s in block.succs
                      if feasible is None or s.label in feasible]
        for successor in successors:
            target = block_in.setdefault(successor.label, {})
            changed = False
            for reg, vector in state.items():
                current = target.get(reg)
                if current is None:
                    target[reg] = vector
                    changed |= vector != bottom
                elif current.meet(vector) != current:
                    target[reg] = current.meet(vector)
                    changed = True
            newly_executable = successor.label not in executable
            executable.add(successor.label)
            if (changed or newly_executable) and \
                    successor.label not in queued:
                worklist.append(successor)
                queued.add(successor.label)

    states = {}

    def record(pp, side, state):
        states[pp, side] = _frozen(state)

    for block in function.blocks:
        run_block(block, dict(block_in.get(block.label, {})), record)
    return states, executable


def _frozen(state):
    return tuple(sorted((reg, vector.ones, vector.zeros, vector.bot)
                        for reg, vector in state.items()))


def assert_same_fixpoint(function):
    states, executable = reference_bit_values(function)
    result = compute_bit_values(function)
    assert result.executable_blocks == executable
    for instruction in function.instructions:
        pp = instruction.pp
        assert _frozen(result._before[pp]) == states[pp, "before"]
        assert _frozen(result._after[pp]) == states[pp, "after"]


@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_kernels(name, kernel_runs):
    assert_same_fixpoint(kernel_runs[name].function)


@pytest.mark.parametrize("config", [_SMALL, _MEDIUM], ids=["small", "medium"])
def test_random_programs(config):
    for seed in range(100):
        assert_same_fixpoint(generate_function(seed, config))
