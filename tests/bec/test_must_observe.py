"""The one-pass must-observe dataflow against a per-register reference.

``_compute_must_observe`` decides rule 2's "observed on every path"
side condition for every access window at once.  The reference below
solves the same question one register at a time (a separate CFG
fixpoint and instruction rescan per register); the two must agree on
every window of the benchmark kernels, their BEC-hardened variants and
small random programs.
"""

import pytest

from repro.bec.coalesce import _compute_must_observe
from repro.bench.programs import BENCHMARK_ORDER
from repro.harden import harden_checked
from repro.ir.parser import parse_function
from repro.ir.randgen import GeneratorConfig, generate_function

_SMALL = GeneratorConfig(width=4, registers=4, params=1, structures=2,
                         max_ops=3, max_loop_iterations=2)


def reference_must_observe(function):
    """Per register: blocks summarize to their first access (read =>
    True, write => False, none => pass-through), iterated with AND from
    an optimistic start; each access then scans forward in its block
    and falls back to the successors' summary."""
    result = {}
    blocks = function.blocks
    for reg in function.registers():
        first_access = {}
        for block in blocks:
            for instruction in block.instructions:
                if reg in instruction.data_reads():
                    first_access[block.label] = True
                    break
                if reg in instruction.data_writes():
                    first_access[block.label] = False
                    break
        observe_in = {block.label: True for block in blocks}
        changed = True
        while changed:
            changed = False
            for block in reversed(blocks):
                if block.label in first_access:
                    value = first_access[block.label]
                else:
                    value = bool(block.succs) and all(
                        observe_in[s.label] for s in block.succs)
                if value != observe_in[block.label]:
                    observe_in[block.label] = value
                    changed = True
        for block in blocks:
            instructions = block.instructions
            for index, instruction in enumerate(instructions):
                if reg not in instruction.data_accesses():
                    continue
                value = None
                for follower in instructions[index + 1:]:
                    if reg in follower.data_reads():
                        value = True
                        break
                    if reg in follower.data_writes():
                        value = False
                        break
                if value is None:
                    value = bool(block.succs) and all(
                        observe_in[s.label] for s in block.succs)
                result[(instruction.pp, reg)] = value
    return result


@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_kernel_and_hardened_variant(name, kernel_runs):
    run = kernel_runs[name]
    result, _, _ = harden_checked(
        run.function, "bec", run.golden, budget=0.3, bec=run.bec,
        regs=run.regs, memory_image=run.memory_image)
    for function in (run.function, result.function):
        expected = reference_must_observe(function)
        assert expected
        assert _compute_must_observe(function) == expected


def test_random_programs():
    for seed in range(200):
        function = generate_function(seed, _SMALL)
        assert _compute_must_observe(function) \
            == reference_must_observe(function), seed


def test_read_wins_over_write_and_exit_is_unobserved():
    function = parse_function("""
        func f width=4
        bb.entry:
            li c, 3
            addi c, c, 1
            beqz c, bb.out
        bb.side:
            addi b, c, 2
            j bb.out
        bb.out:
            ret c
    """)
    observed = _compute_must_observe(function)
    # The addi reads c before it overwrites it, so the li's window of c
    # is observed.
    assert observed[(0, "c")] is True
    assert observed[(1, "c")] is True
    # b is never read again: its window dies at the exit.
    assert observed[(3, "b")] is False
    assert observed == reference_must_observe(function)
