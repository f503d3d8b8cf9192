"""Test helpers for the bit-instance walk.

:func:`oracle_bit_instances` is the per-bit walker that
:class:`repro.fi.accounting.BitWalk` replaced, kept as an oracle: it
carries each chain bit by bit through the trace, so it shares none of
the walker's template compilation.
:func:`instances_walked` reads the walker's own ``walk.instances``
counter.
"""

import itertools

from repro import obs
from repro.bec.coalesce import LocalRelation, instruction_pairs
from repro.fi.accounting import BitInstance
from repro.ir.liveness import compute_liveness


class _ChainWalker:
    """One ``(ports, windows, accesses)`` row per program point."""

    def __init__(self, function, bec, liveness, include_killed):
        self.function = function
        self.width = function.bit_width
        self.bec = bec
        self.liveness = liveness
        self.include_killed = include_killed
        self._rows = {}

    def row(self, pp):
        row = self._rows.get(pp)
        if row is None:
            row = self._rows[pp] = self._build_row(pp)
        return row

    def _build_row(self, pp):
        instruction = self.function.instruction_at(pp)
        relation = LocalRelation(instruction_pairs(
            instruction, self.bec.bit_values, self.width))
        bits = range(self.width)
        ports = []
        for reg in dict.fromkeys(instruction.data_reads()):
            targets = tuple(
                tuple(sorted(node[1:] for node in relation.component(reg, bit)
                             if node[0] == "win"))
                for bit in bits)
            if any(targets):
                ports.append((reg, targets))
        live_after = self.liveness.live_after(pp)
        accesses = instruction.data_accesses()
        windows = []
        for reg in accesses:
            if reg in live_after:
                windows.append((reg, self.bec.window_classes(pp, reg)))
            elif self.include_killed:
                windows.append((reg, (0,) * self.width))
        return tuple(ports), tuple(windows), accesses


def oracle_bit_instances(function, trace, bec, include_killed=False):
    """One :class:`BitInstance` per dynamic window-bit of *trace*,
    walked bit by bit."""
    liveness = bec.liveness or compute_liveness(function)
    width = function.bit_width
    row = _ChainWalker(function, bec, liveness, include_killed).row
    groups = itertools.count()
    pending = {}        # reg -> per-bit (rep, group) of its open chains
    for cycle, pp in enumerate(trace.executed):
        ports, windows, accesses = row(pp)

        # Chains arriving through this instruction's reads.
        incoming = {}   # (target_reg, bit) -> (chain_rep, group)
        for reg, port_targets in ports:
            chains = pending.get(reg)
            if chains is None:
                continue
            for chain, targets in zip(chains, port_targets):
                if chain is not None:
                    for target in targets:
                        incoming.setdefault(target, chain)

        # Every access closes the register's previous windows.
        for reg in accesses:
            pending.pop(reg, None)

        group_of_class = {}   # rep -> group opened this cycle
        for reg, classes in windows:
            chains = [None] * width
            for bit, rep in enumerate(classes):
                if rep == 0:
                    yield BitInstance(cycle, pp, reg, bit, 0, False, None)
                    continue
                group = None
                arrived = incoming.get((reg, bit))
                if arrived is not None and arrived[0] == rep:
                    group = arrived[1]
                elif rep in group_of_class:
                    group = group_of_class[rep]
                emit = group is None
                if emit:
                    group = next(groups)
                group_of_class.setdefault(rep, group)
                yield BitInstance(cycle, pp, reg, bit, rep, emit, group)
                chains[bit] = (rep, group)
            pending[reg] = chains


def instances_walked(call, *args, **kwargs):
    """``(result, window bits walked)`` of ``call(*args, **kwargs)``."""
    counter = obs.metrics().counter("walk.instances")
    before = counter.value
    result = call(*args, **kwargs)
    return result, counter.value - before
