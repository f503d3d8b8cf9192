"""Tests for the Table III accounting — pinned to the paper's worked
numbers for the motivating example."""

import hashlib
import json

import pytest

from repro.bec.analysis import run_bec
from repro.bench.programs import compile_benchmark, get_benchmark
from repro.fi.accounting import (fault_injection_accounting,
                                 iter_bit_instances)
from repro.fi.campaign import plan_bec
from repro.fi.machine import Machine
from repro.ir.randgen import GeneratorConfig, generate_function, random_inputs
from repro.store.keys import plan_rows


def _digest(rows):
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


class TestMotivatingNumbers:
    """Paper §III-A footnotes † and ‡."""

    def test_value_level_runs_is_288(self, motivating_function,
                                     motivating_golden, motivating_bec):
        accounting = fault_injection_accounting(
            motivating_function, motivating_golden, motivating_bec)
        assert accounting["live_in_values"] == 288

    def test_bit_level_runs_is_225(self, motivating_function,
                                   motivating_golden, motivating_bec):
        accounting = fault_injection_accounting(
            motivating_function, motivating_golden, motivating_bec)
        assert accounting["live_in_bits"] == 225

    def test_pruned_percent_is_21_8(self, motivating_function,
                                    motivating_golden, motivating_bec):
        accounting = fault_injection_accounting(
            motivating_function, motivating_golden, motivating_bec)
        assert abs(accounting["pruned_percent"] - 21.875) < 1e-9

    def test_breakdown_sums(self, motivating_function, motivating_golden,
                            motivating_bec):
        accounting = fault_injection_accounting(
            motivating_function, motivating_golden, motivating_bec)
        assert (accounting["live_in_bits"] + accounting["masked_bits"]
                + accounting["inferrable_bits"]) == \
            accounting["live_in_values"]

    def test_masked_bits_are_6_per_iteration(self, motivating_function,
                                             motivating_golden,
                                             motivating_bec):
        accounting = fault_injection_accounting(
            motivating_function, motivating_golden, motivating_bec)
        assert accounting["masked_bits"] == 42          # 6 x 7 iterations


class TestInstanceWalk:
    def test_every_live_window_bit_yielded(self, motivating_function,
                                           motivating_golden,
                                           motivating_bec):
        instances = list(iter_bit_instances(
            motivating_function, motivating_golden, motivating_bec))
        assert len(instances) == 288

    def test_groups_advance_per_iteration(self, motivating_function,
                                          motivating_golden,
                                          motivating_bec):
        groups = {}
        for instance in iter_bit_instances(
                motivating_function, motivating_golden, motivating_bec):
            if instance.rep:
                groups.setdefault(instance.rep, set()).add(instance.epoch)
        # Each loop-body class gets a fresh dynamic group per iteration
        # (7 iterations), never shared across iterations.
        loop_group_counts = {len(g) for g in groups.values()}
        assert 7 in loop_group_counts
        assert max(loop_group_counts) == 7

    def test_emitted_instances_unique_per_group(
            self, motivating_function, motivating_golden,
            motivating_bec):
        seen = set()
        for instance in iter_bit_instances(
                motivating_function, motivating_golden, motivating_bec):
            if instance.emit:
                assert instance.epoch not in seen
                seen.add(instance.epoch)

    def test_groups_never_span_classes(self, motivating_function,
                                       motivating_golden, motivating_bec):
        owner = {}
        for instance in iter_bit_instances(
                motivating_function, motivating_golden, motivating_bec):
            if instance.rep:
                assert owner.setdefault(instance.epoch, instance.rep) == \
                    instance.rep

    def test_include_killed_walks_everything(self, motivating_function,
                                             motivating_golden,
                                             motivating_bec):
        live = sum(1 for _ in iter_bit_instances(
            motivating_function, motivating_golden, motivating_bec))
        everything = sum(1 for _ in iter_bit_instances(
            motivating_function, motivating_golden, motivating_bec,
            include_killed=True))
        # Killed windows: v3@p7, v2@p8 per iteration + v0@p10 once.
        assert everything - live == 7 * 8 + 4


class TestPinnedWalks:
    """The walker's exact output, pinned: digests recorded from the
    per-bit walker that preceded the per-pp row cache.  Any change to
    group numbering, emit decisions or instance order moves them (and
    with them every BEC cell's store key)."""

    @pytest.mark.parametrize("name, runs, digest", [
        ("bitcount", 148768, "bd5e768c7d217977d64ae99e0e21b638"),
        ("CRC32", 419360, "755afc9aebcabfc530f40ffc6c426f92"),
        ("AES", 235440, "039dec161737cbe5aba7b12fb3c99011"),
    ])
    def test_kernel_bec_plan(self, name, runs, digest):
        program = compile_benchmark(name)
        regs = program.initial_regs(*get_benchmark(name).args)
        golden = Machine(program.function,
                         memory_image=program.memory_image).run(regs=regs)
        plan = plan_bec(program.function, golden, run_bec(program.function))
        assert len(plan) == runs
        assert _digest(plan_rows(plan)) == digest

    def test_random_program_stream_with_killed_windows(self):
        config = GeneratorConfig(width=8, registers=5, params=2,
                                 structures=3, max_ops=4)
        function = generate_function(2, config)
        golden = Machine(function).run(regs=random_inputs(2, function),
                                       max_cycles=50_000)
        rows = [list(instance) for instance in iter_bit_instances(
            function, golden, run_bec(function), include_killed=True)]
        assert golden.cycles == 101
        assert len(rows) == 1368
        assert _digest(rows) == "f680481340e217ca75c0bdea3c1632bc"
