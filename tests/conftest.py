"""Shared fixtures for the test suite."""

from collections import namedtuple

import pytest

from repro.bench.motivating import count_years, count_years_scheduled
from repro.bench.programs import compile_benchmark, get_benchmark
from repro.bec.analysis import run_bec
from repro.fi.machine import Machine

KernelRun = namedtuple(
    "KernelRun", ["function", "memory_image", "regs", "golden", "bec"])


class _KernelRuns(dict):
    """Benchmark name -> :class:`KernelRun`, built on first lookup."""

    def __missing__(self, name):
        program = compile_benchmark(name)
        regs = program.initial_regs(*get_benchmark(name).args)
        golden = Machine(program.function,
                         memory_image=program.memory_image).run(regs=regs)
        run = self[name] = KernelRun(program.function,
                                     program.memory_image, regs, golden,
                                     run_bec(program.function))
        return run


@pytest.fixture(scope="session")
def kernel_runs():
    """The benchmark kernels' compiled function, memory image, inputs,
    golden trace and BEC analysis, shared by the whole session."""
    return _KernelRuns()


@pytest.fixture(scope="session")
def motivating_function():
    return count_years()


@pytest.fixture(scope="session")
def motivating_scheduled_function():
    return count_years_scheduled()


@pytest.fixture(scope="session")
def motivating_bec(motivating_function):
    return run_bec(motivating_function)


@pytest.fixture(scope="session")
def motivating_machine(motivating_function):
    return Machine(motivating_function, memory_size=256)


@pytest.fixture(scope="session")
def motivating_golden(motivating_machine):
    return motivating_machine.run()
