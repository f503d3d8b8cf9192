"""Shared plumbing for the experiment harnesses.

One :class:`BenchmarkRun` per benchmark bundles the compiled program,
its golden trace and the BEC analysis; results are cached per process
because several experiments share them.

Campaign-executing experiments go through :meth:`BenchmarkRun.run_plan`
(or pass :func:`campaign_runner` on), which runs the plan serially on
the threaded core through the one process-wide
:class:`repro.store.CachingRunner` (the engine guarantees bit-identical
aggregates for any worker count, checkpoint interval or core, so none
of them is an experiment setting).

That runner has no store unless ``REPRO_STORE=<path>`` (or
:func:`set_store`) binds the harnesses to a content-addressed result
store (:mod:`repro.store`): every campaign a harness runs is then
served from the store when its cell is already archived, which makes
``--regen-report`` incremental — near-instant on a warm store,
bit-identical aggregates either way (cached results replay the
archived per-run records, including the original execution's wall
time, so even the time columns reproduce).
"""

import os

from repro.bench.programs import (BENCHMARK_ORDER, compile_benchmark,
                                  get_benchmark)
from repro.bec.analysis import run_bec
from repro.fi.machine import Machine
from repro.store import CachingRunner, ResultStore


_runner = None


def set_store(path):
    """Bind every harness in this process to the result store at
    *path* (``None`` turns caching off).  ``REPRO_STORE`` is the
    environment-variable equivalent; an explicit call wins over it."""
    global _runner
    if _runner is not None and _runner.store is not None:
        _runner.store.close()
    _runner = CachingRunner(ResultStore(path) if path else None)


def campaign_runner():
    """The process-wide :class:`repro.store.CachingRunner`, bound from
    ``REPRO_STORE`` on first use; its ``store`` is ``None`` when no
    store is configured (then campaigns always execute)."""
    if _runner is None:
        set_store(os.environ.get("REPRO_STORE") or None)
    return _runner


class BenchmarkRun:
    def __init__(self, name):
        self.name = name
        self.benchmark = get_benchmark(name)
        self.program = compile_benchmark(name)
        self.function = self.program.function
        self.machine = Machine(self.function,
                               memory_image=self.program.memory_image)
        self.regs = self.program.initial_regs(*self.benchmark.args)
        self.golden = self.machine.run(regs=self.regs)
        if self.golden.outcome != "ok":
            raise RuntimeError(
                f"{name}: golden run failed ({self.golden.outcome})")
        self.bec = run_bec(self.function)

    def run_plan(self, plan):
        """Execute *plan* against this benchmark's golden run through
        the process-wide :func:`campaign_runner`: with a bound result
        store (``REPRO_STORE`` / :func:`set_store`) the plan is served
        from the store when its cell is archived.
        """
        return campaign_runner().run(self.machine, plan, regs=self.regs,
                                     golden=self.golden)


_cache = {}


def benchmark_run(name):
    if name not in _cache:
        _cache[name] = BenchmarkRun(name)
    return _cache[name]


def all_benchmark_names():
    return list(BENCHMARK_ORDER)
