"""``repro sweep`` — grid orchestration over the result store.

Expands a :class:`repro.store.spec.SweepSpec` into cells
(kernel × fault model × protection policy × budget × core), computes
each cell's content address, returns archived results for hits and
shards the misses across processes through the campaign engine
(:class:`repro.store.runner.CachingRunner`).  A local sweep is the
one-worker case of :mod:`repro.dist`: the grid is enqueued into an
in-memory lease queue and drained by one
:class:`repro.dist.worker.DistWorker`, so ``repro sweep``,
``repro dist work`` and ``repro serve`` execute, retry and fail cells
the same way.  Because every finished cell is committed to the store
individually, an interrupted sweep resumes for free: re-running the
same spec against the same store re-executes only the missing cells,
and a fully warm store re-runs zero
(``SweepReport.simulator_runs == 0``).

Kernels are either names from the evaluation-benchmark registry
(:mod:`repro.bench.programs`) or paths to ``.mc``/``.ir`` files, so
smoke grids in CI and tests can sweep tiny programs.
"""

import time
from collections import namedtuple
from itertools import islice

from repro import obs
from repro.bec.analysis import run_bec
from repro.fi.campaign import (iter_plan_bec, iter_plan_exhaustive,
                               iter_plan_inject_on_read)
# Bound for callers that patch this module's planner name
# (perfbench/layers.py); cells plan through the iterators above.
from repro.fi.campaign import plan_bec  # noqa: F401
from repro.fi.machine import Machine
from repro.harden import harden_checked
from repro.store.runner import CachingRunner

#: One finished (or cache-hit, or poisoned) grid cell.  ``error`` is
#: ``None`` on success and the poisoned queue row's
#: ``"ExcType: message"`` when every lease attempt failed.
CellOutcome = namedtuple(
    "CellOutcome",
    ["cell", "key", "cached", "plan_runs", "pruned_runs", "effects",
     "distinct_traces", "archived_bytes", "wall_time", "golden_cycles",
     "overhead", "error"], defaults=(None,))

#: Mode -> lazy planner over a cell's (function, golden, bec).
_PLANNERS = {
    "bec": iter_plan_bec,
    "ior": lambda function, golden, bec: iter_plan_inject_on_read(
        function, golden, liveness=bec.liveness),
    "exhaustive": lambda function, golden, bec: iter_plan_exhaustive(
        function, golden),
}


def _load_kernel(ref):
    """(function, memory_image, regs) for a
    :class:`repro.store.spec.KernelRef` — a registry name or a
    ``.mc``/``.ir`` path, with optional entry-function args."""
    if ref.target.endswith(".ir"):
        from repro.ir.parser import parse_function
        with open(ref.target, encoding="utf-8") as handle:
            function = parse_function(handle.read())
        params = list(function.params)
        if len(ref.args) != len(params):
            raise ValueError(
                f"{ref.label}: program expects {len(params)} arguments "
                f"({', '.join(params)}), spec gives {len(ref.args)}")
        return function, b"", dict(zip(params, ref.args))
    if ref.target.endswith(".mc"):
        from repro.minic.compiler import compile_source
        with open(ref.target, encoding="utf-8") as handle:
            program = compile_source(handle.read())
        return (program.function, program.memory_image,
                program.initial_regs(*ref.args))
    from repro.bench.programs import compile_benchmark, get_benchmark
    benchmark = get_benchmark(ref.target)
    program = compile_benchmark(ref.target)
    return (program.function, program.memory_image,
            program.initial_regs(*(ref.args or benchmark.args)))


class SweepRunner:
    """Executes one spec against one store.

    Cell failures follow the lease queue's model: a failing cell is
    re-leased at once, up to *max_retries* more times (default: the
    spec's ``engine.max_retries``, itself defaulting to 0), and is then
    poisoned.  A poisoned cell is reported as a :class:`CellOutcome`
    carrying ``error`` while the sweep finishes the rest, so one bad
    cell cannot sink a nightly grid.

    Each attempt runs under a wall-clock deadline (*max_wall_seconds*,
    default the spec's ``engine.max_wall_seconds``), so a hung cell
    *fails* like any other instead of blocking the sweep forever.
    """

    def __init__(self, spec, store, workers=None, force=False,
                 max_retries=None, max_wall_seconds=None):
        self.spec = spec
        self.store = store
        self.workers = spec.workers if workers is None else workers
        self.max_retries = spec.max_retries if max_retries is None \
            else max_retries
        self.max_wall_seconds = getattr(spec, "max_wall_seconds", None) \
            if max_wall_seconds is None else max_wall_seconds
        self.runner = CachingRunner(store, force=force)
        self._kernels = {}    # name -> (function, memory_image, regs)
        self._variants = {}   # (name, harden, budget) -> variant dict
        self._plans = {}      # (variant key, mode) -> plan

    def _kernel(self, label):
        if label not in self._kernels:
            ref = self.spec.kernel_refs.get(label)
            if ref is None:     # a hand-built spec without the ref map
                from repro.store.spec import _kernel_ref

                ref = _kernel_ref(label)
            self._kernels[label] = _load_kernel(ref)
        return self._kernels[label]

    def _variant(self, name, strategy, budget):
        """The (possibly hardened) program of a cell, with its golden
        trace and BEC analysis (shared across cores and fault models)."""
        key = (name, strategy, budget)
        if key in self._variants:
            return self._variants[key]
        function, memory_image, regs = self._kernel(name)
        if strategy == "none":
            golden = Machine(function, memory_image=memory_image).run(
                regs=regs)
            if golden.outcome != "ok":
                raise RuntimeError(
                    f"{name}: golden run failed ({golden.outcome})")
        else:
            base = self._variant(name, "none", None)
            result, _, golden = harden_checked(
                function, strategy, base["golden"],
                budget=0.3 if budget is None else budget, bec=base["bec"],
                regs=regs, memory_image=memory_image)
            function = result.function
        variant = {"function": function, "memory_image": memory_image,
                   "regs": regs, "golden": golden,
                   "bec": run_bec(function)}
        self._variants[key] = variant
        return variant

    def _plan(self, cell, variant):
        """The cell's plan, capped at ``max_runs``: only the kept prefix
        is ever built (``islice`` with ``None`` takes the whole plan)."""
        key = (cell.kernel, cell.harden, cell.budget, cell.mode)
        if key not in self._plans:
            runs = _PLANNERS[cell.mode](variant["function"],
                                        variant["golden"], variant["bec"])
            self._plans[key] = list(islice(runs, self.spec.max_runs))
        return self._plans[key]

    def cell_setup(self, cell):
        """Everything a cell needs before execution: the (possibly
        hardened) machine, the fault plan, and the variant dict."""
        variant = self._variant(cell.kernel, cell.harden, cell.budget)
        plan = self._plan(cell, variant)
        machine = Machine(variant["function"],
                          memory_image=variant["memory_image"],
                          core=cell.core)
        return machine, plan, variant

    def run_cell(self, cell, sink, progress=None):
        """Execute one cell, or fetch it from the store, and return its
        ``(CampaignResult, CellOutcome)``.

        The one engine call every sweep cell makes, local or not.  The
        store-writer sink is suppressed: *sink* (the queue worker's
        chunk capture) receives the chunk stream, and the worker
        archives it through a signed envelope."""
        machine, plan, variant = self.cell_setup(cell)
        result = self.runner.run(
            machine, plan, regs=variant["regs"],
            golden=variant["golden"], workers=self.workers,
            checkpoint_interval=self.spec.checkpoint_interval or None,
            prune=self.spec.prune, batch_lanes=self.spec.batch_lanes,
            harden=cell.harden, budget=cell.budget, progress=progress,
            chunk_size=self.spec.chunk_size, sink=sink, commit=False)
        overhead = None
        if cell.harden != "none":
            base = self._variant(cell.kernel, "none", None)["golden"]
            if base.cycles:
                overhead = variant["golden"].cycles / base.cycles - 1
        outcome = CellOutcome(
            cell=cell, key=self.runner.last_key,
            cached=result.cached, plan_runs=len(plan),
            pruned_runs=result.pruned_runs,
            effects=result.effect_counts(),
            distinct_traces=result.distinct_traces,
            archived_bytes=result.archived_bytes,
            wall_time=result.wall_time,
            golden_cycles=variant["golden"].cycles, overhead=overhead)
        return result, outcome

    def run(self, progress=None, run_progress=None):
        """Execute every cell: enqueue the grid into an in-memory
        :class:`repro.dist.queue.WorkQueue` and drain it with one
        :class:`repro.dist.worker.DistWorker` that shares this runner
        (its caches, ``force`` and hit/miss/run counters).

        ``progress(done, total, outcome)`` fires per finished or
        poisoned cell, in spec order; ``run_progress(cell, done,
        total)`` streams run-level advancement *within* each executing
        cell (the worker's heartbeat, fed by the engine's
        :class:`repro.fi.sink.ProgressSink`).  Both are delivered as
        worker events, which must never sink a cell, so an exception
        either callback raises is ignored: the cell and the sweep carry
        on and the report is complete."""
        from repro.dist.queue import WorkQueue, cell_id, spec_digest
        from repro.dist.worker import DistWorker

        start = time.perf_counter()
        registry = obs.metrics()
        mark = registry.mark()
        cells = self.spec.cells()
        digest = spec_digest(self.spec)
        by_id = {cell_id(digest, cell): cell for cell in cells}
        finished = {}        # cell id -> CellOutcome

        def on_event(kind, cell_id=None, done=None, total=None,
                     state=None, error=None, outcome=None, **_fields):
            cell = by_id[cell_id]
            if kind == "cell_progress":
                if run_progress is not None:
                    run_progress(cell, done, total)
                return
            if kind == "cell_failed" and state == "poisoned":
                outcome = CellOutcome(
                    cell=cell, key=None, cached=False, plan_runs=0,
                    pruned_runs=0, effects={}, distinct_traces=0,
                    archived_bytes=0, wall_time=0.0, golden_cycles=None,
                    overhead=None, error=error)
            elif kind != "cell_done":
                return
            finished[cell_id] = outcome
            if progress is not None:
                progress(len(finished), len(cells), outcome)

        with WorkQueue(":memory:") as queue, obs.tracer().span(
                "sweep", spec=self.spec.name, cells=len(cells)):
            queue.enqueue(self.spec, max_attempts=self.max_retries + 1)
            worker = DistWorker(queue, self.store, events=on_event)
            worker.runners[digest] = self
            worker.run()
        return SweepReport(
            spec_name=self.spec.name, store_path=self.store.path,
            outcomes=[finished[identity] for identity in by_id],
            hits=self.runner.hits, misses=self.runner.misses,
            simulator_runs=self.runner.simulator_runs,
            wall_time=time.perf_counter() - start,
            store_stats=self.store.stats(),
            metrics=registry.totals(registry.delta_since(mark)))


def run_sweep(spec, store, workers=None, force=False, progress=None,
              run_progress=None, max_retries=None, max_wall_seconds=None):
    """Expand *spec*, execute/skip every cell, return the report."""
    return SweepRunner(spec, store, workers=workers, force=force,
                       max_retries=max_retries,
                       max_wall_seconds=max_wall_seconds).run(
                           progress=progress, run_progress=run_progress)


class SweepReport:
    """Consolidated outcome of one sweep invocation."""

    def __init__(self, spec_name, store_path, outcomes, hits, misses,
                 simulator_runs, wall_time, store_stats=None,
                 metrics=None):
        self.spec_name = spec_name
        self.store_path = store_path
        self.outcomes = outcomes
        self.hits = hits
        self.misses = misses
        self.simulator_runs = simulator_runs
        self.wall_time = wall_time
        self.store_stats = store_stats or {}
        #: Flat metrics rollup of *this invocation* (a registry delta:
        #: ``store.hits``, ``engine.recoveries``, ...); empty when the
        #: report was built without the orchestrator.
        self.metrics = metrics or {}

    @property
    def cells_total(self):
        return len(self.outcomes)

    @property
    def cells_run(self):
        return sum(1 for outcome in self.outcomes
                   if not outcome.cached and outcome.error is None)

    @property
    def cells_cached(self):
        return sum(1 for outcome in self.outcomes if outcome.cached)

    @property
    def failed(self):
        """Outcomes whose every attempt failed (``error`` set)."""
        return [outcome for outcome in self.outcomes
                if outcome.error is not None]

    @property
    def cells_failed(self):
        return len(self.failed)

    def summary(self):
        text = (f"sweep {self.spec_name}: {self.cells_total} cells "
                f"({self.cells_run} executed, {self.cells_cached} from "
                f"cache), {self.simulator_runs} simulator runs in "
                f"{self.wall_time:.2f}s")
        if self.cells_failed:
            text += f"; {self.cells_failed} cells FAILED"
        return text

    def to_json(self):
        """JSON-safe dict (the ``SWEEP_*.json`` schema read by
        ``benchmarks/report.py``)."""
        return {
            "kind": "sweep",
            "spec": self.spec_name,
            "store": self.store_path,
            "totals": {
                "cells": self.cells_total,
                "cells_run": self.cells_run,
                "cells_cached": self.cells_cached,
                "cells_failed": self.cells_failed,
                "simulator_runs": self.simulator_runs,
                "wall_time": self.wall_time,
            },
            "store_stats": self.store_stats,
            "metrics": self.metrics,
            "cells": [
                {
                    "kernel": outcome.cell.kernel,
                    "mode": outcome.cell.mode,
                    "harden": outcome.cell.harden,
                    "budget": outcome.cell.budget,
                    "core": outcome.cell.core,
                    "key": outcome.key,
                    "cached": outcome.cached,
                    "plan_runs": outcome.plan_runs,
                    "pruned_runs": outcome.pruned_runs,
                    "effects": outcome.effects,
                    "distinct_traces": outcome.distinct_traces,
                    "archived_bytes": outcome.archived_bytes,
                    "wall_time": outcome.wall_time,
                    "golden_cycles": outcome.golden_cycles,
                    "overhead": outcome.overhead,
                    "error": outcome.error,
                }
                for outcome in self.outcomes
            ],
        }

    def to_markdown(self):
        lines = [
            f"# Sweep report — {self.spec_name}",
            "",
            f"- store: `{self.store_path}` "
            f"({self.store_stats.get('results', '?')} archived results)",
            f"- cells: {self.cells_total} "
            f"({self.cells_run} executed, {self.cells_cached} cached"
            + (f", **{self.cells_failed} failed**"
               if self.cells_failed else "") + ")",
            f"- simulator runs this invocation: {self.simulator_runs}",
            f"- wall time: {self.wall_time:.2f} s",
        ]
        uncompressed = self.store_stats.get("uncompressed_bytes", 0)
        compressed = self.store_stats.get("compressed_bytes", 0)
        if uncompressed:
            reduction = 1 - compressed / uncompressed
            lines.append(
                f"- archived payload: {compressed} B compressed "
                f"({uncompressed} B raw, {reduction:.0%} smaller)")
        lines += [
            "",
            "| kernel | mode | harden | budget | core | runs | sdc | "
            "detected | masked | distinct | cached | time (s) |",
            "|---|---|---|---|---|---:|---:|---:|---:|---:|---|---:|",
        ]
        for outcome in self.outcomes:
            cell = outcome.cell
            budget = "" if cell.budget is None else f"{cell.budget:.2f}"
            if outcome.error is not None:
                status = "FAILED"
            elif outcome.cached:
                status = "hit"
            else:
                status = "run"
            lines.append(
                f"| {cell.kernel} | {cell.mode} | {cell.harden} "
                f"| {budget} | {cell.core} | {outcome.plan_runs} "
                f"| {outcome.effects.get('sdc', 0)} "
                f"| {outcome.effects.get('detected', 0)} "
                f"| {outcome.effects.get('masked', 0)} "
                f"| {outcome.distinct_traces} "
                f"| {status} "
                f"| {outcome.wall_time:.2f} |")
        if self.failed:
            lines += ["", "## Failed cells", ""]
            for outcome in self.failed:
                cell = outcome.cell
                lines.append(
                    f"- `{cell.kernel} / {cell.mode} / {cell.harden} / "
                    f"{cell.core}` — {outcome.error}")
        lines.append("")
        return "\n".join(lines)
