"""``repro sweep`` — grid orchestration over the result store.

Expands a :class:`repro.store.spec.SweepSpec` into cells
(kernel × fault model × protection policy × budget × core), computes
each cell's content address, returns archived results for hits and
runs the misses through the campaign engine
(:class:`repro.store.runner.CachingRunner`).  A local sweep drains a
:mod:`repro.dist` lease queue with
:class:`repro.dist.worker.DistWorker` loops, so ``repro sweep``,
``repro dist work`` and ``repro serve`` execute, retry and fail cells
the same way.  ``workers`` is the sweep's process budget: with one
worker (or one kernel) a single in-process worker drains an in-memory
queue, and each cell's engine gets every worker; otherwise
``min(workers, kernels)`` queue workers run whole cells, each holding
whole kernels (the queue's claims are kernel-affine), and each cell's
engine gets ``workers // processes`` of them.  The queue workers fork
through :class:`repro.fork.ForkPool`, the same pool the campaign
engine's workers fork through, and ship their metrics and spans home
with every event; where the platform cannot fork or refuses a process,
the in-process worker drains what they leave.  Because every
finished cell is committed to the store
individually, an interrupted sweep resumes for free: re-running the
same spec against the same store re-executes only the missing cells,
and a fully warm store re-runs zero
(``SweepReport.simulator_runs == 0``).

Kernels are either names from the evaluation-benchmark registry
(:mod:`repro.bench.programs`) or paths to ``.mc``/``.ir`` files, so
smoke grids in CI and tests can sweep tiny programs.
"""

import contextlib
import os
import tempfile
import time
from collections import namedtuple

from repro import fork, obs
from repro.bec.analysis import run_bec
from repro.fi.campaign import PLANNERS
# Bound for callers that patch this module's planner name
# (perfbench/layers.py); cells plan through PLANNERS.
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
        with obs.tracer().span("bec", kernel=name, harden=strategy):
            bec = run_bec(function)
        variant = {"function": function, "memory_image": memory_image,
                   "regs": regs, "golden": golden, "bec": bec}
        self._variants[key] = variant
        return variant

    def _plan(self, cell, variant):
        """The cell's plan, capped at ``max_runs``: the planner walks
        the trace no further than the kept prefix (``None`` takes the
        whole plan)."""
        key = (cell.kernel, cell.harden, cell.budget, cell.mode)
        if key not in self._plans:
            self._plans[key] = PLANNERS[cell.mode](
                variant["function"], variant["golden"], variant["bec"],
                self.spec.max_runs)
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

    def run_cell(self, cell, progress=None):
        """Execute one cell, or fetch it from the store, and return its
        ``(CampaignResult, CellOutcome)``.

        The one engine call every sweep cell makes, local or not.  The
        cell is not archived here: the queue worker takes the chunk
        capture from ``self.runner.last_capture`` and archives it
        before completing the cell's lease."""
        machine, plan, variant = self.cell_setup(cell)
        result = self.runner.run(
            machine, plan, regs=variant["regs"],
            golden=variant["golden"], workers=self.workers,
            checkpoint_interval=self.spec.checkpoint_interval,
            prune=self.spec.prune, harden=cell.harden, budget=cell.budget,
            progress=progress, commit=False)
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
        """Execute every cell through :mod:`repro.dist` queue workers
        and return the :class:`SweepReport`, cells in spec order.

        With one worker, a grid of one kernel or a store that is not a
        file, one in-process :class:`repro.dist.worker.DistWorker`
        that shares this runner (its caches, ``force`` and hit/miss/run
        counters) drains an in-memory queue, and each cell's engine
        gets every worker.  Otherwise :meth:`_drain_forked` runs whole
        cells in ``min(workers, kernels)`` forked queue workers, and
        the in-process worker drains the queue file instead where the
        platform cannot fork or refuses a process.

        ``progress(done, total, outcome)`` fires per finished or
        poisoned cell, in completion order; ``run_progress(cell, done,
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

        def settle(identity, outcome):
            finished[identity] = outcome
            if progress is not None:
                with contextlib.suppress(Exception):
                    progress(len(finished), len(cells), outcome)

        def on_event(kind, cell_id=None, done=None, total=None,
                     state=None, error=None, outcome=None, **_fields):
            if kind == "cell_progress":
                if run_progress is not None:
                    with contextlib.suppress(Exception):
                        run_progress(by_id[cell_id], done, total)
            elif kind == "cell_done":
                settle(cell_id, outcome)
            elif kind == "cell_failed" and state == "poisoned":
                settle(cell_id, _failed_outcome(by_id[cell_id], error))

        processes = min(self.workers,
                        len({cell.kernel for cell in cells}))
        forked = (processes > 1 and self.store.path != ":memory:"
                  and fork.available())
        with contextlib.ExitStack() as stack:
            stack.enter_context(obs.tracer().span(
                "sweep", spec=self.spec.name, cells=len(cells)))
            path = ":memory:"
            if forked:
                directory = stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="repro-sweep-"))
                path = os.path.join(directory, "queue.sqlite")
                cells = self._largest_kernels_first(cells)
            queue = stack.enter_context(WorkQueue(path))
            queue.enqueue(self.spec, max_attempts=self.max_retries + 1,
                          cells=cells)
            if forked:
                forked = self._drain_forked(queue, processes, on_event)
            if not forked:
                worker = DistWorker(queue, self.store, events=on_event)
                worker.runners[digest] = self
                worker.run()
            for row in queue.cells():       # cells no worker settled
                if row["cell_id"] not in finished:
                    settle(row["cell_id"], _failed_outcome(
                        row["cell"], row["last_error"]
                        or f"left {row['state']} by every worker"))
        return SweepReport(
            spec_name=self.spec.name, store_path=self.store.path,
            outcomes=[finished[identity] for identity in by_id],
            hits=self.runner.hits, misses=self.runner.misses,
            simulator_runs=self.runner.simulator_runs,
            wall_time=time.perf_counter() - start,
            store_stats=self.store.stats(),
            metrics=registry.totals(registry.delta_since(mark)))

    def _largest_kernels_first(self, cells):
        """*cells* grouped by kernel, the largest compiled program
        first (spec order between equal sizes and within a group), so
        the longest kernel starts first.  A kernel that does not load
        goes last; its cells fail in the worker that claims them."""
        def size(label):
            try:
                return len(self._kernel(label)[0])
            except Exception:
                return -1
        labels = dict.fromkeys(cell.kernel for cell in cells)
        rank = {label: (-size(label), index)
                for index, label in enumerate(labels)}
        return sorted(cells, key=lambda cell: rank[cell.kernel])

    def _drain_forked(self, queue, processes, on_event):
        """Drain *queue* with *processes* forked queue workers; this
        process only collects.  Returns ``False`` when process creation
        was refused: what the children left is then this process's to
        drain.

        The children fork through :class:`repro.fork.ForkPool`.  Each
        is an unmodified :class:`repro.dist.worker.DistWorker` with its
        own connections to the queue file and the store, and a
        :class:`SweepRunner` whose engine gets ``workers // processes``
        workers (see :meth:`_serve_queue`).  A child sends each worker
        event with its hit/miss/run counts since its last message; the
        pool brings the child's metrics and spans home with it, the
        counts are folded in here and the event goes to *on_event*.  A
        child that dies has its leases expired at once and is started
        again under the same worker id, which still holds its kernels,
        so its cell is re-leased without waiting out the lease; there
        is at most one restart per possible claim.  Once a settled cell
        leaves the queue drained, a shared event wakes the children
        that idle between claims, so the sweep ends with its last cell
        rather than up to a poll interval later.
        """
        engine_workers = self.workers // processes
        restarts = queue.counts()["pending"] * (self.max_retries + 1)
        refused = False
        with fork.ForkPool() as pool:
            drained = pool.event()

            def start(worker_id):
                nonlocal refused
                try:
                    pool.spawn(worker_id, self._serve_queue, drained,
                               queue.path, worker_id, engine_workers)
                except OSError:             # sandbox, rlimits
                    refused = True

            def on_message(worker_id, message):
                if message[0] == "error":   # its end restarts it
                    obs.logger().error("sweep.worker_failed",
                                       worker=worker_id, error=message[1])
                    return
                kind, fields, counts = message
                self.runner.hits += counts[0]
                self.runner.misses += counts[1]
                self.runner.simulator_runs += counts[2]
                on_event(kind, **fields)
                if kind != "cell_progress" and queue.drained():
                    drained.set()

            def on_end(worker_id, exitcode):
                nonlocal restarts
                if exitcode and not queue.drained():
                    queue.expire_worker(worker_id)
                    if restarts:
                        restarts -= 1
                        start(worker_id)

            for slot in range(processes):
                start(f"sweep-{slot}")
            pool.drain(on_message, on_end)
        return not refused

    def _serve_queue(self, send, drained, queue_path, worker_id,
                     engine_workers):
        """The body of one forked sweep worker: drain the queue file
        into the store with a :class:`repro.dist.worker.DistWorker`,
        sending what :meth:`_drain_forked` collects; the worker idles
        on the *drained* event instead of sleeping."""
        from repro.dist.queue import WorkQueue, spec_digest
        from repro.dist.worker import DistWorker
        from repro.store.db import ResultStore

        with ResultStore(self.store.path, chaos=self.store.chaos) \
                as store, WorkQueue(queue_path) as queue:
            runner = SweepRunner(
                self.spec, store, workers=engine_workers,
                force=self.runner.force, max_retries=self.max_retries,
                max_wall_seconds=self.max_wall_seconds)
            runner._kernels = self._kernels   # compiled before the fork
            sent = (0, 0, 0)

            def on_event(kind, **fields):
                nonlocal sent
                if kind == "cell_claimed":
                    return
                counts = (runner.runner.hits, runner.runner.misses,
                          runner.runner.simulator_runs)
                send(kind, fields, [now - before for now, before
                                    in zip(counts, sent)])
                sent = counts

            worker = DistWorker(queue, store, worker_id=worker_id,
                                events=on_event, wait=drained.wait)
            worker.runners[spec_digest(self.spec)] = runner
            worker.run()


def _failed_outcome(cell, error):
    """The :class:`CellOutcome` of a cell whose every attempt failed."""
    return CellOutcome(
        cell=cell, key=None, cached=False, plan_runs=0, pruned_runs=0,
        effects={}, distinct_traces=0, archived_bytes=0, wall_time=0.0,
        golden_cycles=None, overhead=None, error=error)


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
