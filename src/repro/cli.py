"""Command-line interface.

Usage (``python -m repro <command> ...``)::

    compile  FILE.mc [-o OUT.ir] [-O{0,1}]     mini-C -> textual IR
    run      FILE.{mc,ir} [--args N ...]       simulate, print outputs
    analyze  FILE.{mc,ir}                      BEC report per window
    campaign FILE.{mc,ir} [--mode bec|ior|exhaustive] [--execute N]
             [--harden none|full|bec] [--budget F]
             [--core threaded|batched] [--prune liveness]
    harden   FILE.{mc,ir} [--strategy none|full|bec] [--budget F]
                                               selective redundancy -> IR
    validate FILE.{mc,ir} [--cycles N]         paper §V soundness check
    schedule FILE.{mc,ir} [--policy best|worst|original|...]
    sample   FILE.{mc,ir} [--budget N] [--bec] statistical AVF estimate
    memory   FILE.{mc,ir} [--execute]          memory-cell fault space
    fuzz     [--count N] [--seed N]            random-program soundness
    sweep    SPEC.{toml,json} --store DB       cached campaign grid
    store    verify DB [--clear-quarantine]    audit a result store
    obs      summarize TRACE.json              trace self-time breakdown
    dist     enqueue SPEC --queue Q            queue a sweep's cells
    dist     work --queue Q --store DB         drain the queue (worker)
    dist     status --queue Q                  progress from queue state
    dist     reap --queue Q                    expire stale leases
    serve    [--port P] [--api-key K ...]      campaign HTTP service
    client   submit SPEC [--wait]              submit to a service
    client   status JOB                        job progress over HTTP
    client   fetch JOB [--json OUT]            decoded report over HTTP

``.mc`` files are compiled with the mini-C compiler (entry ``main``);
``.ir`` files are parsed as textual IR.  Program arguments land in the
entry function's parameter registers.  ``sweep`` expands a declarative
TOML/JSON grid spec (kernels × fault models × protection policies ×
budgets × cores) against a content-addressed result store
(:mod:`repro.store`): cells already archived are skipped, the rest run
whole in kernel-affine queue worker processes, and interrupted sweeps
resume.  ``campaign
--store DB`` gives a single campaign the same treatment.  ``run``, ``analyze``,
``campaign``, ``sample`` and ``harden`` accept the same ``-O{0,1}``
optimization level as ``compile``, so analyses and campaigns can run
at a matching optimization level.

``dist`` runs the same grids across processes and hosts: ``enqueue``
fills a lease-based work queue (one SQLite file), any number of
``work`` processes drain it — each cell executed through the same
cached engine, archived into the store, and only then marked done in
the queue — and ``status``/``reap`` report and groom the queue from
its state alone.  The read-only commands (``dist status``, ``dist
reap``, ``store verify``) refuse a database file that does not exist
instead of creating an empty one.

``campaign``, ``sample`` and ``sweep`` also accept the telemetry
flags: ``--trace FILE.json`` records the invocation's spans and writes
Chrome trace-event JSON (loadable in Perfetto, summarizable with
``repro obs summarize``), and ``--metrics [FILE|-]`` writes the final
metrics-registry snapshot as JSON (``-`` or no value prints it to
stdout).
"""

import argparse
import contextlib
import os
import sys
import time

from repro.bec.analysis import run_bec
from repro.errors import ReproError
from repro.fi.accounting import fault_injection_accounting
from repro.fi.campaign import PLANNERS
from repro.fi.machine import Machine
from repro.fi.memory import (memory_fault_accounting, plan_memory_bec,
                             plan_memory_inject_on_read)
from repro.fi.sampling import estimate_avf
from repro.fi.validate import validate_bec
from repro.harden import eligible_pps, harden_checked
from repro.ir.parser import parse_function
from repro.ir.printer import format_function
from repro.minic.compiler import compile_source
from repro.sched.list_scheduler import schedule_function
from repro.sched.policies import (BestReliability, OriginalOrder,
                                  WorstReliability)
from repro.sched.related import (LiveIntervalMinimizing,
                                 LookaheadCriticality)
from repro.sched.vulnerability import live_fault_sites
from repro.store import CachingRunner, ResultStore


class LoadedProgram:
    def __init__(self, function, memory_image, param_regs):
        self.function = function
        self.memory_image = memory_image
        self.param_regs = param_regs


def load_program(path, optimize=1):
    """Load a ``.mc`` or ``.ir`` file into a :class:`LoadedProgram`."""
    with open(path) as handle:
        source = handle.read()
    if path.endswith(".ir"):
        function = parse_function(source)
        return LoadedProgram(function, b"", list(function.params))
    program = compile_source(source, optimize=optimize)
    return LoadedProgram(program.function, program.memory_image,
                         program.param_regs)


def _initial_regs(program, args):
    if len(args) != len(program.param_regs):
        raise SystemExit(
            f"program expects {len(program.param_regs)} arguments "
            f"({', '.join(program.param_regs)}), got {len(args)}")
    return dict(zip(program.param_regs, args))


def _golden(program, args, core="threaded"):
    machine = Machine(program.function,
                      memory_image=program.memory_image, core=core)
    trace = machine.run(regs=_initial_regs(program, args))
    if trace.outcome != "ok":
        raise SystemExit(f"golden run failed: {trace.outcome} "
                         f"({trace.trap_kind or ''})")
    return machine, trace


def _harden_checked(program, strategy, budget, golden, args,
                    core="threaded"):
    """:func:`repro.harden.harden_checked` on a loaded program; a
    hardened variant that fails its golden checks exits the command."""
    try:
        return harden_checked(program.function, strategy, golden,
                              budget=budget,
                              regs=_initial_regs(program, args),
                              memory_image=program.memory_image,
                              core=core)
    except ReproError as error:
        raise SystemExit(str(error))


def cmd_compile(options):
    program = load_program(options.file, optimize=options.level)
    text = format_function(program.function)
    if options.output:
        with open(options.output, "w") as handle:
            handle.write(text)
        print(f"wrote {options.output} "
              f"({len(program.function.instructions)} instructions)")
    else:
        sys.stdout.write(text)
    return 0


def cmd_run(options):
    program = load_program(options.file, optimize=options.level)
    _, trace = _golden(program, options.args)
    for value in trace.outputs:
        print(f"out: {value} ({value:#x})")
    print(f"returned: {trace.returned}")
    print(f"cycles:   {trace.cycles}")
    return 0


def cmd_analyze(options):
    program = load_program(options.file, optimize=options.level)
    bec = run_bec(program.function)
    summary = bec.summary()
    print(f"function {program.function.name}: "
          f"{len(program.function.instructions)} instructions, "
          f"width {program.function.bit_width}")
    for key, value in summary.items():
        print(f"  {key}: {value}")
    if options.windows:
        print("\nper-window classes (0 = masked):")
        for pp, reg in bec.fault_space.windows():
            instruction = program.function.instruction_at(pp)
            classes = bec.window_classes(pp, reg)
            print(f"  p{pp:<4d} {str(instruction):32s} {reg:>6s}  "
                  f"{classes}")
    return 0


def cmd_campaign(options):
    if options.workers < 1:
        raise SystemExit("--workers must be >= 1")
    if options.checkpoint_interval < 0:
        raise SystemExit("--checkpoint-interval must be >= 0 (0 = auto)")
    program = load_program(options.file, optimize=options.level)
    machine, golden = _golden(program, options.args, core=options.core)
    function = program.function
    if options.harden != "none":
        result, machine, hardened_golden = _harden_checked(
            program, options.harden, options.budget, golden,
            options.args, core=options.core)
        function = result.function
        print(f"hardened ({options.harden}): "
              f"{len(result.protected)} protected instructions, "
              f"{result.n_check} checkers, "
              f"overhead {hardened_golden.cycles / golden.cycles - 1:+.1%} "
              f"({golden.cycles} -> {hardened_golden.cycles} cycles)")
        golden = hardened_golden
    bec = run_bec(function)
    plan = PLANNERS[options.mode](function, golden, bec)
    accounting = fault_injection_accounting(function, golden, bec)
    print(f"golden trace: {golden.cycles} cycles ({options.core} core)")
    print(f"plan ({options.mode}): {len(plan)} fault-injection runs")
    print(f"accounting: {accounting}")
    if options.execute:
        slice_ = plan[:options.execute]
        progress = None
        if options.progress:
            # \r-rewriting garbles piped/teed output; only a real
            # terminal gets the live line, logs get line-per-update.
            tty = sys.stderr.isatty()

            def progress(done, total):
                if tty:
                    print(f"\r  {done}/{total} runs", end="",
                          file=sys.stderr, flush=True)
                else:
                    print(f"  {done}/{total} runs",
                          file=sys.stderr, flush=True)
        prune = None if options.prune == "none" else options.prune
        with (ResultStore(options.store) if options.store
              else contextlib.nullcontext()) as store:
            result = CachingRunner(store).run(
                machine, slice_, regs=_initial_regs(program, options.args),
                golden=golden, workers=options.workers,
                checkpoint_interval=options.checkpoint_interval,
                progress=progress, prune=prune,
                harden=options.harden, budget=options.budget)
        if result.cached:
            print(f"store hit: replayed archived aggregates from "
                  f"{options.store}")
        if options.progress and sys.stderr.isatty():
            print(file=sys.stderr)    # terminate the rewritten line
        core_label = options.core
        if options.core == "batched" and not result.vectorized:
            core_label = "batched (scalar fallback: NumPy unavailable " \
                         "or setup not batchable)"
        mode = (f"core={core_label}, workers={options.workers}, "
                f"checkpoint-interval={options.checkpoint_interval or 'auto'}")
        if prune:
            mode += (f", prune={prune} "
                     f"({result.pruned_runs} runs pre-classified)")
        print(f"executed {len(slice_)} runs ({mode}) in "
              f"{result.wall_time:.2f}s: {result.effect_counts()}")
        print(f"distinguishable traces: {result.distinct_traces} "
              f"({result.archived_bytes} bytes archived)")
    return 0


def cmd_validate(options):
    program = load_program(options.file)
    machine, golden = _golden(program, options.args)
    bec = run_bec(program.function)
    report = validate_bec(program.function, machine, bec,
                          regs=_initial_regs(program, options.args),
                          golden=golden, cycle_limit=options.cycles)
    print(f"validated {report.instances} window-bit instances "
          f"({report.runs} injections)")
    print(f"  masked claims:     {report.masked_checked} "
          f"(unsound: {report.unsound_masked})")
    print(f"  equivalence groups: {report.equivalence_groups} "
          f"(unsound: {report.unsound_equivalences})")
    print(f"  sound-but-imprecise pairs: {report.imprecise_pairs}")
    if report.unsound_masked or report.unsound_equivalences:
        print("UNSOUND CLASSIFICATIONS FOUND")
        return 1
    print("no unsound classification")
    return 0


#: CLI names of the scheduling policies.
POLICIES = {
    "best": BestReliability,
    "worst": WorstReliability,
    "original": OriginalOrder,
    "live-interval": LiveIntervalMinimizing,
    "lookahead": LookaheadCriticality,
}


def cmd_harden(options):
    program = load_program(options.file, optimize=options.level)
    _, golden = _golden(program, options.args)
    result, _, hardened_golden = _harden_checked(
        program, options.strategy, options.budget, golden, options.args)
    overhead = hardened_golden.cycles / golden.cycles - 1 \
        if golden.cycles else 0.0
    print(f"strategy {options.strategy}: "
          f"{len(result.protected)}/{len(eligible_pps(program.function))} "
          f"instructions protected", file=sys.stderr)
    print(f"inserted: {result.n_shadow} shadow instructions, "
          f"{result.n_check} checkers, {result.n_init} parameter inits",
          file=sys.stderr)
    print(f"dynamic overhead: {overhead:+.1%} "
          f"({golden.cycles} -> {hardened_golden.cycles} cycles, "
          f"predicted {result.predicted_overhead(golden):+.1%})",
          file=sys.stderr)
    if program.memory_image:
        print("note: textual IR carries no memory image; campaigns on "
              "the written file will start from zeroed memory (use "
              "`repro campaign --harden` to keep the data segment)",
              file=sys.stderr)
    text = format_function(result.function)
    if options.output:
        with open(options.output, "w") as handle:
            handle.write(text)
        print(f"wrote {options.output} "
              f"({len(result.function.instructions)} instructions)")
    else:
        sys.stdout.write(text)
    return 0


def cmd_sample(options):
    if options.checkpoint_interval < 0:
        raise SystemExit("--checkpoint-interval must be >= 0 (0 = auto)")
    program = load_program(options.file, optimize=options.level)
    machine, golden = _golden(program, options.args, core=options.core)
    bec = run_bec(program.function) if options.bec else None
    estimate = estimate_avf(machine, program.function, golden,
                            options.budget, seed=options.seed,
                            regs=_initial_regs(program, options.args),
                            bec=bec, confidence=options.confidence,
                            checkpoint_interval=options.checkpoint_interval)
    mode = "BEC-collapsed" if options.bec else "uniform"
    print(f"{mode} sampling: {estimate.trials} samples over "
          f"{estimate.population} fault sites")
    print(f"AVF estimate: {estimate.avf:.4f}  "
          f"[{estimate.low:.4f}, {estimate.high:.4f}] "
          f"at {options.confidence:.0%} confidence")
    print(f"simulator runs: {estimate.simulator_runs}")
    return 0


def cmd_memory(options):
    program = load_program(options.file)
    machine, golden = _golden(program, options.args)
    if not golden.loads:
        print("program performs no loads; memory fault space is empty")
        return 0
    bec = run_bec(program.function)
    accounting = memory_fault_accounting(program.function, golden, bec)
    print(f"golden trace: {golden.cycles} cycles, "
          f"{len(golden.loads)} loads")
    print(f"memory accounting: {accounting}")
    if options.execute:
        full = plan_memory_inject_on_read(program.function, golden)
        pruned = plan_memory_bec(program.function, golden, bec)
        regs = _initial_regs(program, options.args)
        result = CachingRunner().run(machine, pruned, regs=regs, golden=golden)
        print(f"pruned campaign: {len(pruned)}/{len(full)} runs, "
              f"effects {result.effect_counts()}")
    return 0


def cmd_fuzz(options):
    from repro.ir.randgen import (GeneratorConfig, generate_function,
                                  random_inputs)

    config = GeneratorConfig(width=options.width)
    failures = 0
    for seed in range(options.seed, options.seed + options.count):
        function = generate_function(seed, config)
        machine = Machine(function)
        regs = random_inputs(seed, function)
        golden = machine.run(regs=regs, max_cycles=100_000)
        if golden.outcome != "ok":
            print(f"seed {seed}: golden run {golden.outcome} — skipped")
            continue
        bec = run_bec(function)
        report = validate_bec(function, machine, bec, regs=regs,
                              golden=golden,
                              cycle_limit=options.cycles)
        verdict = "ok"
        if report.unsound_masked or report.unsound_equivalences:
            verdict = (f"UNSOUND (masked {report.unsound_masked}, "
                       f"equivalence {report.unsound_equivalences})")
            failures += 1
        print(f"seed {seed}: {report.instances} instances, "
              f"{report.equivalence_groups} groups -> {verdict}")
    if failures:
        print(f"{failures}/{options.count} seeds UNSOUND")
        return 1
    print(f"all {options.count} seeds sound")
    return 0


def _write_json(path, payload):
    """The ``--json PATH`` output of a command: *payload* as indented,
    key-sorted JSON, and a note of where it went (nothing without a
    path)."""
    if not path:
        return
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def cmd_sweep(options):
    from repro.store import load_spec, run_sweep

    if options.workers is not None and options.workers < 1:
        raise SystemExit("--workers must be >= 1")
    try:
        spec = load_spec(options.spec)
    except (OSError, ValueError) as error:
        raise SystemExit(f"cannot load sweep spec: {error}")
    progress = None
    run_progress = None
    if options.progress:
        # \r overwriting assumes a cursor to move; when stderr is a
        # pipe or file (CI logs, `2>sweep.log`), the control bytes
        # land verbatim and every update concatenates into one
        # garbled mega-line.  Detect and emit one line per update
        # instead.
        tty = sys.stderr.isatty()
        active = {"width": 0}    # live-line state for \r overwriting

        def _clear_line():
            if tty and active["width"]:
                print("\r" + " " * active["width"] + "\r", end="",
                      file=sys.stderr, flush=True)
                active["width"] = 0

        def run_progress(cell, done, total):
            # Within-cell advancement on a single rewritten line
            # (cache hits never get here — they retire no runs).
            budget = "" if cell.budget is None \
                else f" budget={cell.budget:.2f}"
            line = (f"  ... {cell.kernel} mode={cell.mode} "
                    f"harden={cell.harden}{budget} core={cell.core}: "
                    f"{done}/{total} runs")
            if not tty:
                print(line, file=sys.stderr, flush=True)
                return
            padding = " " * max(0, active["width"] - len(line))
            print("\r" + line + padding, end="", file=sys.stderr,
                  flush=True)
            active["width"] = len(line)

        def progress(done, total, outcome):
            _clear_line()
            cell = outcome.cell
            if outcome.error is not None:
                label = "FAIL"
            elif outcome.cached:
                label = "hit "
            else:
                label = "run "
            budget = "" if cell.budget is None \
                else f" budget={cell.budget:.2f}"
            print(f"  [{done}/{total}] {label} {cell.kernel} "
                  f"mode={cell.mode} harden={cell.harden}{budget} "
                  f"core={cell.core} ({outcome.plan_runs} runs)",
                  file=sys.stderr)
    with ResultStore(options.store) as store:
        report = run_sweep(spec, store, workers=options.workers,
                           force=options.force, progress=progress,
                           run_progress=run_progress,
                           max_retries=options.max_retries,
                           max_wall_seconds=options.cell_timeout)
        stats = store.stats()
    print(report.summary())
    print(f"store {options.store}: {stats['results']} archived results "
          f"({stats['archived_runs']} runs, "
          f"{stats['archived_wall_time']:.1f}s of simulation)")
    _write_json(options.json, report.to_json())
    if options.markdown:
        with open(options.markdown, "w", encoding="utf-8") as handle:
            handle.write(report.to_markdown())
        print(f"wrote {options.markdown}")
    if report.cells_failed:
        for outcome in report.failed:
            cell = outcome.cell
            print(f"FAILED cell: {cell.kernel} mode={cell.mode} "
                  f"harden={cell.harden} core={cell.core} — "
                  f"{outcome.error}", file=sys.stderr)
        return 1
    return 0


def cmd_obs_summarize(options):
    from repro.obs.summarize import load_trace, render_table

    try:
        events = load_trace(options.trace_file)
    except (OSError, ValueError) as error:
        raise SystemExit(f"cannot load trace: {error}")
    print(render_table(events, limit=options.limit))
    return 0


def _existing_database(path):
    """*path* when it names an existing file; otherwise exit nonzero
    before anything opens it (opening would create an empty database,
    which a read-only command would then report as healthy)."""
    if not os.path.isfile(path):
        raise SystemExit(f"no such file: {path}")
    return path


def cmd_store_verify(options):
    with ResultStore(_existing_database(options.db)) as store:
        report = store.verify(
            clear_quarantine=options.clear_quarantine)
    if options.clear_quarantine and report["cleared"]:
        print(f"cleared {report['cleared']} quarantine rows before "
              f"the audit")
    print(f"store {options.db}: {report['results']} results, "
          f"{report['chunks']} chunks audited — "
          f"{'OK' if report['ok'] else 'CORRUPT'}")
    for entry in report["corrupt"]:
        where = "meta row" if entry["chunk_index"] < 0 \
            else f"chunk {entry['chunk_index']}"
        print(f"  corrupt: key={entry['key']} {where}: "
              f"{entry['reason']}", file=sys.stderr)
    if report["quarantined"]:
        print(f"  quarantined rows: {report['quarantined']} "
              f"(re-executing the affected cells rewrites and clears "
              f"them)")
    _write_json(options.json, report)
    return 0 if report["ok"] else 1


def cmd_dist_enqueue(options):
    from repro.dist.queue import (DEFAULT_MAX_ATTEMPTS, WorkQueue,
                                  spec_digest)
    from repro.store import load_spec

    try:
        spec = load_spec(options.spec)
    except (OSError, ValueError) as error:
        raise SystemExit(f"cannot load sweep spec: {error}")
    max_attempts = options.max_attempts \
        if options.max_attempts is not None else DEFAULT_MAX_ATTEMPTS
    with WorkQueue(options.queue) as queue:
        inserted = queue.enqueue(spec, max_attempts=max_attempts)
    print(f"queue {options.queue}: spec {spec.name} "
          f"({spec_digest(spec)[:12]}): {len(inserted)} cells "
          f"enqueued, {len(spec.cells()) - len(inserted)} already "
          f"queued")
    return 0


def cmd_dist_work(options):
    from repro.dist.queue import DEFAULT_LEASE_SECONDS, WorkQueue
    from repro.dist.worker import (DEFAULT_MAX_IDLE_SECONDS, DistWorker,
                                   policy_from_specs)

    try:
        policy = policy_from_specs(options.chaos)
    except ValueError as error:
        raise SystemExit(str(error))
    if options.workers < 1:
        raise SystemExit("--workers must be >= 1")
    lease_seconds = options.lease_seconds \
        if options.lease_seconds is not None else DEFAULT_LEASE_SECONDS
    max_idle = options.max_idle \
        if options.max_idle is not None else DEFAULT_MAX_IDLE_SECONDS
    with WorkQueue(options.queue, chaos=policy) as queue, \
            ResultStore(options.store) as store:
        worker = DistWorker(
            queue, store, worker_id=options.worker_id,
            lease_seconds=lease_seconds, engine_workers=options.workers,
            max_cells=options.max_cells,
            max_idle_seconds=max_idle, chaos=policy,
            cell_timeout=options.cell_timeout)
        stats = worker.run()
    print(f"worker {worker.worker_id}: {stats['done']} cells done, "
          f"{stats['superseded']} superseded, {stats['failed']} failed")
    return 0


def cmd_dist_status(options):
    from repro.dist.queue import WorkQueue

    with WorkQueue(_existing_database(options.queue)) as queue:
        status = queue.status()
        poisoned = [row for row in queue.cells()
                    if row["state"] == "poisoned"]
    states = status["states"]
    print(f"queue {options.queue}: {status['cells']} cells — "
          f"{states['done']} done, {states['pending']} pending, "
          f"{states['leased']} leased ({status['stale_leases']} stale), "
          f"{states['poisoned']} poisoned")
    for worker, done in status["workers"].items():
        print(f"  {worker}: {done} cells")
    for row in poisoned:
        print(f"  poisoned {row['cell_id'][:12]} after "
              f"{row['attempts']} attempts: {row['last_error']}",
              file=sys.stderr)
    _write_json(options.json, status)
    healthy = status["drained"] and not states["poisoned"]
    return 0 if healthy else 1


def cmd_dist_reap(options):
    from repro.dist.queue import WorkQueue

    with WorkQueue(_existing_database(options.queue)) as queue:
        report = queue.reap()
    print(f"queue {options.queue}: {report['expired']} leases expired "
          f"back to pending, {report['poisoned']} cells poisoned")
    return 0


def cmd_serve(options):
    from repro.service import (AuthConfigError, CampaignService,
                               ServiceConfig, keys_from_env)

    keys = list(options.api_key or []) + keys_from_env()
    try:
        service = CampaignService(ServiceConfig(
            options.queue, options.store, host=options.host,
            port=options.port, api_keys=keys, dev=options.dev,
            workers=options.workers,
            engine_workers=options.engine_workers,
            cell_timeout=options.cell_timeout))
    except AuthConfigError as error:
        raise SystemExit(f"serve: {error}")
    port = service.start()
    mode = "DEV MODE — NO AUTH" if options.dev \
        else f"{service.authenticator.n_keys} API key(s)"
    print(f"repro serve: http://{options.host}:{port} "
          f"({mode}, {options.workers} in-process workers, "
          f"queue={options.queue}, store={options.store})",
          flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        service.stop()
    return 0


def _service_client(options):
    from repro.service import ServiceClient

    api_key = options.api_key or \
        os.environ.get("REPRO_SERVICE_KEY") or None
    return ServiceClient(options.url, api_key=api_key)


def cmd_client_submit(options):
    from repro.service import ServiceClientError

    client = _service_client(options)
    try:
        result = client.submit(options.spec, name=options.name)
        job = result["job_id"]
        print(f"job {job}: {result['enqueued']} cells enqueued, "
              f"{result['already_queued']} already queued"
              + (" (idempotent resubmission)"
                 if result["idempotent"] else ""))
        if options.wait:
            status = client.wait(job, timeout=options.timeout,
                                 poll=options.poll)
            states = status["states"]
            print(f"job {job} drained: {states['done']} done, "
                  f"{states['poisoned']} poisoned")
            _write_json(options.json, status)
            return 0 if not states["poisoned"] else 1
        _write_json(options.json, result)
    except ServiceClientError as error:
        raise SystemExit(f"client submit: {error}")
    return 0


def cmd_client_status(options):
    from repro.service import ServiceClientError

    client = _service_client(options)
    try:
        status = client.status(options.job)
    except ServiceClientError as error:
        raise SystemExit(f"client status: {error}")
    states = status["states"]
    print(f"job {options.job}: {status['cells']} cells — "
          f"{states['done']} done, {states['pending']} pending, "
          f"{states['leased']} leased, {states['poisoned']} poisoned"
          + (" [drained]" if status["drained"] else ""))
    _write_json(options.json, status)
    healthy = status["drained"] and not states["poisoned"]
    return 0 if healthy else 1


def cmd_client_fetch(options):
    from repro.service import ServiceClientError

    client = _service_client(options)
    try:
        report = client.report(options.job)
    except ServiceClientError as error:
        raise SystemExit(f"client fetch: {error}")
    totals = report["totals"]
    print(f"job {options.job}: {totals['cells']} cells "
          f"({totals['cells_run']} executed, {totals['cells_cached']} "
          f"from cache), {totals['simulator_runs']} simulator runs")
    _write_json(options.json, report)
    return 0 if not totals["cells_failed"] else 1


def cmd_dot(options):
    from repro.ir.dot import cfg_to_dot, ddg_to_dot

    program = load_program(options.file)
    if options.ddg:
        text = ddg_to_dot(program.function.block(options.ddg))
    else:
        bec = run_bec(program.function) if options.bec else None
        text = cfg_to_dot(program.function, bec=bec)
    if options.output:
        with open(options.output, "w") as handle:
            handle.write(text)
        print(f"wrote {options.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_schedule(options):
    program = load_program(options.file)
    machine, golden = _golden(program, options.args)
    bec = run_bec(program.function)
    policy = POLICIES[options.policy]()
    scheduled = schedule_function(program.function, policy=policy,
                                  bec=bec)
    scheduled_bec = run_bec(scheduled)
    scheduled_machine = Machine(scheduled,
                                memory_image=program.memory_image)
    trace = scheduled_machine.run(
        regs=_initial_regs(program, options.args))
    before = live_fault_sites(program.function, golden, bec)
    after = live_fault_sites(scheduled, trace, scheduled_bec)
    print(f"fault surface: {before} -> {after} live bit-sites "
          f"({(1 - after / max(before, 1)) * 100:+.2f} % change)")
    if options.output:
        with open(options.output, "w") as handle:
            handle.write(format_function(scheduled))
        print(f"wrote {options.output}")
    else:
        sys.stdout.write(format_function(scheduled))
    return 0


def _package_version():
    """The installed distribution's version, falling back to the
    package's own stamp when running from a source tree."""
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("repro-bec")
    except PackageNotFoundError:
        import repro

        return repro.__version__


def _at_least_one(text):
    """argparse type of a count below which nothing could run: a
    smaller value is a usage error (exit 2)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be at least 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BEC bit-level reliability analysis (CGO 2024 "
                    "reproduction)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {_package_version()}")
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        sub = commands.add_parser(name, **kwargs)
        sub.set_defaults(handler=handler)
        sub.add_argument("file", help="program (.mc mini-C or .ir IR)")
        return sub

    def add_opt_arguments(sub):
        sub.add_argument("-O", dest="level", type=int, choices=(0, 1),
                         default=1,
                         help="optimization level for .mc input "
                              "(default 1: copyprop+DCE)")

    def add_obs_arguments(sub):
        sub.add_argument("--trace", metavar="FILE.json", default=None,
                         help="record this invocation's spans and "
                              "write them as Chrome trace-event JSON "
                              "(view in Perfetto, or `repro obs "
                              "summarize FILE.json`)")
        sub.add_argument("--metrics", metavar="FILE", nargs="?",
                         const="-", default=None,
                         help="write the final metrics snapshot as "
                              "JSON to FILE ('-' or no value: stdout)")

    sub = add("compile", cmd_compile, help="compile mini-C to IR")
    sub.add_argument("-o", "--output")
    add_opt_arguments(sub)

    sub = add("run", cmd_run, help="simulate a program")
    add_opt_arguments(sub)
    sub.add_argument("--args", nargs="*", type=lambda v: int(v, 0),
                     default=[])

    sub = add("analyze", cmd_analyze, help="run the BEC analysis")
    add_opt_arguments(sub)
    sub.add_argument("--windows", action="store_true",
                     help="print per-window bit classes")

    sub = add("campaign", cmd_campaign,
              help="plan (and optionally execute) an FI campaign")
    add_opt_arguments(sub)
    sub.add_argument("--mode", choices=tuple(PLANNERS),
                     default="bec")
    sub.add_argument("--harden", choices=("none", "full", "bec"),
                     default="none",
                     help="apply selective software redundancy before "
                          "planning (the campaign then runs against the "
                          "hardened binary and reports 'detected' runs)")
    sub.add_argument("--budget", type=float, default=0.3,
                     help="dynamic instruction overhead budget for "
                          "--harden bec (0.3 = at most 30%% extra)")
    sub.add_argument("--core", choices=Machine.CORES, default="threaded",
                     help="execution core (results are bit-identical; "
                          "'batched' runs the campaign SIMD-across-"
                          "faults with NumPy lockstep lanes)")
    sub.add_argument("--execute", type=int, default=0,
                     help="execute the first N planned runs")
    sub.add_argument("--workers", type=int, default=1,
                     help="worker processes for campaign execution "
                          "(results stay bit-identical to serial)")
    sub.add_argument("--checkpoint-interval", type=int, default=0,
                     metavar="CYCLES",
                     help="resume injected runs from golden-run "
                          "snapshots taken every CYCLES instructions "
                          "(0 = auto: about 32 snapshots per trace)")
    sub.add_argument("--prune", choices=("none", "liveness"),
                     default="none",
                     help="pre-classify injections provably overwritten"
                          "-before-read on the golden path as masked, "
                          "without simulation (aggregates stay "
                          "bit-identical)")
    sub.add_argument("--progress", action="store_true",
                     help="print a progress line to stderr")
    sub.add_argument("--store", metavar="DB", default=None,
                     help="content-addressed result store: serve the "
                          "executed campaign from DB when its cell is "
                          "archived, archive it otherwise")
    add_obs_arguments(sub)
    sub.add_argument("--args", nargs="*", type=lambda v: int(v, 0),
                     default=[])

    sub = add("validate", cmd_validate,
              help="validate analysis claims by exhaustive injection")
    sub.add_argument("--cycles", type=int, default=None,
                     help="validate only the first N trace cycles")
    sub.add_argument("--args", nargs="*", type=lambda v: int(v, 0),
                     default=[])

    sub = add("schedule", cmd_schedule,
              help="vulnerability-aware rescheduling")
    sub.add_argument("--policy", choices=tuple(POLICIES),
                     default="best")
    sub.add_argument("-o", "--output")
    sub.add_argument("--args", nargs="*", type=lambda v: int(v, 0),
                     default=[])

    sub = add("harden", cmd_harden,
              help="selective software redundancy (emits hardened IR)")
    add_opt_arguments(sub)
    sub.add_argument("--strategy", choices=("none", "full", "bec"),
                     default="bec")
    sub.add_argument("--budget", type=float, default=0.3,
                     help="dynamic instruction overhead budget for "
                          "--strategy bec (0.3 = at most 30%% extra)")
    sub.add_argument("-o", "--output")
    sub.add_argument("--args", nargs="*", type=lambda v: int(v, 0),
                     default=[])

    sub = add("sample", cmd_sample,
              help="statistical AVF estimate by random fault sampling")
    add_opt_arguments(sub)
    sub.add_argument("--budget", type=int, default=500)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--confidence", type=float, default=0.95)
    sub.add_argument("--bec", action="store_true",
                     help="collapse simulator runs per BEC class")
    sub.add_argument("--core", choices=Machine.CORES, default="threaded",
                     help="execution core; 'batched' classifies all "
                          "unique sampled sites in one lockstep pass")
    sub.add_argument("--checkpoint-interval", type=int, default=0,
                     metavar="CYCLES",
                     help="resume sampled runs from golden-run "
                          "snapshots taken every CYCLES instructions "
                          "(0 = auto: about 32 snapshots per trace)")
    add_obs_arguments(sub)
    sub.add_argument("--args", nargs="*", type=lambda v: int(v, 0),
                     default=[])

    sub = add("memory", cmd_memory,
              help="memory-cell fault accounting and pruned campaign")
    sub.add_argument("--execute", action="store_true",
                     help="execute the pruned memory campaign")
    sub.add_argument("--args", nargs="*", type=lambda v: int(v, 0),
                     default=[])

    sub = add("dot", cmd_dot, help="export CFG/DDG as Graphviz DOT")
    sub.add_argument("--ddg", metavar="LABEL",
                     help="export the DDG of one basic block instead")
    sub.add_argument("--bec", action="store_true",
                     help="annotate CFG nodes with unmasked-bit counts")
    sub.add_argument("-o", "--output")

    sub = commands.add_parser(
        "sweep",
        help="expand a campaign grid spec against the result store")
    sub.set_defaults(handler=cmd_sweep)
    sub.add_argument("spec",
                     help="grid spec (.toml on Python >= 3.11, or the "
                          "same structure as .json)")
    sub.add_argument("--store", metavar="DB",
                     default=".repro-store.sqlite",
                     help="content-addressed result store "
                          "(default: .repro-store.sqlite)")
    sub.add_argument("--workers", type=int, default=None,
                     help="processes for the sweep: whole cells run in "
                          "min(N, kernels) queue workers, each cell's "
                          "engine gets the rest (default: the spec's "
                          "engine.workers)")
    sub.add_argument("--force", action="store_true",
                     help="re-execute every cell even on a warm store "
                          "(results are re-archived)")
    sub.add_argument("--json", metavar="PATH",
                     help="write the consolidated report as JSON "
                          "(read by benchmarks/report.py)")
    sub.add_argument("--markdown", metavar="PATH",
                     help="write the consolidated report as markdown")
    sub.add_argument("--progress", action="store_true",
                     help="print one line per finished cell to stderr")
    sub.add_argument("--max-retries", type=int, default=None,
                     metavar="N",
                     help="extra lease attempts per failing cell before "
                          "it is poisoned and recorded as FAILED "
                          "(default: the spec's engine.max_retries, "
                          "else 0); any cell that ultimately fails "
                          "makes the sweep exit nonzero after "
                          "finishing the rest")
    sub.add_argument("--cell-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="per-cell wall-clock deadline: a hung cell "
                          "fails (and retries / reports like any other "
                          "cell failure) instead of blocking the sweep "
                          "(default: the spec's engine.max_wall_seconds"
                          ", else none)")
    add_obs_arguments(sub)

    store_cmd = commands.add_parser(
        "store", help="result-store maintenance")
    store_sub = store_cmd.add_subparsers(dest="store_command",
                                         required=True)
    sub = store_sub.add_parser(
        "verify",
        help="audit every archived result (digests, chunk presence, "
             "decodability); corrupt rows are quarantined and exit "
             "status is nonzero")
    sub.set_defaults(handler=cmd_store_verify)
    sub.add_argument("db", help="result store database file")
    sub.add_argument("--json", metavar="PATH",
                     help="write the audit report as JSON")
    sub.add_argument("--clear-quarantine", action="store_true",
                     help="drop quarantined rows before the audit (the "
                          "post-repair workflow: damage that persists "
                          "is immediately re-quarantined)")

    dist_cmd = commands.add_parser(
        "dist", help="distributed sweep execution (lease queue)")
    dist_sub = dist_cmd.add_subparsers(dest="dist_command",
                                       required=True)

    def add_queue_argument(sub):
        sub.add_argument("--queue", metavar="DB",
                         default=".repro-queue.sqlite",
                         help="work queue database "
                              "(default: .repro-queue.sqlite)")

    sub = dist_sub.add_parser(
        "enqueue", help="expand a sweep spec into queued cells")
    sub.set_defaults(handler=cmd_dist_enqueue)
    sub.add_argument("spec", help="grid spec (.toml / .json)")
    add_queue_argument(sub)
    sub.add_argument("--max-attempts", type=_at_least_one, default=None,
                     metavar="N",
                     help="claims a cell may consume before it is "
                          "poisoned (at least 1; default 3)")

    sub = dist_sub.add_parser(
        "work",
        help="drain the queue: lease cells, execute, archive each "
             "result and complete its lease")
    sub.set_defaults(handler=cmd_dist_work)
    add_queue_argument(sub)
    sub.add_argument("--store", metavar="DB",
                     default=".repro-store.sqlite",
                     help="content-addressed result store "
                          "(default: .repro-store.sqlite)")
    sub.add_argument("--worker-id", default=None,
                     help="worker identity in leases "
                          "(default: host-pid)")
    sub.add_argument("--lease-seconds", type=float, default=None,
                     metavar="S",
                     help="lease duration before an unrenewed cell is "
                          "reclaimable (default 60; the heartbeat "
                          "renews at a third of this)")
    sub.add_argument("--max-cells", type=int, default=None, metavar="N",
                     help="stop after claiming N cells")
    sub.add_argument("--max-idle", type=float, default=None,
                     metavar="S",
                     help="give up after S seconds without a claim "
                          "(default 120; a drained queue exits "
                          "immediately)")
    sub.add_argument("--workers", type=int, default=1,
                     help="engine worker processes per cell")
    sub.add_argument("--cell-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="per-cell wall-clock deadline (default: the "
                          "spec's engine.max_wall_seconds)")
    sub.add_argument("--chaos", action="append", default=[],
                     metavar="FAULT=N",
                     help="inject a host-level fault: kill_cell=N, "
                          "kill_claim=N, expire_lease=N "
                          "(N = this worker's N-th claimed cell), "
                          "skew_clock=SECONDS (repeatable)")
    add_obs_arguments(sub)

    sub = dist_sub.add_parser(
        "status",
        help="progress from queue state alone (exit 0 only when "
             "drained with nothing poisoned)")
    sub.set_defaults(handler=cmd_dist_status)
    add_queue_argument(sub)
    sub.add_argument("--json", metavar="PATH",
                     help="write the status report as JSON")

    sub = dist_sub.add_parser(
        "reap",
        help="expire stale leases (pending again, or poisoned when "
             "out of attempts)")
    sub.set_defaults(handler=cmd_dist_reap)
    add_queue_argument(sub)

    sub = commands.add_parser(
        "serve",
        help="campaign-as-a-service: HTTP API over store + queue + "
             "engine (submissions enqueue cells; in-process or "
             "external `repro dist work` workers drain them)")
    sub.set_defaults(handler=cmd_serve)
    sub.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    sub.add_argument("--port", type=int, default=8035,
                     help="bind port, 0 for ephemeral (default 8035)")
    add_queue_argument(sub)
    sub.add_argument("--store", metavar="DB",
                     default=".repro-store.sqlite",
                     help="content-addressed result store "
                          "(default: .repro-store.sqlite)")
    sub.add_argument("--api-key", action="append", default=[],
                     metavar="KEY",
                     help="accepted API key (repeatable; also "
                          "$REPRO_SERVICE_KEYS, comma-separated). "
                          "Required unless --dev")
    sub.add_argument("--dev", action="store_true",
                     help="disable authentication (local development "
                          "only — there is no keyless production "
                          "mode)")
    sub.add_argument("--workers", type=int, default=1, metavar="N",
                     help="in-process drain workers (default 1; 0 "
                          "relies on external `repro dist work` "
                          "hosts)")
    sub.add_argument("--engine-workers", type=int, default=1,
                     metavar="N",
                     help="engine worker processes per cell "
                          "(default 1)")
    sub.add_argument("--cell-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="per-cell wall-clock deadline (default: the "
                          "spec's engine.max_wall_seconds)")

    client_cmd = commands.add_parser(
        "client", help="talk to a running campaign service")
    client_sub = client_cmd.add_subparsers(dest="client_command",
                                           required=True)

    def add_client_arguments(sub):
        sub.add_argument("--url", default="http://127.0.0.1:8035",
                         help="service base URL "
                              "(default http://127.0.0.1:8035)")
        sub.add_argument("--api-key", default=None,
                         help="API key (default: $REPRO_SERVICE_KEY)")
        sub.add_argument("--json", metavar="PATH",
                         help="write the response payload as JSON")

    sub = client_sub.add_parser(
        "submit", help="submit a sweep spec; the job id is the "
                       "spec's content digest (resubmission is "
                       "idempotent)")
    sub.set_defaults(handler=cmd_client_submit)
    sub.add_argument("spec", help="grid spec (.toml / .json)")
    add_client_arguments(sub)
    sub.add_argument("--name", default=None,
                     help="job display name (default: spec filename)")
    sub.add_argument("--wait", action="store_true",
                     help="poll until the job drains (exit 1 if any "
                          "cell poisoned)")
    sub.add_argument("--timeout", type=float, default=600.0,
                     metavar="S",
                     help="--wait limit in seconds (default 600)")
    sub.add_argument("--poll", type=float, default=0.5, metavar="S",
                     help="--wait poll interval (default 0.5)")

    sub = client_sub.add_parser(
        "status", help="job progress (exit 0 only when drained with "
                       "nothing poisoned)")
    sub.set_defaults(handler=cmd_client_status)
    sub.add_argument("job", help="job id (spec content digest)")
    add_client_arguments(sub)

    sub = client_sub.add_parser(
        "fetch", help="decoded sweep report (per-cell aggregates "
                      "from the service's store)")
    sub.set_defaults(handler=cmd_client_fetch)
    sub.add_argument("job", help="job id (spec content digest)")
    add_client_arguments(sub)

    obs_cmd = commands.add_parser(
        "obs", help="telemetry utilities")
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    sub = obs_sub.add_parser(
        "summarize",
        help="per-span self-time breakdown of a --trace export")
    sub.set_defaults(handler=cmd_obs_summarize)
    sub.add_argument("trace_file",
                     help="Chrome trace-event JSON (or span JSONL)")
    sub.add_argument("--limit", type=int, default=20, metavar="N",
                     help="rows to show (default 20)")

    sub = commands.add_parser(
        "fuzz", help="random-program differential soundness check")
    sub.set_defaults(handler=cmd_fuzz)
    sub.add_argument("--count", type=int, default=10)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--width", type=int, default=8)
    sub.add_argument("--cycles", type=int, default=None,
                     help="validate only the first N trace cycles "
                          "(default: the whole trace)")

    return parser


def _start_observability(options):
    """Enable span recording before the handler when ``--trace`` asks
    for it (the registry needs no arming: it is always on)."""
    if getattr(options, "trace", None):
        from repro import obs

        obs.tracer().start()


def _finish_observability(options):
    """Export the telemetry artifacts the invocation asked for.

    Runs in a ``finally`` so a failing command still leaves its trace
    and metrics behind — usually exactly when you want them."""
    trace = getattr(options, "trace", None)
    metrics = getattr(options, "metrics", None)
    if trace:
        from repro import obs

        tracer = obs.tracer()
        tracer.stop()
        n_events = tracer.export_chrome(trace)
        print(f"wrote {trace} ({n_events} trace events)",
              file=sys.stderr)
    if metrics is not None:
        import json

        from repro import obs

        registry = obs.metrics()
        payload = json.dumps({"kind": "metrics",
                              "totals": registry.totals(),
                              "families": registry.snapshot()},
                             indent=2, sort_keys=True)
        if metrics == "-":
            print(payload)
        else:
            with open(metrics, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"wrote {metrics}", file=sys.stderr)


def main(argv=None):
    options = build_parser().parse_args(argv)
    _start_observability(options)
    try:
        return options.handler(options)
    finally:
        _finish_observability(options)


if __name__ == "__main__":
    sys.exit(main())
