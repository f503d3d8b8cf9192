"""Per-layer attribution for the traced run.

:func:`install` wraps the public entry point of each layer in a
``repro.obs`` span (and counts its work), so the Chrome trace the
tracer exports shows every layer and ``repro obs summarize`` renders
it.  The wrappers live only in the traced job's process; the untraced
runs execute the program unmodified.

:func:`layer_metrics` turns the recorded spans plus the metrics-registry
delta of the job into the ``per_layer`` metrics of ``BENCHMARK.json``.
Every ``*_s`` metric is *self* time (a span's duration minus the spans
nested in it), so the layer times and ``unattributed_frac`` add up to
the job's wall time.
"""

import contextlib
from unittest import mock

import repro.bec.analysis
import repro.bench.programs
import repro.fi.campaign
import repro.fi.validate
import repro.harden
import repro.minic.compiler
import repro.store.db
import repro.store.runner
import repro.store.sweep
from repro import obs
from repro.fi.machine import Machine

#: Root span of one job; the benchmark opens it around the job.
JOB_SPAN = "perfbench.job"

#: Spans that only orchestrate: their self time is what no layer
#: explains (``unattributed_frac``).
ORCHESTRATION = (JOB_SPAN, "sweep", "sweep.cell", "campaign.bec",
                 "campaign.exhaustive")

#: Span name -> per-layer time metric (self time, seconds).
SPAN_METRICS = {
    "minic.compile": "minic.compile_s",
    "opt": "opt.s",
    "harden": "harden.s",
    "bitvalue": "bitvalue.s",
    "bec.coalesce": "bec.coalesce_s",
    "bec": "bec.s",
    "golden": "golden.s",
    "plan": "plan.s",
    "store.key": "store.key_s",
    "store.get": "store.get_s",
    "store.write": "store.write_s",
    "store.commit": "store.write_s",
    "validate": "validate.s",
    "machine.run": "validate.run_s",
}

#: Registry counters reported as they are (summed over labels).
COUNTERS = ("store.hits", "store.misses", "store.bytes_in",
            "engine.runs_executed", "engine.runs_pruned",
            "engine.worker_spawns", "engine.recoveries",
            "batch.lanes_retired", "batch.escapes", "batch.scalar_direct")

#: Every per-layer metric, in report order, with its unit.
METRICS = (
    ("minic.compile_s", "s"), ("opt.s", "s"),
    ("harden.s", "s"), ("harden.calls", "count"),
    ("bitvalue.s", "s"), ("bec.coalesce_s", "s"), ("bec.s", "s"),
    ("bec.calls", "count"),
    ("golden.s", "s"), ("golden.cycles", "count"),
    ("plan.s", "s"), ("plan.instances_walked", "count"),
    ("plan.runs_emitted", "count"), ("plan.runs_used", "count"),
    ("plan.useful_frac", "frac"),
    ("store.key_s", "s"), ("store.get_s", "s"), ("store.hits", "count"),
    ("store.misses", "count"), ("store.hit_frac", "frac"),
    ("store.write_s", "s"), ("store.bytes_in", "bytes"),
    ("engine.s", "s"), ("engine.threaded_s", "s"),
    ("engine.batched_s", "s"), ("engine.golden_snapshots_s", "s"),
    ("engine.runs_executed", "count"), ("engine.runs_pruned", "count"),
    ("engine.worker_spawns", "count"), ("engine.recoveries", "count"),
    ("engine.bec_plan_s", "s"), ("engine.exhaustive_plan_s", "s"),
    ("batch.lanes_retired", "count"), ("batch.escapes", "count"),
    ("batch.scalar_direct", "count"), ("batch.escape_frac", "frac"),
    ("validate.s", "s"), ("validate.run_s", "s"),
    ("validate.runs", "count"), ("validate.instances_walked", "count"),
    ("validate.useful_frac", "frac"),
    ("unattributed_frac", "frac"), ("trace.overhead_frac", "frac"),
)


#: Work the wrappers count (what the metrics registry does not).
WRAPPER_COUNTS = ("harden.calls", "bec.calls", "golden.cycles",
                  "plan.instances_walked", "plan.runs_emitted",
                  "validate.instances_walked")


def _spanned(name, function, counts=None, counter=None):
    """*function* wrapped in a span called *name*, counting calls."""
    def wrapper(*args, **kwargs):
        if counter is not None:
            counts[counter] += 1
        with obs.tracer().span(name):
            return function(*args, **kwargs)
    return wrapper


def _counted_walk(iterate, counts, counter):
    """``iter_bit_instances`` that counts the instances it yields."""
    def walk(*args, **kwargs):
        walked = 0
        try:
            for instance in iterate(*args, **kwargs):
                walked += 1
                yield instance
        finally:
            counts[counter] += walked
    return walk


@contextlib.contextmanager
def install():
    """Wrap every layer's entry point for the duration of the block;
    yields the dict of :data:`WRAPPER_COUNTS` the wrappers fill."""
    counts = dict.fromkeys(WRAPPER_COUNTS, 0)
    plan_bec = repro.store.sweep.plan_bec

    def plan(function, trace, bec):
        with obs.tracer().span("plan"):
            result = plan_bec(function, trace, bec)
        counts["plan.runs_emitted"] += len(result)
        return result

    machine_run = Machine.run

    def run(machine, regs=None, injection=None, *args, **kwargs):
        # Injected runs are the validation loop's (the engine resumes
        # from snapshots through ``run_from`` instead); clean runs that
        # take no snapshots are golden runs.
        if injection is not None:
            with obs.tracer().span("machine.run"):
                return machine_run(machine, regs, injection, *args,
                                   **kwargs)
        if args or kwargs.get("snapshot_interval") is not None:
            return machine_run(machine, regs, injection, *args, **kwargs)
        with obs.tracer().span("golden"):
            trace = machine_run(machine, regs, injection, **kwargs)
        counts["golden.cycles"] += trace.cycles
        return trace

    writer = repro.store.db.ChunkWriter
    patches = [
        (repro.bench.programs, "compile_source",
         _spanned("minic.compile", repro.bench.programs.compile_source)),
        (repro.minic.compiler, "optimize_function",
         _spanned("opt", repro.minic.compiler.optimize_function)),
        (repro.harden, "harden",
         _spanned("harden", repro.harden.harden, counts, "harden.calls")),
        (repro.store.sweep, "run_bec",
         _spanned("bec", repro.store.sweep.run_bec, counts, "bec.calls")),
        (repro.bec.analysis, "compute_bit_values",
         _spanned("bitvalue", repro.bec.analysis.compute_bit_values)),
        (repro.bec.analysis, "coalesce",
         _spanned("bec.coalesce", repro.bec.analysis.coalesce)),
        (Machine, "run", run),
        (repro.store.sweep, "plan_bec", plan),
        (repro.fi.campaign, "iter_bit_instances",
         _counted_walk(repro.fi.campaign.iter_bit_instances, counts,
                       "plan.instances_walked")),
        (repro.fi.validate, "iter_bit_instances",
         _counted_walk(repro.fi.validate.iter_bit_instances, counts,
                       "validate.instances_walked")),
        (repro.store.runner, "campaign_key",
         _spanned("store.key", repro.store.runner.campaign_key)),
        (writer, "write_chunk",
         _spanned("store.write", writer.write_chunk)),
        (writer, "commit", _spanned("store.write", writer.commit)),
    ]
    with contextlib.ExitStack() as stack:
        for owner, attribute, replacement in patches:
            stack.enter_context(
                mock.patch.object(owner, attribute, replacement))
        yield counts


def _self_times(events):
    """``(event, self_us, ancestors)`` for every span of one lane, with
    nesting recovered from timestamp containment as
    :func:`repro.obs.summarize.self_times` does."""
    events = sorted(events, key=lambda event: (event["ts"], -event["dur"]))
    stack = []              # [(end, event, child_box)]
    boxes = []
    for event in events:
        while stack and stack[-1][0] <= event["ts"]:
            stack.pop()
        if stack:
            stack[-1][2][0] += event["dur"]
        ancestors = [entry[1] for entry in stack]
        box = [0.0]
        stack.append((event["ts"] + event["dur"], event, box))
        boxes.append((event, box, ancestors))
    return [(event, event["dur"] - box[0], ancestors)
            for event, box, ancestors in boxes]


def _nearest(ancestors, names):
    for event in reversed(ancestors):
        if event["name"] in names:
            return event
    return None


def layer_metrics(events, delta_totals, counts, outputs):
    """The per-layer metrics of one traced job.

    *events* are the job's Chrome trace events, *delta_totals* the flat
    registry delta over the job, *counts* what the wrappers counted,
    *outputs* the job's own report (for the counts the workload
    produces: runs used, validation runs).
    """
    values = dict.fromkeys((name for name, _ in METRICS), 0)
    root = next(event for event in events if event["name"] == JOB_SPAN)
    lane = [event for event in events
            if (event["pid"], event["tid"]) == (root["pid"], root["tid"])]
    unattributed = 0.0
    for event, self_us, ancestors in _self_times(lane):
        name = event["name"]
        seconds = self_us / 1e6
        campaign = event if name == "engine.campaign" \
            else _nearest(ancestors, ("engine.campaign",))
        if name in ORCHESTRATION:
            unattributed += seconds
        elif campaign is not None and not name.startswith("store."):
            # Engine work, including any scalar run it makes; the
            # store writes its sink makes belong to the store.
            values["engine.s"] += seconds
            values[f"engine.{campaign['args']['core']}_s"] += seconds
            if name == "engine.golden_snapshots":
                values["engine.golden_snapshots_s"] += seconds
            family = _nearest(ancestors,
                              ("campaign.bec", "campaign.exhaustive"))
            if family is not None:
                values["engine." + family["name"].split(".")[1]
                       + "_plan_s"] += seconds
        elif name in SPAN_METRICS:
            values[SPAN_METRICS[name]] += seconds
        else:
            unattributed += seconds
    wall = root["dur"] / 1e6
    values["unattributed_frac"] = unattributed / wall
    values.update(counts)
    for counter in COUNTERS:
        values[counter] = delta_totals.get(counter, 0)
    values["plan.runs_used"] = outputs.get("runs_used", 0)
    values["validate.runs"] = outputs.get("validate_runs", 0)
    values["validate.useful_frac"] = _ratio(
        outputs.get("validate_instances", 0),
        values["validate.instances_walked"])
    values["plan.useful_frac"] = _ratio(values["plan.runs_used"],
                                        values["plan.runs_emitted"])
    values["store.hit_frac"] = _ratio(
        values["store.hits"], values["store.hits"] + values["store.misses"])
    values["batch.escape_frac"] = _ratio(values["batch.escapes"],
                                         values["batch.lanes_retired"])
    return values


def _ratio(part, whole):
    return part / whole if whole else 0.0
