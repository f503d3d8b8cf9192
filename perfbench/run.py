"""The repository benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 1 --trace 0

Each workload is a closed loop with one caller: the harness runs one
job in a freshly forked process, waits for it, checks its outputs, and
starts the next, until ``--seconds`` have passed (at least one job).
A fresh process per job gives every job the start a user's ``repro``
process has: empty in-process caches and a peak resident set of its
own.

``--trace 0`` prints the end-to-end metrics (``wall_s``, ``cpu_s``,
``peak_rss_mb``: medians over the jobs; ``setup_s``: the workload's
set-up).  ``--trace 1`` runs the same untraced loop and then one more
job with the layer wrappers of ``layers.py`` installed and the
``repro.obs`` tracer on; it writes that job's spans as a Chrome trace
under ``.perfbench/`` (readable by ``repro obs summarize``) and prints
the per-layer metrics.  The last line of output is always one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

try:
    import repro
    from repro import obs
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the repro package from {SRC}: "
             f"{exc}")
if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: repro was imported from {repro.__file__}, "
             f"not from {SRC}")

import layers                                   # noqa: E402
from workloads import ROOT, WORK, WORKLOADS, clear_program_cache  # noqa: E402

#: Tracer ring size: the validation job records one span per run.
TRACE_CAPACITY = 1 << 18

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))


def isolated(function):
    """Run *function* in a forked child and return its JSON-able
    result; a failure in the child is raised here with its traceback."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        status = 0
        try:
            payload = {"value": function()}
        except BaseException:
            payload = {"error": traceback.format_exc()}
            status = 1
        try:
            with os.fdopen(write_end, "w", encoding="utf-8") as pipe:
                json.dump(payload, pipe)
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, encoding="utf-8") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    payload = json.loads(data) if data else {
        "error": f"job process ended without a result (status {status})"}
    if "error" in payload:
        raise RuntimeError(payload["error"])
    return payload["value"]


def _reset_peak_rss():
    """Restart the kernel's peak-RSS mark at the current RSS (Linux)."""
    with contextlib.suppress(OSError):
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")


def _peak_rss_kb():
    with contextlib.suppress(OSError):
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _cpu_s():
    """User+system CPU of this process and its reaped children."""
    return sum(usage.ru_utime + usage.ru_stime for usage in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def measured(workload, trace_path=None):
    """The body of one job process: run the job, return its timings,
    outputs and (with *trace_path*) per-layer metrics."""
    def body():
        clear_program_cache()
        _reset_peak_rss()
        registry = obs.metrics()
        mark = registry.mark()
        with contextlib.ExitStack() as stack:
            if trace_path is not None:
                counts = stack.enter_context(layers.install())
                obs.tracer().start(capacity=TRACE_CAPACITY)
            cpu = _cpu_s()
            start = time.perf_counter()
            with obs.tracer().span(layers.JOB_SPAN, workload=workload.name):
                outputs = workload.job()
            wall = time.perf_counter() - start
            cpu = _cpu_s() - cpu
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result = {
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": max(_peak_rss_kb(), children) / 1024,
            "outputs": outputs,
        }
        if trace_path is not None:
            tracer = obs.tracer()
            tracer.stop()
            tracer.export_chrome(trace_path)
            events = obs.to_chrome(tracer.records())["traceEvents"]
            result["layers"] = layers.layer_metrics(
                events, registry.totals(registry.delta_since(mark)),
                counts, outputs)
        return result
    return body


def provenance(args):
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                capture_output=True, text=True).stdout.strip()
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy_version, "cpu_count": os.cpu_count(),
            "mode": "traced" if args.trace else "untraced",
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print("provenance", json.dumps(provenance(args), sort_keys=True))
    workload = WORKLOADS[args.workload]()
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        return _run(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, workload, work):
    setup_s = workload.setup(args.seed, work, isolated)
    attempted = failed = 0
    jobs = []
    start = time.perf_counter()
    while not jobs or time.perf_counter() - start < args.seconds:
        attempted += workload.attempts
        try:
            job = isolated(measured(workload))
        except RuntimeError as exc:
            print(f"job failed:\n{exc}", file=sys.stderr)
            failed += workload.attempts
            break
        bad = workload.check(job["outputs"])
        failed += len(bad)
        if bad:
            print(f"wrong outputs: {bad}", file=sys.stderr)
        jobs.append(job)
        print(f"job {len(jobs)}: wall {job['wall_s']:.3f} s, cpu "
              f"{job['cpu_s']:.3f} s, peak rss {job['peak_rss_mb']:.1f} MB")
    if not jobs:
        return 1

    metrics = {}
    if args.trace:
        trace_path = os.path.join(WORK, f"trace-{args.workload}.json")
        attempted += workload.attempts
        traced = isolated(measured(workload, trace_path))
        bad = workload.check(traced["outputs"])
        if traced["outputs"] != jobs[0]["outputs"]:
            print("traced outputs differ from untraced outputs",
                  file=sys.stderr)
            failed += workload.attempts
        else:
            failed += len(bad)
        values = traced["layers"]
        values["trace.overhead_frac"] = traced["wall_s"] / statistics.median(
            job["wall_s"] for job in jobs) - 1
        for name, unit in layers.METRICS:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name} {values[name]:.6g} {unit}")
        print(f"trace written to {os.path.relpath(trace_path, ROOT)} "
              f"(repro obs summarize renders it)")
    else:
        values = {name: statistics.median(job[name] for job in jobs)
                  for name, _ in END_TO_END if name != "setup_s"}
        values["setup_s"] = setup_s
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name} {values[name]:.4f} {unit}"
                  + ("" if name == "setup_s"
                     else f" (median of {len(jobs)} jobs)"))
    print(f"failed_frac {failed / attempted:.4f} frac "
          f"({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
