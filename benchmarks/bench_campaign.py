"""Campaign-core benchmark: the lockstep-vectorized engine vs its
predecessors, across the six evaluation kernels and two plan families.

Four engine generations are timed on identical plans, with identical
aggregates asserted on every run.  The last three run in
:data:`REPEATS` interleaved repeats; their columns are medians and the
speedup is the median of the per-repeat ratios:

* ``serial``        — ``CampaignEngine.run()`` on the threaded core
                      with one snapshot, at cycle 0, so every run
                      executes from cycle 0;
* ``engine``        — threaded core + checkpoint/resume + golden
                      reconvergence splicing, serial (the PR 1+2
                      engine — the comparison baseline);
* ``batched``       — the lockstep-vectorized core
                      (:mod:`repro.fi.batch`): NumPy lanes along the
                      golden path, scalar escapes, vectorized
                      reconvergence;
* ``batched+prune`` — plus the liveness pre-classification fast path
                      (``prune="liveness"``).

Two plan families per kernel:

* ``exhaustive`` — a cycle-strided slice of the full register-file
  sweep (the paper's Table I workload).  Masked faults dominate, so
  almost every lane retires on the vector path: **this family carries
  the >= 4x geomean gate** (>= 2x in ``--smoke`` CI mode).
* ``bec`` — the BEC-pruned plan (Table III workload), reported but
  *not* gated.  BEC planning already removed the coalescable masked
  sites, so this family is dominated by genuinely divergent runs that
  must execute their own (non-golden) paths on the scalar core —
  Amdahl caps the lockstep win at the masked/on-path fraction
  (measured ~1-2x on one core).  The honest conclusion: SIMD-across-
  faults accelerates the *raw sweep* workloads, and composes with —
  rather than replaces — the analytical pruning of the paper.

Run standalone (writes ``BENCH_campaign.json`` and prints a table)::

    PYTHONPATH=src python benchmarks/bench_campaign.py
    PYTHONPATH=src python benchmarks/bench_campaign.py --smoke  # CI mode

``benchmarks/report.py`` prints the cross-PR perf trajectory from all
checked-in ``BENCH_*.json`` reports, each with the ``provenance`` block
(:func:`report.provenance`) its script wrote.
"""

import argparse
import json
import math
import statistics
import time
import tracemalloc

from repro import obs
from repro.bec.analysis import run_bec
from repro.bench.programs import compile_benchmark, get_benchmark
from repro.fi.campaign import plan_bec, plan_exhaustive
from repro.fi.engine import CampaignEngine, auto_checkpoint_interval
from repro.fi.machine import Machine
from repro.fi.sink import CollectSink
from report import provenance

#: The evaluation kernels (paper §VI, presentation order).
PROGRAMS = ("bitcount", "dijkstra", "CRC32", "AES", "RSA", "SHA")

#: Kernels the CI smoke gate runs on (fast, stable speedups).
SMOKE_PROGRAMS = ("bitcount", "CRC32", "SHA")

#: Target plan sizes per (family, mode).  Slices are cycle-strided so
#: injections span the whole trace.  RSA's trace is tiny (693 cycles),
#: so it gets a larger slice for stable timings.
TARGET_RUNS = {
    ("exhaustive", "full"): 3000,
    ("exhaustive", "smoke"): 500,
    ("bec", "full"): 1500,
    ("bec", "smoke"): 250,
}
RSA_SCALE = 3

#: Geomean gate on `engine / best batched` over the exhaustive family.
GATE = {"full": 4.0, "smoke": 2.0}

#: Chunk size of the separately traced streaming run whose tracemalloc
#: peak lands in the report's ``peak_mem_bytes`` column.
PEAK_CHUNK_SIZE = 256

#: Interleaved repeats of the engine, batched and batched+prune sides
#: of a row.  The order alternates from repeat to repeat so drift
#: cancels, and the speedup is the median of the per-repeat ratios: one
#: slow side spoils one repeat, not the gate.
REPEATS = 5


def prepare(name):
    benchmark = get_benchmark(name)
    program = compile_benchmark(name)
    regs = program.initial_regs(*benchmark.args)
    threaded = Machine(program.function,
                       memory_image=program.memory_image)
    batched = Machine(program.function,
                      memory_image=program.memory_image, core="batched")
    golden = threaded.run(regs=regs)
    return program.function, threaded, batched, regs, golden


def sliced(plan, target):
    stride = max(1, len(plan) // target)
    return plan[::stride]


def timed(thunk):
    start = time.perf_counter()
    result = thunk()
    return result, time.perf_counter() - start


def traced_peak(thunk):
    """tracemalloc peak of one run.  Tracing costs ~2x wall time, so
    this never wraps a timed run — memory gets its own execution."""
    tracemalloc.start()
    thunk()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def bench_row(name, family, mode):
    function, threaded, batched, regs, golden = prepare(name)
    target = TARGET_RUNS[(family, mode)]
    if name == "RSA":
        target *= RSA_SCALE
    if family == "exhaustive":
        full_plan = plan_exhaustive(function, golden)
    else:
        full_plan = plan_bec(function, golden, run_bec(function))
    plan = sliced(full_plan, target)
    interval = auto_checkpoint_interval(golden)

    # Every timed run collects its records (the same small cost in
    # each), so the parity check compares whole record streams.
    serial_sink = CollectSink()
    engine = CampaignEngine(threaded, plan, regs=regs, golden=golden)
    base, serial_s = timed(lambda: engine.run(
        checkpoint_interval=golden.cycles + 1, sink=serial_sink))
    vector = CampaignEngine(batched, plan, regs=regs, golden=golden)
    sides = {
        "engine": lambda sink: engine.run(
            checkpoint_interval=interval, sink=sink),
        "batched": lambda sink: vector.run(
            checkpoint_interval=interval, sink=sink),
        "batched_prune": lambda sink: vector.run(
            checkpoint_interval=interval, prune="liveness", sink=sink),
    }
    seconds = {side: [] for side in sides}
    last = {}
    for repeat in range(REPEATS):
        order = list(sides) if repeat % 2 == 0 else list(sides)[::-1]
        for side in order:
            sink = CollectSink()
            other, side_s = timed(lambda: sides[side](sink))
            seconds[side].append(side_s)
            last[side] = other
            assert other.effect_counts() == base.effect_counts(), name
            assert other.distinct_traces == base.distinct_traces, name
            assert other.archived_bytes == base.archived_bytes, name
            assert sink.records == serial_sink.records, name
    ratios = [engine_s / min(batched_s, prune_s)
              for engine_s, batched_s, prune_s in zip(
                  seconds["engine"], seconds["batched"],
                  seconds["batched_prune"])]
    engine_s = statistics.median(seconds["engine"])

    peak = traced_peak(lambda: vector.run(
        checkpoint_interval=interval, chunk_size=PEAK_CHUNK_SIZE))

    return {
        "program": name,
        "family": family,
        "plan_runs": len(plan),
        "full_plan_runs": len(full_plan),
        "trace_cycles": golden.cycles,
        "checkpoint_interval": interval,
        "repeats": REPEATS,
        "serial_s": serial_s,
        "engine_s": engine_s,
        "batched_s": statistics.median(seconds["batched"]),
        "batched_prune_s": statistics.median(seconds["batched_prune"]),
        "pruned_runs": last["batched_prune"].pruned_runs,
        "speedup_engine_vs_serial": serial_s / engine_s,
        "speedup_batched_vs_engine": statistics.median(ratios),
        "peak_chunk_size": PEAK_CHUNK_SIZE,
        "peak_mem_bytes": peak,
        "effects": base.effect_counts(),
    }


#: Ceiling on the tracer's measured overhead (percent): spans are
#: chunk-granularity, so enabling tracing must stay in the noise, and
#: the disabled path (the shared no-op span) is cheaper still.
OBS_OVERHEAD_GATE_PCT = 2.0

#: CPU seconds each side of one overhead pair runs for.  A 0.1 s
#: campaign timed by wall clock (min of 5) swung by far more than the
#: gate on a shared 2-CPU box: -0.1 %, +21 % and +23 % for one commit.
OBS_OVERHEAD_SIDE_S = 1.0

#: Untraced runs whose median CPU time sizes the plan to
#: :data:`OBS_OVERHEAD_SIDE_S`: one run alone missed the target by up
#: to 2x on that box.
OBS_OVERHEAD_CALIBRATION_RUNS = 3

#: Interleaved tracer-off/tracer-on pairs, read in blocks of
#: :data:`OBS_OVERHEAD_BLOCK` consecutive pairs.
OBS_OVERHEAD_PAIRS = 30
OBS_OVERHEAD_BLOCK = 3


def cpu_timed(thunk):
    start = time.process_time()
    thunk()
    return time.process_time() - start


def obs_overhead_smoke(name="bitcount"):
    """Tracer-enabled vs tracer-disabled CPU time of one exhaustive
    campaign sized to about :data:`OBS_OVERHEAD_SIDE_S` per side.
    The two sides run in interleaved pairs, the order alternating from
    pair to pair so drift cancels.  Each block of
    :data:`OBS_OVERHEAD_BLOCK` consecutive pairs contributes the ratio
    of its two sides' minimum CPU times, and the gate reads the median
    of those block ratios.

    A busy neighbour only adds time to a run, so a minimum is the
    statistic such noise cannot push up.  On a shared 2-CPU box the
    same campaign's CPU time also moves in spells of fast and slow
    runs, so the minima are taken per block, over runs close in time:
    the ratio of the two sides' minima over a whole 9-pair measurement
    read -18 % to +32 % on one commit, as one side caught a fast spell
    the other missed.  The median over blocks keeps one such block from
    deciding the gate.  The median of per-pair ratios, the statistic
    the gate read before, is recorded next to it."""
    function, threaded, _, regs, golden = prepare(name)
    full_plan = plan_exhaustive(function, golden)
    interval = auto_checkpoint_interval(golden)
    tracer = obs.tracer()

    def untraced(engine):
        return cpu_timed(lambda: engine.run(checkpoint_interval=interval))

    def traced(engine):
        tracer.start()
        try:
            return untraced(engine)
        finally:
            tracer.stop()

    # Denser slices cost less per run (more runs reconverge), so the
    # plan is sized in a few rounds.
    plan = sliced(full_plan, TARGET_RUNS[("exhaustive", "smoke")])
    while True:
        engine = CampaignEngine(threaded, plan, regs=regs, golden=golden)
        engine.run(checkpoint_interval=interval)    # warm-up
        side_s = statistics.median(
            untraced(engine) for _ in range(OBS_OVERHEAD_CALIBRATION_RUNS))
        if side_s >= 0.8 * OBS_OVERHEAD_SIDE_S \
                or len(plan) == len(full_plan):
            break
        plan = sliced(full_plan, int(
            len(plan) * OBS_OVERHEAD_SIDE_S / max(side_s, 1e-3)))
    disabled_s = []
    enabled_s = []
    for pair in range(OBS_OVERHEAD_PAIRS):
        if pair % 2:
            enabled_s.append(traced(engine))
            disabled_s.append(untraced(engine))
        else:
            disabled_s.append(untraced(engine))
            enabled_s.append(traced(engine))
    blocks = range(0, OBS_OVERHEAD_PAIRS, OBS_OVERHEAD_BLOCK)
    ratio = statistics.median(
        min(enabled_s[low:low + OBS_OVERHEAD_BLOCK])
        / min(disabled_s[low:low + OBS_OVERHEAD_BLOCK]) for low in blocks)
    overhead_pct = (ratio - 1.0) * 100.0
    pair_ratio = statistics.median(
        on / off for on, off in zip(enabled_s, disabled_s))
    return {
        "program": name,
        "plan_runs": len(plan),
        "pairs": OBS_OVERHEAD_PAIRS,
        "block_pairs": OBS_OVERHEAD_BLOCK,
        "disabled_s": statistics.median(disabled_s),
        "enabled_s": statistics.median(enabled_s),
        "overhead_pct": overhead_pct,
        "median_pair_overhead_pct": (pair_ratio - 1.0) * 100.0,
        "gate_pct": OBS_OVERHEAD_GATE_PCT,
        "passed": overhead_pct < OBS_OVERHEAD_GATE_PCT,
    }


def geomean(values):
    return math.exp(sum(math.log(value) for value in values)
                    / len(values))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: smoke kernels, small plans, "
                             ">= 2x gate")
    parser.add_argument("--output", default="BENCH_campaign.json",
                        help="path of the JSON report")
    options = parser.parse_args(argv)
    mode = "smoke" if options.smoke else "full"
    programs = SMOKE_PROGRAMS if options.smoke else PROGRAMS

    rows = []
    print(f"{'program':<10} {'family':<11} {'runs':>6} {'cycles':>7} "
          f"{'serial':>9} {'engine':>9} {'batched':>9} {'+prune':>9} "
          f"{'vs engine':>10} {'peak':>9}")
    for family in ("exhaustive", "bec"):
        for name in programs:
            row = bench_row(name, family, mode)
            rows.append(row)
            print(f"{row['program']:<10} {row['family']:<11} "
                  f"{row['plan_runs']:>6} {row['trace_cycles']:>7} "
                  f"{row['serial_s']:>8.2f}s {row['engine_s']:>8.2f}s "
                  f"{row['batched_s']:>8.2f}s "
                  f"{row['batched_prune_s']:>8.2f}s "
                  f"{row['speedup_batched_vs_engine']:>9.2f}x "
                  f"{row['peak_mem_bytes'] / 1024:>7.0f}KB")

    by_family = {}
    for family in ("exhaustive", "bec"):
        by_family[family] = geomean(
            [row["speedup_batched_vs_engine"] for row in rows
             if row["family"] == family])
    gate = GATE[mode]
    gated = by_family["exhaustive"]
    print(f"\ngeomean batched-vs-engine: "
          f"exhaustive {by_family['exhaustive']:.2f}x (gate >= "
          f"{gate:.1f}x, {mode} mode), bec {by_family['bec']:.2f}x "
          f"(reported only: the BEC plan is the non-masked residue, "
          f"so divergent scalar escapes dominate)")

    overhead = obs_overhead_smoke()
    print(f"obs overhead ({overhead['program']}, "
          f"{overhead['plan_runs']} runs, {overhead['pairs']} CPU-time "
          f"pairs, median of per-{overhead['block_pairs']}-pair minima "
          f"ratios): tracer enabled {overhead['enabled_s']:.3f}s vs "
          f"disabled {overhead['disabled_s']:.3f}s -> "
          f"{overhead['overhead_pct']:+.2f}% (gate < "
          f"{overhead['gate_pct']:.0f}%) "
          f"{'PASS' if overhead['passed'] else 'FAIL'}; median pair "
          f"{overhead['median_pair_overhead_pct']:+.2f}%")

    report = {
        "mode": mode,
        "gate": {"family": "exhaustive", "threshold": gate,
                 "geomean": gated, "passed": gated >= gate},
        "geomean_batched_vs_engine": by_family,
        "obs_overhead": overhead,
        "rows": rows,
        "provenance": provenance(mode),
    }
    with open(options.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {options.output}")
    return 0 if gated >= gate and overhead["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
