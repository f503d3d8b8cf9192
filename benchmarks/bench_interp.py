"""Interpreter-core benchmark: threaded code vs the reference interpreter.

Measures single-run wall-clock for both execution cores on the paper's
evaluation kernels, plus the *compounded* campaign-level speedup of the
threaded core on top of the engine knobs (checkpointing + workers) from
the campaign engine.  Emits a machine-readable ``BENCH_interp.json`` so
CI can track the perf trajectory:

* ``programs``   — per-benchmark cycles, seconds and instructions/sec
                   for each core, and the per-program speedup;
* ``geomean_speedup`` — the gate: the threaded core must keep a >= 3x
                   geometric-mean single-run speedup (full mode only);
* ``campaign``   — wall-clock for the same campaign plan executed the
                   pre-engine way (reference core, serial, no
                   checkpoints) vs the full stack (threaded core,
                   workers + checkpoints), with identical aggregates
                   asserted;
* ``resume_parity`` — injected runs resumed from golden snapshots
                   (``run_from`` with reconvergence) on the warmed
                   threaded core, asserted trace-identical to the
                   reference core's full runs;
* ``provenance`` — where the numbers come from: git SHA, Python and
                   NumPy versions, CPU count and mode.

Run standalone (writes ``BENCH_interp.json`` next to this file's
working directory and prints a table)::

    PYTHONPATH=src python benchmarks/bench_interp.py
    PYTHONPATH=src python benchmarks/bench_interp.py --smoke  # CI mode

Smoke mode shrinks repetitions and the campaign plan so the whole
script finishes in seconds; it still asserts trace parity but does not
gate on the speedup (shared CI runners are too noisy for that).
"""

import argparse
import json
import math
import time

from repro.bench.programs import compile_benchmark, get_benchmark
from repro.fi.engine import (CampaignEngine, auto_checkpoint_interval,
                             pick_snapshot)
from repro.fi.machine import Injection, Machine
from bench_campaign import sliced_exhaustive
from report import provenance

#: The single-run subjects (paper §VI kernels, presentation order).
PROGRAMS = ("bitcount", "dijkstra", "CRC32", "AES", "RSA", "SHA")

#: Campaign subject and target plan size (cycle-strided exhaustive
#: slice, so injection cycles span the whole trace).
CAMPAIGN_PROGRAM = "CRC32"
CAMPAIGN_RUNS = {"full": 96, "smoke": 16}

#: Minimum measured time per core (seconds); repetitions adapt to it.
MIN_MEASURE = {"full": 0.5, "smoke": 0.05}

GATE_GEOMEAN = 3.0

#: Injected runs per program in the resume-parity check.
PARITY_RUNS = 6


def prepare(name):
    benchmark = get_benchmark(name)
    program = compile_benchmark(name)
    regs = program.initial_regs(*benchmark.args)
    machines = {
        "reference": Machine(program.function, core="reference",
                             memory_image=program.memory_image),
        "threaded": Machine(program.function,
                            memory_image=program.memory_image),
    }
    return machines, regs


def measure(machine, regs, min_seconds):
    """Best-of-repetitions single-run wall clock (adaptive count)."""
    trace = machine.run(regs=regs)          # warm-up + result
    start = time.perf_counter()
    machine.run(regs=regs)
    once = time.perf_counter() - start
    reps = max(1, int(min_seconds / max(once, 1e-9)))
    best = once
    for _ in range(reps):
        start = time.perf_counter()
        machine.run(regs=regs)
        best = min(best, time.perf_counter() - start)
    return trace, best


def check_resume_parity(machines, regs, golden):
    """Injected ``run_from`` runs (resumed from golden snapshots, with
    reconvergence) on the threaded core must match the reference
    core's full runs; returns how many were checked."""
    threaded, reference = machines["threaded"], machines["reference"]
    _, snapshots = threaded.run_with_snapshots(
        regs=regs, interval=auto_checkpoint_interval(golden))
    max_cycles = 4 * golden.cycles + 256
    registers = threaded.function.registers()
    width = threaded.function.bit_width
    for index in range(PARITY_RUNS):
        cycle = (2 * index + 1) * golden.cycles // (2 * PARITY_RUNS)
        injection = Injection(cycle, registers[index % len(registers)],
                              (7 * index) % width)
        resumed = threaded.run_from(pick_snapshot(snapshots, cycle),
                                    injection=injection,
                                    max_cycles=max_cycles,
                                    converge=snapshots)
        full = reference.run(regs=regs, injection=injection,
                             max_cycles=max_cycles)
        assert resumed.key() == full.key(), (injection, "trace")
        assert resumed.cycles == full.cycles, (injection, "cycles")
        assert resumed.loads == full.loads, (injection, "loads")
        assert resumed.signature() == full.signature(), injection
    return PARITY_RUNS


def bench_single_runs(mode):
    rows = []
    parity = 0
    for name in PROGRAMS:
        machines, regs = prepare(name)
        reference_trace, reference_s = measure(machines["reference"], regs,
                                               MIN_MEASURE[mode])
        threaded_trace, threaded_s = measure(machines["threaded"], regs,
                                             MIN_MEASURE[mode])
        assert threaded_trace.key() == reference_trace.key(), name
        assert threaded_trace.cycles == reference_trace.cycles, name
        parity += check_resume_parity(machines, regs, threaded_trace)
        cycles = threaded_trace.cycles
        rows.append({
            "program": name,
            "cycles": cycles,
            "reference_s": reference_s,
            "threaded_s": threaded_s,
            "reference_ips": cycles / reference_s,
            "threaded_ips": cycles / threaded_s,
            "speedup": reference_s / threaded_s,
        })
    return rows, parity


def bench_campaign(mode):
    """Pre-engine baseline vs the full stack, identical aggregates."""
    machines, regs = prepare(CAMPAIGN_PROGRAM)
    reference = machines["reference"]
    fast = machines["threaded"]
    golden = fast.run(regs=regs)
    plan = sliced_exhaustive(fast.function, golden, CAMPAIGN_RUNS[mode])
    interval = auto_checkpoint_interval(golden)

    start = time.perf_counter()
    base = CampaignEngine(reference, plan, regs=regs,
                          golden=golden).run()
    baseline_s = time.perf_counter() - start

    engine = CampaignEngine(fast, plan, regs=regs, golden=golden)
    start = time.perf_counter()
    stacked = engine.run(workers=4, checkpoint_interval=interval)
    stacked_s = time.perf_counter() - start

    assert stacked.effect_counts() == base.effect_counts()
    assert stacked.distinct_traces == base.distinct_traces
    return {
        "program": CAMPAIGN_PROGRAM,
        "runs": len(plan),
        "trace_cycles": golden.cycles,
        "reference_serial_s": baseline_s,
        "threaded_engine_s": stacked_s,
        "compound_speedup": baseline_s / stacked_s,
        "effects": base.effect_counts(),
    }


def geomean(values):
    return math.exp(sum(math.log(value) for value in values) / len(values))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: short measurements, no speedup gate")
    parser.add_argument("--output", default="BENCH_interp.json",
                        help="path of the JSON report")
    options = parser.parse_args(argv)
    mode = "smoke" if options.smoke else "full"
    output = options.output

    rows, parity = bench_single_runs(mode)
    campaign = bench_campaign(mode)
    gate = geomean([row["speedup"] for row in rows])

    print(f"{'program':<10} {'cycles':>7} {'reference':>11} "
          f"{'threaded':>11} {'Minstr/s':>9} {'speedup':>8}")
    for row in rows:
        print(f"{row['program']:<10} {row['cycles']:>7} "
              f"{row['reference_s'] * 1e3:>9.2f}ms "
              f"{row['threaded_s'] * 1e3:>9.2f}ms "
              f"{row['threaded_ips'] / 1e6:>9.2f} "
              f"{row['speedup']:>7.2f}x")
    print(f"\ngeomean single-run speedup: {gate:.2f}x "
          f"(gate: >= {GATE_GEOMEAN:.1f}x, {mode} mode)")
    print(f"campaign ({campaign['program']}, {campaign['runs']} runs): "
          f"reference-serial {campaign['reference_serial_s']:.3f}s vs "
          f"threaded+engine {campaign['threaded_engine_s']:.3f}s — "
          f"{campaign['compound_speedup']:.2f}x compounded")
    print(f"resume parity: {parity} injected run_from runs identical to "
          f"the reference core")

    report = {
        "mode": mode,
        "geomean_speedup": gate,
        "gate_geomean": GATE_GEOMEAN,
        "programs": rows,
        "campaign": campaign,
        "resume_parity": parity,
        "provenance": provenance(mode),
    }
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output}")
    if mode == "full" and gate < GATE_GEOMEAN:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
