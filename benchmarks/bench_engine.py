"""Campaign-engine benchmark: serial vs checkpointed vs parallel.

Measures wall-clock for the same exhaustive-plan slice executed three
ways on the ``motivating``, ``CRC32`` and ``bitcount`` programs:

* ``reference``    — the reference interpreter (the test-local oracle
                     ``tests/fi/reference.py``, imported from this
                     checkout), serial, from cycle 0 (the pre-engine,
                     pre-threaded-core state);
* ``serial``       — ``CampaignEngine.run()`` on the threaded core
                     with one snapshot, at cycle 0, so every run
                     executes its whole trace (one process);
* ``checkpointed`` — snapshot/resume at the auto interval only (one
                     process);
* ``parallel``     — ``workers=4`` only (one snapshot, at cycle 0);
* ``combined``     — both knobs.

The gap between ``reference`` and ``combined`` is the compounded
campaign-level speedup: the threaded execution core multiplied by the
engine's checkpoint/worker wins.

The plan is a cycle-strided slice of the exhaustive register-file
sweep, so injection cycles span the whole trace and the average resumed
tail is about half the trace — the configuration where checkpointing's
O(runs × avg-tail) bound shows up directly.  Aggregate equality with
the serial baseline is asserted on every row.

Run it (prints a table, the speedup factors and where they were
measured — :func:`report.provenance`)::

    PYTHONPATH=src python benchmarks/bench_engine.py
"""

import json
import sys
import time
from pathlib import Path

from repro.bench.motivating import count_years
from repro.fi.campaign import plan_exhaustive
from repro.fi.engine import CampaignEngine, auto_checkpoint_interval
from repro.fi.machine import Machine
from report import provenance

# The oracle lives in the checkout's tests/ package, which is not
# installed: put the checkout root on the path to import it.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.fi.reference import ReferenceMachine  # noqa: E402


def reference_machine(machine):
    """A reference-interpreter twin of *machine*."""
    return ReferenceMachine(machine.function,
                            memory_size=machine.memory_size,
                            memory_image=machine.memory_image)

WORKERS = 4

#: (program, target plan size) — the slice is strided across the whole
#: trace so checkpointing sees the full spread of injection cycles.
PROGRAMS = ("motivating", "CRC32", "bitcount")
TARGET_RUNS = {"motivating": 944, "CRC32": 96, "bitcount": 128}


def prepare(name):
    """Machine, golden trace and a cycle-spanning exhaustive slice."""
    if name == "motivating":
        function = count_years()
        machine = Machine(function, memory_size=256)
        regs = None
    else:
        from repro.bench.programs import compile_benchmark, get_benchmark
        benchmark = get_benchmark(name)
        program = compile_benchmark(name)
        function = program.function
        machine = Machine(function, memory_image=program.memory_image)
        regs = program.initial_regs(*benchmark.args)
    golden = machine.run(regs=regs)
    full = plan_exhaustive(function, golden)
    plan = full[::max(1, len(full) // TARGET_RUNS[name])]
    return machine, regs, golden, plan


MODES = ("reference", "serial", "checkpointed", "parallel", "combined")


def execute(mode, machine, regs, golden, plan):
    if mode == "reference":
        machine = reference_machine(machine)
    engine = CampaignEngine(machine, plan, regs=regs, golden=golden)
    # An interval past the trace leaves the one cycle-0 snapshot: every
    # run then executes from cycle 0, as before the engine existed.
    whole_trace = golden.cycles + 1
    if mode in ("reference", "serial"):
        return engine.run(checkpoint_interval=whole_trace)
    if mode == "checkpointed":
        return engine.run(
            checkpoint_interval=auto_checkpoint_interval(golden))
    if mode == "parallel":
        return engine.run(workers=WORKERS, checkpoint_interval=whole_trace)
    return engine.run(workers=WORKERS,
                      checkpoint_interval=auto_checkpoint_interval(golden))


# -- standalone report --------------------------------------------------------


#: Programs with traces shorter than this are reported but not gated:
#: the engine's O(runs × avg-tail) claim is asymptotic, and per-run
#: fixed costs (trace allocation, classification, hashing) dominate a
#: 59-cycle program no matter how little of it is re-executed.
GATE_MIN_CYCLES = 1000


def main():
    print(f"{'program':<12} {'runs':>5} {'cycles':>7} "
          + "".join(f"{mode:>14}" for mode in MODES)
          + f"{'engine speedup':>15}{'compounded':>13}")
    gated = []
    for name in PROGRAMS:
        machine, regs, golden, plan = prepare(name)
        times = {}
        baseline = None
        for mode in MODES:
            start = time.perf_counter()
            result = execute(mode, machine, regs, golden, plan)
            times[mode] = time.perf_counter() - start
            if baseline is None:
                baseline = result
            else:
                assert result.effect_counts() == baseline.effect_counts()
                assert result.distinct_traces == baseline.distinct_traces
        speedup = times["serial"] / min(times[mode]
                                        for mode in MODES[2:])
        compound = times["reference"] / min(times[mode]
                                            for mode in MODES[2:])
        if golden.cycles >= GATE_MIN_CYCLES:
            gated.append((name, speedup))
        print(f"{name:<12} {len(plan):>5} {golden.cycles:>7} "
              + "".join(f"{times[mode]:>13.3f}s" for mode in MODES)
              + f"{speedup:>13.2f}x{compound:>13.2f}x")
    worst = min(speedup for _, speedup in gated)
    print(f"\nworst gated speedup (traces >= {GATE_MIN_CYCLES} cycles): "
          f"{worst:.2f}x (need >= 2.0x)")
    print(f"provenance: {json.dumps(provenance('full'), sort_keys=True)}")
    return 0 if worst >= 2.0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
