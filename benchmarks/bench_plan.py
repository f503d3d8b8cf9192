"""Planning benchmark: the bit-instance walk, Table III accounting and
the content key, per kernel.

For each kernel's whole golden trace this records the cycles, the
window bits the BEC walk visits (``instances``), the rows of the BEC
plan and of the whole-trace validation plan (killed windows included),
the templates the walk compiled (next to the static instruction
count), and the seconds spent on

* ``walk_s`` — ``plan_bec`` (the BEC plan's walk);
* ``validation_walk_s`` — ``validation_plan`` over the whole trace;
* ``accounting_s`` — ``fault_injection_accounting`` (Table III);
* ``key_s`` — ``campaign_key`` of the BEC plan.

Each time is the best of :data:`REPEATS` runs in full mode and of one
in smoke mode.  Nothing is gated on time; both modes check that the
plans agree with the accounting (one BEC row per emitted instance, one
validation row per instance with killed windows included).

Run standalone (writes ``BENCH_plan.json`` and prints a table)::

    PYTHONPATH=src python benchmarks/bench_plan.py
    PYTHONPATH=src python benchmarks/bench_plan.py --smoke  # CI mode

Like every ``BENCH_*.json``, the report carries a ``provenance`` block
(:func:`report.provenance`).
"""

import argparse
import json
import time

from repro import obs
from repro.bec.analysis import run_bec
from repro.bench.programs import (BENCHMARK_ORDER, compile_benchmark,
                                  get_benchmark)
from repro.fi.accounting import BitWalk, fault_injection_accounting
from repro.fi.campaign import plan_bec
from repro.fi.machine import Machine
from repro.fi.validate import validation_plan
from repro.store.keys import campaign_key
from report import provenance

SMOKE_PROGRAMS = ("RSA", "adpcm_dec")

#: Timed repeats per measurement (full mode); the best one is kept.
REPEATS = 3


def best(repeats, action):
    """``(result, seconds)`` of the fastest of *repeats* calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = action()
        times.append(time.perf_counter() - start)
    return result, min(times)


def walked(action):
    """``(result, window bits walked)`` of one call of *action*."""
    counter = obs.metrics().counter("walk.instances")
    before = counter.value
    result = action()
    return result, counter.value - before


def bench_kernel(name, repeats):
    program = compile_benchmark(name)
    function = program.function
    regs = program.initial_regs(*get_benchmark(name).args)
    golden = Machine(function,
                     memory_image=program.memory_image).run(regs=regs)
    bec = run_bec(function)

    plan, walk_s = best(repeats, lambda: plan_bec(function, golden, bec))
    validation, validation_walk_s = best(
        repeats, lambda: validation_plan(function, golden, bec))
    accounting, accounting_s = best(
        repeats, lambda: fault_injection_accounting(function, golden, bec))
    key, key_s = best(repeats, lambda: campaign_key(function, plan))
    walk = BitWalk(function, bec, emitted_only=True)
    _, instances = walked(
        lambda: sum(1 for _ in walk.steps(golden.executed)))

    if accounting["live_in_bits"] != len(plan):
        raise SystemExit(f"{name}: {len(plan)} BEC rows but "
                         f"{accounting['live_in_bits']} emitted instances")
    if len(validation) < instances:
        raise SystemExit(f"{name}: {len(validation)} validation rows for "
                         f"{instances} walked instances")
    return {
        "program": name,
        "cycles": len(golden.executed),
        "instructions": len(function.instructions),
        "templates": len(walk.templates),
        "instances": instances,
        "bec_rows": len(plan),
        "validation_rows": len(validation),
        "key": key,
        "walk_s": walk_s,
        "validation_walk_s": validation_walk_s,
        "accounting_s": accounting_s,
        "key_s": key_s,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="two small kernels, one repeat (CI mode)")
    parser.add_argument("--output", default="BENCH_plan.json",
                        help="where to write the JSON report")
    options = parser.parse_args(argv)
    mode = "smoke" if options.smoke else "full"
    programs = SMOKE_PROGRAMS if options.smoke else BENCHMARK_ORDER
    repeats = 1 if options.smoke else REPEATS

    rows = [bench_kernel(name, repeats) for name in programs]
    header = (f"{'kernel':<10} {'cycles':>7} {'templ':>6} {'instances':>10} "
              f"{'bec':>8} {'valid':>8} {'walk':>7} {'v.walk':>7} "
              f"{'acct':>7} {'key':>7}")
    print(header)
    for row in rows:
        print(f"{row['program']:<10} {row['cycles']:>7} "
              f"{row['templates']:>6} {row['instances']:>10} "
              f"{row['bec_rows']:>8} {row['validation_rows']:>8} "
              f"{row['walk_s']:>7.3f} {row['validation_walk_s']:>7.3f} "
              f"{row['accounting_s']:>7.3f} {row['key_s']:>7.3f}")
    total = {field: sum(row[field] for row in rows)
             for field in ("cycles", "instances", "bec_rows",
                           "validation_rows", "walk_s", "validation_walk_s",
                           "accounting_s", "key_s")}
    report = {"mode": mode, "repeats": repeats, "programs": rows,
              "total": total, "provenance": provenance(mode)}
    with open(options.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {options.output}")


if __name__ == "__main__":
    main()
