"""Hardening benchmark: BEC-guided selective redundancy vs full duplication.

For each of the six evaluation kernels, one deterministic fault plan (a
cycle-spanning stride of the inject-on-read population of the original
binary) is replayed fault-for-fault against the unprotected baseline,
full SWIFT-style duplication, and BEC-guided selective hardening at a
ladder of overhead budgets.  Emits a machine-readable
``BENCH_harden.json`` so CI can track the protection trajectory.

Gates (full mode only — shared CI runners only run the smoke checks):

* **budget honored** — every ``bec`` variant's measured dynamic
  overhead stays within its budget (+2 % slack for the integer
  granularity of instruction counts);
* **full converts** — full duplication converts >= 95 % of the
  baseline's SDCs into detected-fault traps, aggregated over the six
  kernels;
* **selection quality** — ``bec`` at the default 0.30 budget converts
  >= 35 % of what full duplication converts (well above the ~33 %
  proportional line a random selection would approach, at a third of
  full's overhead);
* **coverage frontier** — picking, per kernel, the smallest ladder
  budget whose coverage reaches >= 90 % of full duplication's
  conversions (the last ladder step when none does), the six-kernel
  aggregate converts >= 90 % of what full does while spending <= 90 %
  of full duplication's extra dynamic instructions.  This is the
  "90 % of full's SDC reduction at materially lower overhead" claim,
  with the per-kernel frontier recorded in the report: the
  control/memory-bound kernels reach it at budgets 0.60-0.85, the
  diffusion-heavy crypto kernels need near-full duplication.

Run standalone (writes ``BENCH_harden.json`` and prints a table)::

    PYTHONPATH=src python benchmarks/bench_harden.py
    PYTHONPATH=src python benchmarks/bench_harden.py --smoke  # CI mode

Smoke mode shrinks the kernel set and the fault plan so the script
finishes in seconds; it still asserts the budget gate and that campaign
aggregates are bit-identical between serial and ``workers=4`` execution
(the engine-parity contract on hardened binaries), but does not gate
coverage (tiny plans are too coarse).  Like every ``BENCH_*.json``,
the report carries a ``provenance`` block (:func:`report.provenance`).
"""

import argparse
import json
import time

from repro.experiments.common import benchmark_run
from repro.fi.engine import auto_checkpoint_interval
from repro.harden.evaluate import (ladder_comparison, run_variant,
                                   strided_plan)
from report import provenance

PROGRAMS = ("bitcount", "dijkstra", "CRC32", "AES", "RSA", "SHA")
SMOKE_PROGRAMS = ("bitcount", "RSA")

BUDGET_LADDER = {"full": (0.3, 0.6, 0.85), "smoke": (0.3, 0.85)}
TARGET_RUNS = {"full": 160, "smoke": 48}

#: Gate thresholds (full mode).
GATE_BUDGET_SLACK = 0.02
GATE_FULL_CONVERSION = 0.95
GATE_DEFAULT_BUDGET_RATIO = 0.35
GATE_FRONTIER_COVERAGE = 0.90
GATE_FRONTIER_OVERHEAD = 0.90


def bench_kernel(name, mode, workers):
    run = benchmark_run(name)
    row = ladder_comparison(
        run.function, run.golden, regs=run.regs,
        memory_image=run.program.memory_image, bec=run.bec,
        budgets=BUDGET_LADDER[mode], target_runs=TARGET_RUNS[mode],
        workers=workers, coverage_target=GATE_FRONTIER_COVERAGE)
    row["program"] = name
    for entry in row["bec"]:
        assert entry["overhead"] <= entry["budget"] + GATE_BUDGET_SLACK, (
            f"{name}: bec@{entry['budget']} overhead "
            f"{entry['overhead']:.3f} bursts its budget")
    if mode == "smoke":
        plan = strided_plan(run.function, run.golden,
                            TARGET_RUNS[mode])
        interval = auto_checkpoint_interval(run.golden)
        # Engine-parity smoke: serial vs workers=4 on the hardened
        # binary must agree bit-for-bit.
        serial = run_variant(run.function, "bec", plan, run.golden,
                             budget=BUDGET_LADDER[mode][0],
                             regs=run.regs,
                             memory_image=run.program.memory_image,
                             bec=run.bec, workers=1)
        parallel = run_variant(run.function, "bec", plan, run.golden,
                               budget=BUDGET_LADDER[mode][0],
                               regs=run.regs,
                               memory_image=run.program.memory_image,
                               bec=run.bec, workers=4,
                               checkpoint_interval=interval)
        assert serial.campaign.effect_counts() \
            == parallel.campaign.effect_counts(), name
        assert [record[1:] for record in serial.records] \
            == [record[1:] for record in parallel.records], name
    return row


def aggregate(rows):
    total = {
        "baseline_sdc": sum(row["baseline_sdc"] for row in rows),
        "full_converted": sum(row["full"]["converted"] for row in rows),
        "full_extra_cycles": sum(
            row["full"]["overhead"] * row["trace_cycles"]
            for row in rows),
        "default_converted": sum(row["bec"][0]["converted"]
                                 for row in rows),
        "frontier_converted": sum(row["frontier"]["converted"]
                                  for row in rows),
        "frontier_extra_cycles": sum(
            row["frontier"]["overhead"] * row["trace_cycles"]
            for row in rows),
    }
    full_conv = total["full_converted"]
    total["full_conversion_rate"] = (
        full_conv / total["baseline_sdc"] if total["baseline_sdc"]
        else 1.0)
    total["default_budget_ratio"] = (
        total["default_converted"] / full_conv if full_conv else 1.0)
    total["frontier_coverage"] = (
        total["frontier_converted"] / full_conv if full_conv else 1.0)
    total["frontier_overhead_ratio"] = (
        total["frontier_extra_cycles"] / total["full_extra_cycles"]
        if total["full_extra_cycles"] else 0.0)
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: tiny plans, structural gates only")
    parser.add_argument("--workers", type=int, default=4,
                        help="campaign engine workers (aggregates are "
                             "bit-identical to serial)")
    parser.add_argument("--output", default="BENCH_harden.json",
                        help="path of the JSON report")
    options = parser.parse_args(argv)
    mode = "smoke" if options.smoke else "full"
    programs = SMOKE_PROGRAMS if options.smoke else PROGRAMS

    start = time.perf_counter()
    rows = [bench_kernel(name, mode, options.workers)
            for name in programs]
    total = aggregate(rows)
    elapsed = time.perf_counter() - start

    header = (f"{'program':<10} {'SDC':>4} {'full':>10} "
              + " ".join(f"{'bec@%.2f' % budget:>14}"
                         for budget in BUDGET_LADDER[mode])
              + f" {'>=90% at':>9}")
    print(header)
    for row in rows:
        full = row["full"]
        cells = " ".join(
            f"{entry['overhead']:+.0%}/{entry['converted']:>3}/"
            f"{entry['coverage']:>4.0%}"
            for entry in row["bec"])
        at = (f"{row['frontier']['budget']:.2f}"
              if row["frontier"]["coverage"] >= GATE_FRONTIER_COVERAGE
              else f">{row['bec'][-1]['budget']:.2f}")
        print(f"{row['program']:<10} {row['baseline_sdc']:>4} "
              f"{full['overhead']:+.0%}/{full['converted']:>4} "
              f"{cells} {at:>9}")
    print(f"\naggregate: full converts "
          f"{total['full_conversion_rate']:.0%} of baseline SDCs at "
          f"{total['full_extra_cycles'] / 1e3:.1f}k extra cycles; "
          f"bec@default reaches {total['default_budget_ratio']:.0%} of "
          f"full; frontier reaches {total['frontier_coverage']:.0%} at "
          f"{total['frontier_overhead_ratio']:.0%} of full's overhead "
          f"({mode} mode, {elapsed:.1f}s)")

    report = {
        "mode": mode,
        "workers": options.workers,
        "gates": {
            "budget_slack": GATE_BUDGET_SLACK,
            "full_conversion": GATE_FULL_CONVERSION,
            "default_budget_ratio": GATE_DEFAULT_BUDGET_RATIO,
            "frontier_coverage": GATE_FRONTIER_COVERAGE,
            "frontier_overhead_ratio": GATE_FRONTIER_OVERHEAD,
        },
        "programs": rows,
        "aggregate": total,
        "provenance": provenance(mode),
    }
    with open(options.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {options.output}")

    if mode == "full":
        failures = []
        if total["full_conversion_rate"] < GATE_FULL_CONVERSION:
            failures.append(
                f"full duplication converts only "
                f"{total['full_conversion_rate']:.1%} of baseline SDCs "
                f"(gate {GATE_FULL_CONVERSION:.0%})")
        if total["default_budget_ratio"] < GATE_DEFAULT_BUDGET_RATIO:
            failures.append(
                f"bec@default reaches only "
                f"{total['default_budget_ratio']:.1%} of full "
                f"(gate {GATE_DEFAULT_BUDGET_RATIO:.0%})")
        if total["frontier_coverage"] < GATE_FRONTIER_COVERAGE:
            failures.append(
                f"frontier coverage {total['frontier_coverage']:.1%} "
                f"(gate {GATE_FRONTIER_COVERAGE:.0%})")
        if total["frontier_overhead_ratio"] > GATE_FRONTIER_OVERHEAD:
            failures.append(
                f"frontier spends "
                f"{total['frontier_overhead_ratio']:.1%} of full's "
                f"overhead (gate {GATE_FRONTIER_OVERHEAD:.0%})")
        for failure in failures:
            print(f"GATE FAILED: {failure}")
        if failures:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
