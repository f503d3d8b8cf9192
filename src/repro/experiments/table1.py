"""Table I — cost of the exhaustive fault-injection campaign.

The paper reports hours of wall-clock time and up to hundreds of GB of
archived traces for exhaustive campaigns on a 3.8 GHz AMD machine.  A
pure-Python simulator cannot reproduce the absolute numbers, so this
experiment runs the exhaustive campaign on a *time-boxed prefix* of
each trace (every register-file bit at each of the first
``cycle_limit`` cycles), measures wall time and archived bytes, and
extrapolates linearly to the full trace — campaign cost is linear in
(cycles × register bits) runs, each of roughly trace length, so the
quadratic extrapolation mirrors the paper's scaling.

The qualitative claims this regenerates: campaign cost explodes with
trace length (RSA/SHA/CRC32 ≫ bitcount in the paper), while the BEC
analysis itself (last column) stays in the noise.
"""

import time

from repro.bec.analysis import run_bec
from repro.fi.campaign import plan_exhaustive
from repro.experiments.common import benchmark_run
from repro.experiments.reporting import format_bytes, render_table

#: Paper Table I (hours, GB) — for shape comparison only.
PAPER_TABLE1 = {
    "bitcount": (0.5, 1), "AES": (2, 7), "CRC32": (7, 116),
    "SHA": (10, 100), "RSA": (50, 700),
}

#: Benchmarks in the paper's Table I.
TABLE1_BENCHMARKS = ("bitcount", "AES", "CRC32", "SHA", "RSA")


def run_benchmark(name, cycle_limit=10, register_stride=3):
    """Measured + extrapolated exhaustive-campaign cost for *name*.

    The campaign sweeps every bit of every ``register_stride``-th
    register over the first ``cycle_limit`` trace cycles; cost is linear
    in the number of runs, each of roughly trace length, so the slice
    extrapolates to the full campaign.
    """
    run = benchmark_run(name)
    golden = run.golden
    registers = run.function.registers()[::register_stride]
    plan = plan_exhaustive(run.function, golden, registers=registers)[
        :cycle_limit * len(registers) * run.function.bit_width]

    analysis_start = time.perf_counter()
    run_bec(run.function)
    analysis_time = time.perf_counter() - analysis_start

    # An interval past the trace leaves the one cycle-0 snapshot, so
    # every run executes from cycle 0, as in the paper's campaign.
    result = run.run_plan(plan, checkpoint_interval=golden.cycles + 1)
    covered = min(cycle_limit, golden.cycles)
    cycle_scale = golden.cycles / covered
    register_scale = len(run.function.registers()) / len(registers)
    scale = cycle_scale * register_scale
    return {
        "benchmark": name,
        "trace_cycles": golden.cycles,
        "campaign_runs": len(plan),
        "full_campaign_runs": int(len(plan) * scale),
        "measured_time_s": result.wall_time,
        "extrapolated_time_s": result.wall_time * scale * cycle_scale,
        "measured_bytes": result.archived_bytes,
        "extrapolated_bytes": int(result.archived_bytes * scale),
        "distinct_traces": result.distinct_traces,
        "bec_analysis_time_s": analysis_time,
        "paper_hours": PAPER_TABLE1[name][0],
        "paper_gb": PAPER_TABLE1[name][1],
    }


def run_experiment(names=TABLE1_BENCHMARKS, cycle_limit=10,
                   register_stride=3):
    rows = [run_benchmark(name, cycle_limit=cycle_limit,
                          register_stride=register_stride)
            for name in names]
    return {"rows": rows, "cycle_limit": cycle_limit}


def render(result):
    columns = [
        ("benchmark", "Benchmark", ""),
        ("trace_cycles", "Cycles", "d"),
        ("campaign_runs", "Runs (prefix)", "d"),
        ("measured_time_s", "Time (s)", ".2f"),
        ("extrapolated_time_s", "Extrap. time (s)", ".0f"),
        ("archived", "Archived", ""),
        ("bec_analysis_time_s", "BEC (s)", ".2f"),
        ("paper_hours", "Paper (h)", ""),
        ("paper_gb", "Paper (GB)", ""),
    ]
    rows = []
    for row in result["rows"]:
        rendered = dict(row)
        rendered["archived"] = format_bytes(row["extrapolated_bytes"])
        rows.append(rendered)
    return render_table(
        f"Table I: exhaustive campaign cost "
        f"(prefix of {result['cycle_limit']} cycles, extrapolated)",
        columns, rows)


def main():
    print(render(run_experiment()))


if __name__ == "__main__":
    main()
