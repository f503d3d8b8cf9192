"""End-to-end evaluation of hardening strategies by fault injection.

The comparison that matters for a protection scheme is *per fault*: the
same physical upset — same register, same bit, landing right after the
same dynamic instruction — replayed against the unprotected and the
hardened binary, and the change of its effect class observed.
:class:`HardenResult.map_plan` provides exactly that replay (the
hardened golden trace interleaves the original instruction stream with
shadows and checkers, so every original cycle has a unique hardened
counterpart), and this module packages it into
:func:`ladder_comparison`, the one protocol used by
``experiments/protection.py``, ``benchmarks/bench_harden.py``, the
``selective_hardening`` example and the tests:

* build one fault plan against the *original* program (a cycle-spanning
  stride of the inject-on-read population);
* run it against the baseline (``none``), full duplication and ``bec``
  at a ladder of budgets through a :class:`repro.store.CachingRunner`
  (cached when the caller's runner has a store, executed otherwise);
* count, pairwise against the baseline, how many silent data
  corruptions each variant *converts* to the ``detected`` class, and
  what dynamic instruction overhead it pays for them.
"""

from collections import namedtuple

from repro.bec.analysis import run_bec
from repro.fi.campaign import EFFECT_DETECTED, EFFECT_SDC, plan_inject_on_read
from repro.fi.engine import auto_checkpoint_interval
from repro.fi.sink import CollectSink
from repro.harden import eligible_pps, harden_checked
from repro.store import CachingRunner

VariantOutcome = namedtuple(
    "VariantOutcome",
    ["strategy", "result", "campaign", "records", "golden", "overhead",
     "protected_count", "eligible_count"])


def strided_plan(function, golden, target_runs):
    """A deterministic, cycle-spanning stride of the inject-on-read
    population (at most roughly *target_runs* entries)."""
    full = plan_inject_on_read(function, golden)
    stride = max(1, len(full) // max(target_runs, 1))
    return full[::stride]


def run_variant(function, strategy, plan, golden, regs=None,
                memory_image=None, memory_size=1 << 16, bec=None,
                budget=0.3, workers=1, checkpoint_interval=None,
                runner=None):
    """Harden with *strategy*, replay *plan* against it; returns a
    :class:`VariantOutcome` whose ``records`` are the campaign's
    ``(planned, effect, signature, byte_size)`` records, in plan order.

    The mapped campaign runs through *runner* (a
    :class:`repro.store.CachingRunner`; a storeless one by default),
    which serves it from its result store when the cell is archived;
    the records then come from the replayed archive.

    *plan* and *golden* belong to the original *function*; the plan is
    translated through the hardened golden trace before execution.
    :func:`repro.harden.harden_checked` rejects a variant whose
    fault-free run does not retrace the original, so it can never
    corrupt the comparison.
    """
    result, machine, hardened_golden = harden_checked(
        function, strategy, golden, budget=budget, bec=bec, regs=regs,
        memory_image=memory_image, memory_size=memory_size)
    mapped = result.map_plan(plan, hardened_golden)
    records = CollectSink()
    campaign = (runner or CachingRunner()).run(
        machine, mapped, regs=regs, golden=hardened_golden,
        workers=workers, checkpoint_interval=checkpoint_interval,
        harden=strategy, budget=budget, sink=records)
    overhead = hardened_golden.cycles / golden.cycles - 1 \
        if golden.cycles else 0.0
    return VariantOutcome(
        strategy=strategy, result=result, campaign=campaign,
        records=records.records,
        golden=hardened_golden, overhead=overhead,
        protected_count=len(result.protected),
        eligible_count=len(eligible_pps(function)))


def count_conversions(baseline, variant):
    """Pairs (baseline run is SDC, variant run is detected), by plan
    index — the faults the variant's redundancy caught."""
    return sum(
        1 for (_, base_effect, _, _), (_, variant_effect, _, _)
        in zip(baseline.records, variant.records)
        if base_effect == EFFECT_SDC and variant_effect == EFFECT_DETECTED)


def ladder_comparison(function, golden, regs=None, memory_image=None,
                      memory_size=1 << 16, bec=None,
                      budgets=(0.3, 0.6, 0.85), target_runs=160,
                      workers=1, coverage_target=0.9, runner=None):
    """The shared evaluation protocol of ``experiments/protection.py``,
    ``benchmarks/bench_harden.py`` and the ``selective_hardening``
    example: one strided fault plan replayed
    against baseline, full duplication and ``bec`` at a ladder of
    budgets.

    Returns a dict with ``plan_runs``, ``trace_cycles``,
    ``baseline_sdc``, ``full`` (overhead / converted / residual_sdc),
    ``bec`` (one entry per budget: budget / overhead / converted /
    residual_sdc / coverage / protected / eligible) and ``frontier``
    (the first ladder entry whose coverage reaches *coverage_target*,
    else the last).  Keeping this in one place guarantees the
    experiment table and the benchmark gates can never disagree on the
    protocol.
    """
    bec = bec or run_bec(function)
    checkpoint_interval = auto_checkpoint_interval(golden)
    plan = strided_plan(function, golden, target_runs)
    common = dict(regs=regs, memory_image=memory_image,
                  memory_size=memory_size, bec=bec, workers=workers,
                  checkpoint_interval=checkpoint_interval,
                  runner=runner)
    baseline = run_variant(function, "none", plan, golden, **common)
    full = run_variant(function, "full", plan, golden, **common)
    full_converted = count_conversions(baseline, full)
    row = {
        "plan_runs": len(plan),
        "trace_cycles": golden.cycles,
        "baseline_sdc": baseline.campaign.effect_counts()[EFFECT_SDC],
        "full": {
            "overhead": full.overhead,
            "converted": full_converted,
            "residual_sdc": full.campaign.effect_counts()[EFFECT_SDC],
        },
        "bec": [],
    }
    for budget in budgets:
        variant = run_variant(function, "bec", plan, golden,
                              budget=budget, **common)
        converted = count_conversions(baseline, variant)
        row["bec"].append({
            "budget": budget,
            "overhead": variant.overhead,
            "converted": converted,
            "residual_sdc":
                variant.campaign.effect_counts()[EFFECT_SDC],
            "coverage": converted / full_converted if full_converted
                else 1.0,
            "protected": variant.protected_count,
            "eligible": variant.eligible_count,
        })
    row["frontier"] = next(
        (entry for entry in row["bec"]
         if entry["coverage"] >= coverage_target),
        row["bec"][-1])
    return row

