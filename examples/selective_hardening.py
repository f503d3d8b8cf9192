"""Selective hardening: from vulnerability analysis to a protected binary.

Everything else in this repository *measures* how vulnerable a program
is to soft errors; this example uses the analysis to *reduce* it.  It
hardens the paper's motivating example (``countYears``) three ways —
no protection, full SWIFT-style duplication, and BEC-guided selective
protection under a 30 % dynamic-instruction budget — then replays the
same fault-injection plan against each binary and shows how many silent
data corruptions each level of redundancy converts into detected-fault
traps.

Run with::

    python examples/selective_hardening.py
"""

from repro.bec import run_bec
from repro.bench.motivating import count_years
from repro.fi import Machine
from repro.harden import harden_checked
from repro.harden.evaluate import ladder_comparison
from repro.ir import format_function


def main():
    # 1. The program under protection, its golden run and its BEC
    #    analysis (which will guide the selection).
    function = count_years()
    golden = Machine(function, memory_size=256).run()
    bec = run_bec(function)

    # 2. Harden with a 30 % overhead budget.  The transform duplicates
    #    the most vulnerable instructions into shadow registers and
    #    inserts `check` instructions at synchronization points; a
    #    check that observes a divergence traps with kind
    #    "detected-fault".  `harden_checked` also runs the hardened
    #    binary fault-free and rejects it unless it retraces the
    #    original golden path.
    result, _, hardened_golden = harden_checked(
        function, "bec", golden, budget=0.3, bec=bec, memory_size=256)
    print("BEC-guided hardening at a 30% budget protects "
          f"{len(result.protected)} instructions "
          f"({result.n_shadow} shadows, {result.n_check} checkers):\n")
    print(format_function(result.function))

    # 3. The hardened binary behaves identically on fault-free runs.
    assert hardened_golden.outputs == golden.outputs
    assert hardened_golden.returned == golden.returned
    print(f"Fault-free behaviour unchanged; dynamic overhead "
          f"{hardened_golden.cycles / golden.cycles - 1:+.1%} "
          f"({golden.cycles} -> {hardened_golden.cycles} cycles)\n")

    # 4. Replay one fault plan against all three protection levels.
    #    `ladder_comparison` maps every planned fault through the
    #    hardened golden trace, so each variant faces the *same*
    #    physical upsets.
    row = ladder_comparison(function, golden, memory_size=256, bec=bec,
                            budgets=(0.3,), target_runs=200)
    baseline_sdc = row["baseline_sdc"]
    print(f"Fault plan: {row['plan_runs']} injections, {baseline_sdc} "
          f"cause silent data corruption in the unprotected binary\n")
    print(f"{'strategy':<10} {'overhead':>9} {'converted':>10} "
          f"{'residual SDC':>13}")
    print(f"{'none':<10} {0.0:>+8.1%} {0:>10} {baseline_sdc:>13}")
    full, bec_guided = row["full"], row["bec"][0]
    for strategy, entry in (("full", full), ("bec", bec_guided)):
        print(f"{strategy:<10} {entry['overhead']:>+8.1%} "
              f"{entry['converted']:>10} {entry['residual_sdc']:>13}")
    print(f"\nFull duplication converts {full['converted']}/{baseline_sdc} "
          f"SDCs at {full['overhead']:+.0%} overhead;")
    print(f"BEC-guided selection converts {bec_guided['converted']} of "
          f"them at {bec_guided['overhead']:+.0%} — "
          f"{bec_guided['converted'] / full['converted']:.0%} of full "
          f"duplication's coverage for about a third of its cost.")

if __name__ == "__main__":
    main()
