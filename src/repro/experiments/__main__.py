"""Run all experiments and print paper-style tables.

Usage::

    python -m repro.experiments                        # everything
    python -m repro.experiments fig2 table3            # a selection
    python -m repro.experiments --markdown EXPERIMENTS.md
    python -m repro.experiments --regen-report         # refresh the
                                                       # checked-in report
    python -m repro.experiments --regen-report --store .repro-store.sqlite
                                                       # incremental: archived
                                                       # campaign cells are
                                                       # served from the store

With ``--store`` (or ``REPRO_STORE``) every campaign the harnesses run
is keyed in the content-addressed result store (:mod:`repro.store`):
the first regeneration populates it, later ones replay the archived
per-run records — same aggregates, near-zero simulation.
"""

import argparse
import sys
import time

from repro.experiments import (common, fig2, fig4, markdown,
                               policy_comparison, protection, table1,
                               table2, table3, table4)

EXPERIMENTS = {
    "fig2": fig2,
    "fig4": fig4,
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "policy-comparison": policy_comparison,
    "protection": protection,
}


DEFAULT_ORDER = ["fig2", "fig4", "table3", "table4", "table1", "table2",
                 "policy-comparison", "protection"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=__doc__.splitlines()[0])
    parser.add_argument("--markdown", nargs="?", const="EXPERIMENTS.md",
                        metavar="PATH",
                        help="write a markdown report instead of "
                             "printing tables (default PATH: "
                             "EXPERIMENTS.md)")
    parser.add_argument("--regen-report", action="store_true",
                        help="refresh the checked-in EXPERIMENTS.md "
                             "(alias for --markdown EXPERIMENTS.md; "
                             "the release process uses exactly this)")
    parser.add_argument("--store", metavar="PATH", default=None,
                        help="serve campaigns from the content-"
                             "addressed result store at PATH "
                             "(REPRO_STORE is the env equivalent)")
    parser.add_argument("names", nargs="*", metavar="EXPERIMENT",
                        help=f"experiments to run (default: all; "
                             f"choose from {sorted(EXPERIMENTS)})")
    return parser


def main(argv=None):
    options = build_parser().parse_args(argv)
    if options.store:
        common.set_store(options.store)
    for name in options.names:
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; "
                  f"choose from {sorted(EXPERIMENTS)}")
            return 1
    names = options.names or DEFAULT_ORDER
    if options.regen_report or options.markdown:
        path = options.markdown or "EXPERIMENTS.md"
        markdown.generate(EXPERIMENTS, names, path)
        print(f"wrote {path}")
        runner = common.campaign_runner()
        if runner is not None:
            print(f"store {runner.store.path}: {runner.hits} campaign "
                  f"cells from cache, {runner.misses} executed "
                  f"({runner.simulator_runs} simulator runs)")
        return 0
    status = 0
    for name in names:
        module = EXPERIMENTS[name]
        start = time.perf_counter()
        result = module.run_experiment()
        elapsed = time.perf_counter() - start
        print(module.render(result))
        print(f"[{name} finished in {elapsed:.1f} s]")
        print()
        # Table II is a soundness gate: an unsound case fails the run.
        if isinstance(result, dict) and result.get("total_unsound"):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
