"""EXPERIMENTS.md generator.

Runs every experiment harness and writes a markdown report with one
section per paper artifact: the regenerated table (which embeds the
paper's own numbers for comparison) plus a shape-agreement note.  The
repository's checked-in ``EXPERIMENTS.md`` is produced by::

    python -m repro.experiments --markdown EXPERIMENTS.md
"""

import time

PREAMBLE = """\
# Experiments — paper vs. this reproduction

Reproduction of every table and figure in the evaluation of
*BEC: Bit-Level Static Analysis for Reliability against Soft Errors*
(Ko & Burgstaller, CGO 2024).  Regenerate this file with::

    python -m repro.experiments --markdown EXPERIMENTS.md

Absolute numbers differ from the paper by design: the paper compiles
the benchmarks with LLVM 16 for RISC-V hardware and traces them on
SPIKE, while this reproduction compiles mini-C versions of the same
kernels for a RISC-V-flavoured IR and traces them on a pure-Python
simulator at reduced input scale (see the README's "Execution cores"
and "Optimization pipeline" sections for the substitution).  What must
carry over — and is asserted by `tests/experiments/` — is the *shape*:
who wins, by roughly what factor, and where the outliers sit.
"""

#: Per-experiment shape commentary recorded alongside the raw tables.
NOTES = {
    "fig2": """\
Exact reproduction — all five derived numbers match the paper's worked
example: 288 value-level runs, 225 bit-level runs (21.9 % pruned), a
681-site fault surface, 576 after rescheduling, and the automatic
scheduler discovering a 576-site schedule on its own.""",
    "fig4": """\
Exact reproduction of the coalescing walkthrough: the final class
assignment on the fork-after-join snippet matches the paper's Fig. 4c
(the `beqz` operand bits 14/15/16 coalesce; `v` bits 2-3 at `p2` merge
into `[s0]`; bits 0-1 keep their own classes).""",
    "table1": """\
Absolute hours/GB are not reproducible in Python; the harness sweeps a
sampled slice and extrapolates.  The paper's shape holds: campaign cost
grows superlinearly with trace length — at our reduced input scale
CRC32 has the longest trace and dominates, just as the paper's RSA
(50 h at its input size) dominates there — archived bytes track
distinct-trace counts, and the BEC analysis itself stays in the noise
(well under a second, "no significant compile time overhead").""",
    "table2": """\
Same verdict as the paper: zero unsound cases — no masked claim is
contradicted by injection and no equivalence group mixes distinguishable
traces.  Sound-but-imprecise pairs exist (distinct classes whose traces
happen to collide), which the paper observed too; they cost precision,
never correctness.""",
    "table3": """\
Shape agreements: the xor-saturated crypto kernels prune the most (AES
is in the top three, as in the paper's 30.04 % headline); the ADPCM
decoder beats the encoder thanks to its constant-mask clamps; the
compare/add-dominated kernels (dijkstra, adpcm_enc) prune the least.
Divergence: the paper's RSA is an arithmetic adversary (0.08 %), while
our mini-C RSA uses shift/mask-based modular reduction and therefore
prunes more; dijkstra takes over the adversary role here.""",
    "table4": """\
Shape agreements: every benchmark's best-policy schedule is at least as
reliable as its worst (no degradation, as the paper reports), and the
average improvement is of the paper's order (within a factor of two of
its 4.94 %).  Divergence: the ranking is not the paper's.  The
xor-saturated crypto kernels AES and SHA improve the most here, where
the paper ranks SHA third and AES fourth (5.04 % / 4.10 %).  CRC32
improves the least and bitcount sits mid-table, where the paper ranks
them first and second (13.11 % and 11.00 %).  The ADPCM codecs, last
in the paper (0.45 % / 0.71 %), sit mid-table here, adpcm_dec third.""",
    "policy-comparison": """\
Extension (no table in the paper): §VII-C claims BEC-augmented
scheduling is comparable to established value-level methods.  Measured:
the bit-level policy leaves a smaller fault surface than the value-level
live-interval policy on bitcount, dijkstra and adpcm_dec, and the same
on adpcm_enc and RSA.  On each of these, both policies beat the
adversarial worst and neither is worse than the original order.  AES is
the exception: its greedy bit-level schedule leaves 0.79 % more fault
surface than value-level, and more than the original order it was meant
to improve (1 052 481 against 1 040 991 live fault sites).  Greedy
kill-count scheduling is not optimal; the paper's claim is
comparability, not dominance, and on every kernel named here the two
policies are within 1 % of each other.""",
    "protection": """\
Extension (closing the paper's loop): BEC-guided selective redundancy
(`repro.harden`) versus full SWIFT-style duplication, same fault plan
replayed per variant.  Full duplication converts essentially every
baseline SDC into a detected-fault trap at 80-100 % dynamic overhead.
Selective hardening's coverage grows roughly in proportion to the
overhead budget — a fault is only caught if a checker observes a
shadow that diverged, so every covered window costs about one extra
dynamic instruction — with a concave edge from spending the budget on
the most vulnerable, best-connected windows first.  The 90 %-of-full
coverage point lands at budgets 0.60-0.85 — materially below full
duplication's 80-100 % overhead for the control/memory-bound kernels
(CRC32 and RSA reach it at 0.60) — while the diffusion-heavy crypto
kernels (AES, SHA) need near-full duplication before their corruption
chains are covered, the same shape the SWIFT literature reports.""",
}


def generate(experiments, names, path):
    """Run *names* (in order) and write the report to *path*."""
    sections = [PREAMBLE]
    for name in names:
        module = experiments[name]
        start = time.perf_counter()
        result = module.run_experiment()
        elapsed = time.perf_counter() - start
        title = module.__doc__.strip().splitlines()[0].rstrip(".")
        sections.append(f"\n## {name}: {title}\n")
        note = NOTES.get(name)
        if note:
            sections.append(note + "\n")
        sections.append("```")
        sections.append(module.render(result))
        sections.append("```")
        sections.append(f"*(regenerated in {elapsed:.1f} s)*\n")
    report = "\n".join(sections)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(report)
    return report
