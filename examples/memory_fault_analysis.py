"""Memory-cell fault analysis (paper §II extension).

The paper's campaigns target the register file, noting that "data points
may refer to memory cells if data in memory is modeled by a compiler".
This example models exactly that: a lookup-table kernel is compiled from
mini-C, its golden trace collects the dynamic loads, and the BEC result
prunes the memory-side inject-on-read campaign — memory bits whose
loaded register bits are provably masked need no injection, and repeats
within one store-delimited epoch are inferrable.

Run with::

    python examples/memory_fault_analysis.py
"""

from repro.bec import run_bec
from repro.fi import (CampaignEngine, Machine, MemoryInjection,
                      memory_fault_accounting, plan_memory_bec,
                      plan_memory_inject_on_read)
from repro.minic.compiler import compile_source

#: A parity-of-table-entries kernel: each table entry is read, reduced
#: to its low nibble, and folded into a checksum.  The high 28 bits of
#: every loaded word are provably masked by the `& 15`.
SOURCE = """
int table[8] = {3, 141, 59, 26, 53, 58, 97, 93};

int main(int n) {
    int sum = 0;
    for (int i = 0; i < n; i = i + 1) {
        int entry = table[i];
        sum = sum ^ (entry & 15);
    }
    return sum;
}
"""


def main():
    program = compile_source(SOURCE)
    machine = Machine(program.function,
                      memory_image=program.memory_image)
    regs = program.initial_regs(8)
    golden = machine.run(regs=regs)
    print(f"golden run: {golden.cycles} cycles, "
          f"returned {golden.returned}, {len(golden.loads)} loads\n")

    # 1. Static analysis once; memory accounting is trace-directed.
    bec = run_bec(program.function)
    accounting = memory_fault_accounting(program.function, golden, bec)
    print("memory fault space (one site per bit of every dynamic load):")
    for key in ("live_in_values", "live_in_bits", "masked_bits",
                "inferrable_bits"):
        print(f"  {key:18s} {accounting[key]:6d}")
    print(f"  pruned             {accounting['pruned_percent']:6.2f} %\n")

    # 2. The pruned campaign is directly executable and finds the same
    #    vulnerabilities as the full sweep.
    full_plan = plan_memory_inject_on_read(program.function, golden)
    pruned_plan = plan_memory_bec(program.function, golden, bec)
    full = CampaignEngine(machine, full_plan, regs=regs,
                          golden=golden).run()
    pruned = CampaignEngine(machine, pruned_plan, regs=regs,
                            golden=golden).run()
    print(f"full campaign:   {len(full_plan):4d} runs, "
          f"{full.vulnerable_runs():4d} vulnerable")
    print(f"pruned campaign: {len(pruned_plan):4d} runs, "
          f"{pruned.vulnerable_runs():4d} vulnerable")
    print(f"effects observed by both: "
          f"{full.effect_counts()} vs {pruned.effect_counts()}\n")

    # 3. Individual memory injections for ad-hoc what-if questions:
    #    corrupt bit 2 of table[0] before execution starts.
    injected = machine.run(regs=regs,
                           injection=MemoryInjection(-1, 0, 2))
    print(f"flip bit 2 of table[0] pre-run: returned "
          f"{injected.returned} (golden {golden.returned})")


if __name__ == "__main__":
    main()
