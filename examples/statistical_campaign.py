"""Statistical fault-injection campaigns with BEC outcome collapsing.

Exhaustive campaigns cost hours and hundreds of GB at realistic scale
(paper Table I), so practitioners sample.  This example estimates the
architectural vulnerability factor (AVF) of a small CRC-style kernel
three ways and compares cost vs fidelity:

1. ground truth — the full inject-on-read sweep (tractable here only
   because the kernel is tiny);
2. uniform Monte-Carlo sampling with a Wilson 95 % interval;
3. the same estimator with BEC outcome collapsing: sampled sites that
   fall in one equivalence-class epoch share a single simulator run, and
   provably masked sites need no run at all.

Run with::

    python examples/statistical_campaign.py
"""

import time

from repro.bec import run_bec
from repro.fi import Machine, estimate_avf, exhaustive_avf
from repro.minic.compiler import compile_source

BUDGET = 600

#: A bit-reflection checksum: xor-folds each input bit with a rotating
#: polynomial, the same structure as CRC32's hot loop.
SOURCE = """
int main(int data) {
    int crc = 255;
    for (int i = 0; i < 12; i = i + 1) {
        int bit = (crc ^ data) & 1;
        crc = crc >> 1;
        if (bit != 0) crc = crc ^ 237;
        data = data >> 1;
    }
    return crc;
}
"""


def main():
    program = compile_source(SOURCE)
    machine = Machine(program.function,
                      memory_image=program.memory_image)
    regs = program.initial_regs(0x5A3)
    golden = machine.run(regs=regs)
    print(f"golden trace: {golden.cycles} cycles\n")

    start = time.perf_counter()
    truth = exhaustive_avf(machine, program.function, golden, regs=regs)
    exhaustive_time = time.perf_counter() - start
    print(f"ground truth AVF     {truth:6.4f}   "
          f"({exhaustive_time:6.1f} s, full sweep)")

    start = time.perf_counter()
    uniform = estimate_avf(machine, program.function, golden, BUDGET,
                           seed=11, regs=regs)
    uniform_time = time.perf_counter() - start
    print(f"uniform sampling     {uniform.avf:6.4f}   "
          f"[{uniform.low:.4f}, {uniform.high:.4f}]  "
          f"({uniform_time:6.1f} s, {uniform.simulator_runs} runs)")

    bec = run_bec(program.function)
    start = time.perf_counter()
    collapsed = estimate_avf(machine, program.function, golden, BUDGET,
                             seed=11, regs=regs, bec=bec)
    collapsed_time = time.perf_counter() - start
    print(f"BEC-collapsed        {collapsed.avf:6.4f}   "
          f"[{collapsed.low:.4f}, {collapsed.high:.4f}]  "
          f"({collapsed_time:6.1f} s, {collapsed.simulator_runs} runs)")

    saved = 1 - collapsed.simulator_runs / max(uniform.simulator_runs, 1)
    print(f"\nsame budget of {BUDGET} samples; collapsing saved "
          f"{saved:.0%} of the simulator runs")
    in_interval = collapsed.low <= truth <= collapsed.high
    print(f"truth inside the 95% interval: {in_interval}")


if __name__ == "__main__":
    main()
