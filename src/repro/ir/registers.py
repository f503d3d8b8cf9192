"""Register model.

Registers are identified by plain strings (e.g. ``"v0"``, ``"t3"``, ``"a0"``).
The special register :data:`ZERO` is hard-wired to zero like RISC-V ``x0``:
it always reads as 0, writes to it are discarded, and it is never a fault
site (there are no flip-flops behind it).

The data-point universe :math:`V` of the paper corresponds to the set of
registers that occur in a function (:func:`repro.ir.function.Function.registers`),
or to an explicitly supplied register file for fault-space accounting.
"""

ZERO = "zero"

# Conventional register pools used by the mini-C register allocator.  The
# names follow the RISC-V ABI loosely; nothing in the analyses depends on
# them, they only make generated code look familiar.
ARG_REGS = tuple(f"a{i}" for i in range(8))
TEMP_REGS = tuple(f"t{i}" for i in range(7))
SAVED_REGS = tuple(f"s{i}" for i in range(12))

#: Default allocatable pool for the register allocator.
DEFAULT_ALLOC_POOL = TEMP_REGS + SAVED_REGS + ARG_REGS
