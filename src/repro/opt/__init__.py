"""IR-level optimizations applied between codegen and register
allocation (the moral equivalent of LLVM's pre-RA cleanups).

:func:`optimize` is the entry point.  Two levels exist:

====== =======================================================
Level  Passes
====== =======================================================
``0``  nothing (raw codegen output)
``1``  copy coalescing, then DCE — what post-regalloc LLVM code
       looks like; this is the paper-faithful default
====== =======================================================
"""

from repro.opt.copyprop import coalesce_copies
from repro.opt.dce import eliminate_dead_code


def optimize(function, level=1):
    """Optimize *function* at the given level (see module docstring)."""
    if level == 0:
        return function
    if level == 1:
        return eliminate_dead_code(coalesce_copies(function))
    raise ValueError(
        f"unknown optimization level {level!r}; choose from [0, 1]")


__all__ = ["coalesce_copies", "eliminate_dead_code", "optimize"]
