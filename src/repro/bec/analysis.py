"""Facade bundling the two BEC data-flow analyses.

:func:`run_bec` runs liveness, def-use chains, the global bit-value
analysis and the fault-index coalescing analysis on one function and
returns a :class:`BECAnalysis` with everything the use cases need:

* per-site equivalence classes and maskedness,
* per-window unmasked-bit counts (used by the scheduler and by the
  vulnerability metric),
* the underlying analyses for inspection.
"""

from repro.ir.defuse import compute_use_chains
from repro.ir.liveness import compute_liveness
from repro.bitvalue.analysis import compute_bit_values
from repro.bec.coalesce import coalesce
from repro.bec.sites import FaultSpace


class BECAnalysis:
    """Results of the full BEC analysis for one function."""

    def __init__(self, function, liveness, use_chains, bit_values,
                 coalescing):
        self.function = function
        self.liveness = liveness
        self.use_chains = use_chains
        self.bit_values = bit_values
        self.coalescing = coalescing
        self.fault_space = coalescing.fault_space

    # -- per-site queries ------------------------------------------------------

    def class_of(self, pp, reg, bit):
        """Equivalence-class representative of the fault site (0=masked)."""
        return self.coalescing.class_of(pp, reg, bit)

    def is_masked(self, pp, reg, bit):
        return self.coalescing.is_masked(pp, reg, bit)

    # -- per-window queries ------------------------------------------------------

    def window_classes(self, pp, reg):
        """Class representative per bit of the window ``(pp, reg)``."""
        return tuple(self.class_of(pp, reg, bit)
                     for bit in range(self.function.bit_width))

    def unmasked_bits(self, pp, reg):
        """Number of bits of the window whose corruption can have an
        effect (class != s0)."""
        return sum(1 for bit in range(self.function.bit_width)
                   if not self.is_masked(pp, reg, bit))

    # -- summaries -------------------------------------------------------------------

    def summary(self):
        """Aggregate static statistics as a dict (stable keys)."""
        width = self.function.bit_width
        total = self.fault_space.site_count
        live_sites = self.fault_space.live_sites()
        masked_live = sum(
            1 for site in live_sites
            if self.coalescing.class_of(*self.fault_space.site(site)) == 0)
        class_reps = set()
        for site in live_sites:
            rep = self.coalescing.class_of(*self.fault_space.site(site))
            if rep != 0:
                class_reps.add(rep)
        return {
            "bit_width": width,
            "window_sites": total,
            "live_window_sites": len(live_sites),
            "killed_window_sites": len(self.fault_space.killed_sites()),
            "masked_live_sites": masked_live,
            "live_classes": len(class_reps),
            "coalescing_iterations": self.coalescing.iterations,
        }


def run_bec(function):
    """Run the complete BEC analysis on a finalized *function*."""
    liveness = compute_liveness(function)
    use_chains = compute_use_chains(function)
    bit_values = compute_bit_values(function)
    fault_space = FaultSpace(function, liveness=liveness)
    coalescing = coalesce(function, bit_values, use_chains,
                          fault_space=fault_space)
    return BECAnalysis(function, liveness, use_chains, bit_values,
                       coalescing)
