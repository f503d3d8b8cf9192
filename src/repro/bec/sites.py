"""The fault space and fault-site naming.

The paper's fault space is ``F = P × V`` at bit granularity.  Because the
effect of a corruption of register ``v`` is constant from one access of
``v`` to the next (nothing reads it in between), BEC assigns one *fault
index* per **access window**: a triple ``(p, v, i)`` where instruction
``p`` reads or writes ``v`` and bit ``i`` is a bit position.  The window
covers the time from just after ``p`` executes until the next write of
``v``; the reads in ``use(p, v)`` are exactly the observers of a fault
landing in that window.

Windows whose register is killed at ``p`` (not live afterwards) are
created too but belong to the masked class ``[s0]`` from initialization
on (Algorithm 2, line 5).
"""

from repro.ir.liveness import compute_liveness


class FaultSpace:
    """Enumerates and names every fault site of a function.

    Site ids are dense integers; id 0 is reserved for ``s0`` (the intact
    execution).  Use :meth:`site_id` / :meth:`site` to convert between
    ``(pp, reg, bit)`` triples and ids.
    """

    S0 = 0

    def __init__(self, function, liveness=None):
        self.function = function
        self.width = function.bit_width
        self.liveness = liveness or compute_liveness(function)
        self._ids = {}
        self._sites = [None]          # index 0 = s0
        self._live = []               # site ids with a live window
        self._killed = []             # site ids merged into [s0] at init
        self._window_regs = []        # per pp: tuple of accessed regs
        self._enumerate()

    def _enumerate(self):
        for instruction in self.function.instructions:
            pp = instruction.pp
            live_after = self.liveness.live_after(pp)
            accessed = instruction.data_accesses()
            self._window_regs.append(accessed)
            for reg in accessed:
                is_live = reg in live_after
                for bit in range(self.width):
                    site_id = len(self._sites)
                    self._sites.append((pp, reg, bit))
                    self._ids[(pp, reg, bit)] = site_id
                    if is_live:
                        self._live.append(site_id)
                    else:
                        self._killed.append(site_id)

    # -- naming ------------------------------------------------------------

    def site_id(self, pp, reg, bit):
        """Dense id of the window site ``(pp, reg, bit)``."""
        return self._ids[(pp, reg, bit)]

    def has_site(self, pp, reg):
        return (pp, reg, 0) in self._ids

    def site(self, site_id):
        """The ``(pp, reg, bit)`` triple behind *site_id*."""
        return self._sites[site_id]

    @property
    def site_count(self):
        """Number of window sites (excluding s0)."""
        return len(self._sites) - 1

    # -- iteration ------------------------------------------------------------

    def live_sites(self):
        """Ids of window sites whose register is live after the access."""
        return tuple(self._live)

    def killed_sites(self):
        """Ids of window sites masked at initialization."""
        return tuple(self._killed)

    def windows(self):
        """All (pp, reg) access windows in program order."""
        for pp, regs in enumerate(self._window_regs):
            for reg in regs:
                yield pp, reg

    def live_windows(self):
        """(pp, reg) windows whose register is live after the access."""
        for pp, regs in enumerate(self._window_regs):
            live_after = self.liveness.live_after(pp)
            for reg in regs:
                if reg in live_after:
                    yield pp, reg
