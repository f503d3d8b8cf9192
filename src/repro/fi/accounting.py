"""Dynamic fault-site accounting (the arithmetic behind Table III).

Everything here works on one *golden* execution trace plus the static
BEC result — no fault is actually injected.  This mirrors the paper: the
"Live in values" / "Live in bits" rows of Table III are derived counts,
an injected campaign is only needed for validation (§V).

Definitions (verified against the worked example in paper Fig. 2):

* a **window instance** is a dynamic occurrence ``(cycle, pp, reg)`` of
  an access window with a live value — the inject-on-read method
  performs one injection per bit of each window instance, giving the
  value-level count ``instances × width``;
* at bit level, one injection per *dynamic equivalence group* is
  enough; masked bits (class ``s0``) need no injection at all.

**Dynamic groups.**  Two sites in one static class are equivalent per
*corresponding* dynamic instances: the fault windows must be linked by
the very def-use chain the coalescing analysis merged along.  Tracking
that chain at runtime is essential — grouping all same-class instances
of, say, one loop iteration together is unsound when control flow can
skip one of the sites (a fault before a conditionally-executed reader
is not equivalent to one after it).  The walker therefore carries each
corruption *chain* through the trace:

* a chain on register bit ``(v, i)`` continues into window ``(q, z, j)``
  when ``q`` is the next access of ``v`` and the local relation
  ``R'_q`` ties ``port(q, v, i)`` to ``window(q, z, j)`` (and the static
  classes agree — which they do exactly when the analysis merged them).
  ``R'_q`` is the coalescing fixpoint's own
  :class:`~repro.bec.coalesce.LocalRelation`, built from the same
  :func:`~repro.bec.coalesce.instruction_pairs` but with windows left
  unresolved;
* same-cycle windows of one class (rule-3 bit ties, multi-target
  propagation) share one group;
* anything else starts a new group, which costs one injection
  (``emit=True``).

A further sound pruning — letting a chain whose port is *directly
masked* at ``q`` (the read provably observes nothing) survive into the
next window of the same register — is deliberately not performed: the
paper's accounting opens a fresh fault index per access window, and the
worked Fig. 2 numbers (225 runs) pin that behaviour.
"""

import itertools
from collections import namedtuple

from repro.ir.liveness import compute_liveness
from repro.bec.coalesce import LocalRelation, instruction_pairs

BitInstance = namedtuple(
    "BitInstance",
    ["cycle", "pp", "reg", "bit", "rep", "emit", "epoch"])


class _ChainWalker:
    """The static half of the walk: one row per program point, built on
    first visit, so the per-cycle loop only indexes tuples.

    A row is ``(ports, windows, accesses)``:

    * ``ports`` — ``(reg, targets)`` per register read whose port
      re-materializes in a written window; ``targets[bit]`` is the
      sorted tuple of ``(written_reg, bit)`` windows in the port's
      component of ``R'_q``;
    * ``windows`` — ``(reg, classes)`` per accessed register the walk
      yields; ``classes[bit]`` is the window bit's static class, and
      killed windows (walked only with ``include_killed``) read 0;
    * ``accesses`` — every accessed register (each closes its chains).
    """

    def __init__(self, function, bec, liveness, include_killed):
        self.function = function
        self.width = function.bit_width
        self.bec = bec
        self.liveness = liveness
        self.include_killed = include_killed
        self._rows = {}

    def row(self, pp):
        row = self._rows.get(pp)
        if row is None:
            row = self._rows[pp] = self._build_row(pp)
        return row

    def _build_row(self, pp):
        instruction = self.function.instruction_at(pp)
        relation = LocalRelation(instruction_pairs(
            instruction, self.bec.bit_values, self.width))
        bits = range(self.width)
        ports = []
        for reg in dict.fromkeys(instruction.data_reads()):
            targets = tuple(
                tuple(sorted(node[1:] for node in relation.component(reg, bit)
                             if node[0] == "win"))
                for bit in bits)
            if any(targets):
                ports.append((reg, targets))
        live_after = self.liveness.live_after(pp)
        accesses = instruction.data_accesses()
        windows = []
        for reg in accesses:
            if reg in live_after:
                windows.append((reg, self.bec.window_classes(pp, reg)))
            elif self.include_killed:
                windows.append((reg, (0,) * self.width))
        return tuple(ports), tuple(windows), accesses


def iter_bit_instances(function, trace, bec, liveness=None,
                       include_killed=False):
    """Walk the golden *trace* yielding one :class:`BitInstance` per
    dynamic window-bit.

    ``emit`` is True when a bit-level campaign must inject this instance
    (it starts a new dynamic equivalence group); the ``epoch`` field
    carries the group id, unique across the whole trace and numbered in
    walk order.  Masked instances have ``rep == 0`` and are never
    emitted.  With ``include_killed`` the windows of killed accesses
    (statically masked at initialization) are walked too, which the
    validation harness uses.
    """
    liveness = liveness or bec.liveness or compute_liveness(function)
    width = function.bit_width
    row = _ChainWalker(function, bec, liveness, include_killed).row
    groups = itertools.count()
    pending = {}        # reg -> per-bit (rep, group) of its open chains
    for cycle, pp in enumerate(trace.executed):
        ports, windows, accesses = row(pp)

        # Chains arriving through this instruction's reads.
        incoming = {}   # (target_reg, bit) -> (chain_rep, group)
        for reg, port_targets in ports:
            chains = pending.get(reg)
            if chains is None:
                continue
            for chain, targets in zip(chains, port_targets):
                if chain is not None:
                    for target in targets:
                        incoming.setdefault(target, chain)

        # Every access closes the register's previous windows.
        for reg in accesses:
            pending.pop(reg, None)

        group_of_class = {}   # rep -> group opened this cycle
        for reg, classes in windows:
            chains = [None] * width
            for bit, rep in enumerate(classes):
                if rep == 0:
                    yield BitInstance(cycle, pp, reg, bit, 0, False, None)
                    continue
                group = None
                arrived = incoming.get((reg, bit))
                if arrived is not None and arrived[0] == rep:
                    group = arrived[1]
                elif rep in group_of_class:
                    group = group_of_class[rep]
                emit = group is None
                if emit:
                    group = next(groups)
                group_of_class.setdefault(rep, group)
                yield BitInstance(cycle, pp, reg, bit, rep, emit, group)
                chains[bit] = (rep, group)
            pending[reg] = chains


def count_window_instances(function, trace, liveness):
    """Number of dynamic live-window instances in *trace*."""
    count = 0
    for pp in trace.executed:
        count += len(liveness.live_windows(pp))
    return count


def fault_injection_accounting(function, trace, bec):
    """Compute the Table III row for one benchmark trace.

    Returns a dict with the paper's row names:
    ``live_in_values``, ``live_in_bits``, ``masked_bits``,
    ``inferrable_bits`` and ``pruned_percent``.
    """
    liveness = bec.liveness
    width = function.bit_width
    live_in_values = count_window_instances(function, trace,
                                            liveness) * width
    live_in_bits = 0
    masked = 0
    for instance in iter_bit_instances(function, trace, bec,
                                       liveness=liveness):
        if instance.rep == 0:
            masked += 1
        elif instance.emit:
            live_in_bits += 1
    inferrable = live_in_values - live_in_bits - masked
    pruned = 0.0
    if live_in_values:
        pruned = 100.0 * (live_in_values - live_in_bits) / live_in_values
    return {
        "live_in_values": live_in_values,
        "live_in_bits": live_in_bits,
        "masked_bits": masked,
        "inferrable_bits": inferrable,
        "pruned_percent": pruned,
    }
