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

**The walk is compiled per template.**  What one cycle does depends on
its ``pp`` and, for each register the instruction reads through a
port, on the ``pp`` whose window last opened that register's chains
(its *origin*): those fix every chain's class, so only the group ids
are dynamic.  :class:`BitWalk` runs the chain and group logic above
once per ``(pp, origins)`` key with symbolic group ids and keeps the
result as a :class:`_Template`: the rows' register/bit/class columns,
the number of new groups, and ``operator.itemgetter`` gathers that pick
each row's group and each reopened chain from the cycle's *source*
list — ``-1`` (no chain), the open chains of the read registers, then
the new ids.  A cycle is then a template lookup, one list build and a
few gathers; keys stay close to the static instruction count.
"""

import operator
from array import array
from collections import Counter, namedtuple
from itertools import repeat

from repro import obs
from repro.ir.liveness import compute_liveness
from repro.bec.coalesce import LocalRelation, instruction_pairs

BitInstance = namedtuple(
    "BitInstance",
    ["cycle", "pp", "reg", "bit", "rep", "emit", "epoch"])


def _gather(indices):
    """``itemgetter`` over *indices* that always returns a sequence
    (a bare ``itemgetter(i)`` returns the item itself)."""
    if len(indices) > 1:
        return operator.itemgetter(*indices)
    start = indices[0] if indices else 0
    return operator.itemgetter(slice(start, start + len(indices)))


class _Template:
    """One compiled cycle.

    * ``reads`` — the port registers whose open chains the cycle's
      source list holds, ``width`` ids each, after the leading ``-1``;
    * ``new`` — groups the cycle opens (their ids end the source);
    * ``instances`` / ``masked`` — window bits walked, and how many of
      them are in ``s0``;
    * ``pp``, ``reg``, ``bit``, ``rep`` — the kept rows' columns
      (``reg`` indexes :attr:`BitWalk.registers`), and ``epoch``, the
      gather of their group ids (``-1`` for a masked row);
    * ``updates`` — ``(reg, gather)`` of each register whose chains
      the cycle reopens; ``drops`` — the other registers it accesses.
    """

    __slots__ = ("reads", "new", "instances", "masked", "pp", "reg",
                 "bit", "rep", "epoch", "updates", "drops")


class BitWalk:
    """The walk of one function's golden traces, compiled per template.

    With ``include_killed`` the windows of killed accesses (statically
    masked at initialization) are walked too, which the validation
    harness uses.  With ``emitted_only`` a template keeps only the rows
    that open a group, whose epochs are then exactly its new ids.
    """

    def __init__(self, function, bec, liveness=None, include_killed=False,
                 emitted_only=False):
        self.function = function
        self.width = function.bit_width
        self.bec = bec
        self.liveness = liveness or bec.liveness or compute_liveness(
            function)
        self.include_killed = include_killed
        self.emitted_only = emitted_only
        #: Register names, in the order templates first kept them.
        self.registers = []
        self._register_index = {}
        self._rows = {}         # pp -> (ports, windows, accesses)
        self._reads = {}        # pp -> registers read through a port
        self.templates = {}     # (pp, origins) -> _Template

    def _row(self, pp):
        """``(ports, windows, accesses)`` of *pp*:

        * ``ports`` — ``(reg, targets)`` per register read whose port
          re-materializes in a written window; ``targets[bit]`` is the
          sorted tuple of ``(written_reg, bit)`` windows in the port's
          component of ``R'_q``;
        * ``windows`` — ``{reg: classes}`` per accessed register the
          walk keeps; ``classes[bit]`` is the window bit's static
          class, and killed windows read 0;
        * ``accesses`` — every accessed register (each closes its
          chains).
        """
        row = self._rows.get(pp)
        if row is not None:
            return row
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
        windows = {}
        for reg in accesses:
            if reg in live_after:
                windows[reg] = self.bec.window_classes(pp, reg)
            elif self.include_killed:
                windows[reg] = (0,) * self.width
        row = self._rows[pp] = (tuple(ports), windows, accesses)
        self._reads[pp] = tuple(reg for reg, _ in ports)
        return row

    def _compile(self, pp, origins):
        """The :class:`_Template` of *pp* when its port registers' chains
        were opened at *origins* (``None``: no open chain)."""
        ports, windows, accesses = self._row(pp)
        width = self.width
        # Symbolic group ids are indices into the cycle's source list.
        reads = []
        incoming = {}   # (target_reg, bit) -> (chain_rep, source index)
        for (reg, port_targets), origin in zip(ports, origins):
            if origin is None:
                continue
            base = 1 + len(reads) * width
            reads.append(reg)
            reps = self._row(origin)[1][reg]
            for bit, targets in enumerate(port_targets):
                if reps[bit]:
                    for target in targets:
                        incoming.setdefault(target, (reps[bit], base + bit))
        first_new = 1 + len(reads) * width
        new = 0
        group_of_class = {}   # rep -> group opened this cycle
        rows = []             # (reg, bit, rep, group, emit)
        updates = {}          # reg -> per-bit group of its new chains
        for reg, classes in windows.items():
            chains = [0] * width
            for bit, rep in enumerate(classes):
                if rep == 0:
                    rows.append((reg, bit, 0, 0, False))
                    continue
                arrived = incoming.get((reg, bit))
                if arrived is not None and arrived[0] == rep:
                    group = arrived[1]
                else:
                    group = group_of_class.get(rep)
                emit = group is None
                if emit:
                    group = first_new + new
                    new += 1
                group_of_class.setdefault(rep, group)
                rows.append((reg, bit, rep, group, emit))
                chains[bit] = group
            updates[reg] = chains

        kept = [row for row in rows if row[4]] if self.emitted_only else rows
        index = self._register_index
        for reg, *_ in kept:
            if reg not in index:
                index[reg] = len(self.registers)
                self.registers.append(reg)
        template = _Template()
        template.reads = tuple(reads)
        template.new = new
        template.instances = len(rows)
        template.masked = sum(1 for row in rows if row[2] == 0)
        template.pp = array("i", [pp]) * len(kept)
        template.reg = array("H", [index[row[0]] for row in kept])
        template.bit = array("B", [row[1] for row in kept])
        template.rep = array("i", [row[2] for row in kept])
        template.epoch = _gather([row[3] for row in kept])
        template.updates = tuple((reg, _gather(chains))
                                 for reg, chains in updates.items())
        template.drops = tuple(reg for reg in accesses if reg not in updates)
        return template

    def steps(self, executed):
        """Walk the program points *executed*, yielding ``(cycle,
        template, source)`` per cycle; ``template.epoch(source)`` are
        the group ids of its rows.

        Group ids are unique across the walk and numbered in walk
        order.  When the walk ends or is closed, the window bits it
        walked are added to the ``walk.instances`` counter.
        """
        templates = self.templates
        port_reads = self._reads
        pending = {}        # reg -> per-bit group id of its open chains
        origin = {}         # reg -> pp whose window opened them
        next_group = 0
        walked = 0
        try:
            for cycle, pp in enumerate(executed):
                reads = port_reads.get(pp)
                if reads is None:
                    self._row(pp)
                    reads = port_reads[pp]
                key = (pp, tuple(map(origin.get, reads)))
                template = templates.get(key)
                if template is None:
                    template = templates[key] = self._compile(*key)
                source = [-1]
                for reg in template.reads:
                    source += pending[reg]
                if template.new:
                    source += range(next_group, next_group + template.new)
                    next_group += template.new
                for reg in template.drops:
                    if pending.pop(reg, None) is not None:
                        del origin[reg]
                for reg, gather in template.updates:
                    pending[reg] = gather(source)
                    origin[reg] = pp
                walked += template.instances
                yield cycle, template, source
        finally:
            obs.metrics().counter("walk.instances").inc(walked)

    def fill(self, columns, executed, max_runs=None):
        """Append the kept rows of the walk over *executed* to the int
        *columns* (``cycle``, ``pp``, ``reg``, ``bit``, ``rep`` and
        ``epoch`` arrays, ``names``).  With *max_runs* the walk stops
        at the end of the cycle that reaches that many rows, and the
        columns keep exactly the first *max_runs*."""
        if max_runs == 0:
            return
        cycles, pps, regs, bits, reps, epochs = (
            columns.cycle, columns.pp, columns.reg, columns.bit,
            columns.rep, columns.epoch)
        for cycle, template, source in self.steps(executed):
            rows = len(template.pp)
            if rows:
                cycles.extend(repeat(cycle, rows))
                pps.extend(template.pp)
                regs.extend(template.reg)
                bits.extend(template.bit)
                reps.extend(template.rep)
                epochs.extend(template.epoch(source))
                if max_runs is not None and len(cycles) >= max_runs:
                    break
        if max_runs is not None:
            for column in (cycles, pps, regs, bits, reps, epochs):
                del column[max_runs:]
        columns.names = tuple(self.registers)


def iter_bit_instances(function, trace, bec, liveness=None,
                       include_killed=False):
    """One :class:`BitInstance` per dynamic window-bit of the golden
    *trace*, in walk order: a per-instance view of :class:`BitWalk`.

    ``emit`` is True when a bit-level campaign must inject this instance
    (it starts a new dynamic equivalence group); the ``epoch`` field
    carries the group id, unique across the whole trace and numbered in
    walk order.  Masked instances have ``rep == 0`` and are never
    emitted.  With ``include_killed`` the windows of killed accesses are
    walked too.
    """
    walk = BitWalk(function, bec, liveness, include_killed)
    registers = walk.registers
    next_group = 0
    for cycle, template, source in walk.steps(trace.executed):
        for pp, reg, bit, rep, epoch in zip(
                template.pp, template.reg, template.bit, template.rep,
                template.epoch(source)):
            # A group is opened by its first row, in id order.
            emit = rep != 0 and epoch == next_group
            next_group += emit
            yield BitInstance(cycle, pp, registers[reg], bit, rep, emit,
                              None if epoch < 0 else epoch)


def count_window_instances(function, trace, liveness):
    """Number of dynamic live-window instances in *trace*."""
    return sum(len(liveness.live_windows(pp)) * uses
               for pp, uses in Counter(trace.executed).items())


def fault_injection_accounting(function, trace, bec):
    """Compute the Table III row for one benchmark trace.

    Returns a dict with the paper's row names:
    ``live_in_values``, ``live_in_bits``, ``masked_bits``,
    ``inferrable_bits`` and ``pruned_percent``.  The walk's masked and
    emitted counts are added up per template, not per instance.
    """
    liveness = bec.liveness
    width = function.bit_width
    live_in_values = count_window_instances(function, trace,
                                            liveness) * width
    uses = Counter(template for _, template, _ in BitWalk(
        function, bec, liveness, emitted_only=True).steps(trace.executed))
    live_in_bits = sum(template.new * n for template, n in uses.items())
    masked = sum(template.masked * n for template, n in uses.items())
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
