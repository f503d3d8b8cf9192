"""Fault-index coalescing driver (paper Algorithm 2).

Initialization puts every killed window site into ``[s0]`` and every live
window site into its own singleton class.  The iterative phase then
applies monotone refinements until a fixed point.

**Intra-instruction coalescing** — every instruction ``q`` contributes a
static set of constraint pairs over its read *ports* and written
*windows* (:func:`instruction_pairs`, :mod:`repro.bec.intra`,
Algorithm 3).  ``R'_q`` is the current relation ``R`` extended with
these local merges.  :class:`LocalRelation` is its one builder: the
fixpoint resolves windows to their R-representatives, and the trace
walker (:mod:`repro.fi.accounting`) reads the same relation unresolved
to chain dynamic window instances along the very edges merged here.

**Inter-instruction coalescing** (Algorithm 2, line 12) merges a window
site ``w = (p, v, i)`` only when every read ``q ∈ use(p, v)`` agrees.
Soundness rests on a lockstep argument: as long as every read of the
corrupted register produces the *same observable outcome* in the compared
runs, the machine states differ only in the corrupted bits themselves,
so per-read local evidence composes.  Three rules implement this:

1. *masking* — ``w`` joins ``[s0]`` if at every use the port is
   **directly** invisible (tied to ``s0`` by a same-instruction rule:
   a known-bit mask, a shifted-out bit, ``xor x, x`` ...).  Direct
   invisibility means the read's outcome equals the fault-free outcome,
   so the run never leaves the golden state (except for the fault bit,
   which dies unobserved).  Evidence routed *through other windows*
   (e.g. "propagates into z, and z's window happens to be masked") is
   rejected here: those claims are relative to a golden base state,
   which the first effectful read invalidates.

2. *propagation* — only for windows with a **single** reading
   instruction ``q``: ``w`` merges with the full local class of its port
   (windows of ``q``'s results, or ``[s0]``), provided the corruption is
   *consumed* at ``q`` (overwritten or dead afterwards — otherwise a
   loop may re-read it and re-corrupt the result) and *observed on every
   path* (every CFG path from the window reaches ``q`` before a write of
   ``v`` or the exit — otherwise the fault silently dies on some path,
   unlike the target flip).  With a single consuming read, the machine
   state when ``q`` executes is exactly golden-plus-fault, so transitive
   evidence through ``R`` is valid.

3. *bit tie* — ``w(p,v,i)`` and ``w(p,v,j)`` merge if at **every** use
   the two ports fall into the same component of the *direct* (port/s0
   only) relation: either the same eval-rule outcome group (both flips
   provably take the same branch / produce the same comparison result —
   the paper's Fig. 4 ``beqz`` coalescing) or both directly invisible —
   provided ``v`` does not *survive* any of those reads (each one
   overwrites ``v`` or leaves it dead, rule 2's side condition).
   Outcome equality keeps the two runs in lockstep at every read, and
   the residual difference (bit i vs bit j of ``v``) dies there.  A
   surviving ``v`` carries the difference into its next
   window, whose reads may tell the bits apart.  Counterexample (width
   4): ``li r1, 5; andi r3, r1, 6; slt r0, r3, r1; slt r1, r0, r1;
   out r1; ret r0``.  Flipping bit 2 or bit 3 of ``r1`` after the
   ``andi`` gives the same first ``slt`` (``4 < 1`` and ``4 < -3`` are
   both false), but ``r1`` survives it, and the second ``slt`` compares
   ``0 < 1`` against ``0 < -3``, so the outputs differ.

Every step only merges equivalence classes, so the relation rises
monotonically in the (complete) lattice of equivalence relations and the
iteration terminates (Knaster–Tarski).  Each of the three side
conditions above was forced by a counterexample found through the
exhaustive fault-injection validation harness (see
``tests/bec/test_soundness_random.py``); the paper states the
corresponding algorithm only at the pseudo-code level.
"""

from repro.bec.equivalence import UnionFind
from repro.bec.intra import S0, intra_constraints


#: Passes after which a still-changing fixpoint is a bug (every kernel
#: converges in 2).
MAX_ITERATIONS = 100


def instruction_pairs(instruction, bit_values, width):
    """The ``R'_q`` constraint pairs of *instruction* under the
    bit-value fixpoint *bit_values*.

    Statically unreachable code contributes no evidence; its ports stay
    unconstrained, which vetoes merges (sound).
    """
    pp = instruction.pp
    if not bit_values.is_executable(pp):
        return []
    before = {u: bit_values.before(pp, u) for u in instruction.data_reads()}
    return intra_constraints(instruction, before, width)


class LocalRelation:
    """``R'_q``: one instruction's constraint pairs closed into classes.

    Maintains two views:

    * the **full** relation over every node — read through
      :meth:`component`;
    * the **direct** relation over ports and s0 only (window-mediated
      pairs ignored) — used by the masking and bit-tie rules, whose
      soundness requires same-instruction outcome evidence.

    ``resolve`` maps each token to its node.  The coalescing fixpoint
    maps a window to its current R-representative and s0 to 0, which
    makes the full relation R extended with the pairs (rebuilt each
    pass).  The trace walker passes none and reads the windows
    themselves.  Components are tiny, so dict-based union-finds keyed by
    node are plenty.
    """

    def __init__(self, pairs, resolve=None):
        self._parent = {}
        self._members = {}
        self._direct_parent = {}
        self._s0 = resolve(S0) if resolve else S0
        for a, b in pairs:
            na, nb = (resolve(a), resolve(b)) if resolve else (a, b)
            self._union(self._parent, na, nb, track=True)
            if _is_direct(a) and _is_direct(b):
                self._union(self._direct_parent, na, nb, track=False)

    def _find(self, parent, node):
        root = node
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(node, node) != root:
            parent[node], node = root, parent[node]
        return root

    def _union(self, parent, a, b, track):
        ra, rb = self._find(parent, a), self._find(parent, b)
        if ra == rb:
            return
        parent[rb] = ra
        if track:
            members = self._members.setdefault(ra, {ra})
            members.update(self._members.pop(rb, {rb}))

    def component(self, reg, bit):
        """Nodes in the full component of the port ``(reg, bit)``."""
        root = self._find(self._parent, ("port", reg, bit))
        return self._members.get(root, {root})

    def port_directly_masked(self, reg, bit):
        """Is the port tied to s0 by same-instruction evidence?"""
        return self._find(self._direct_parent, ("port", reg, bit)) == \
            self._find(self._direct_parent, self._s0)

    def port_direct_root(self, reg, bit):
        return self._find(self._direct_parent, ("port", reg, bit))


def _is_direct(token):
    return token == S0 or token[0] == "port"


class CoalescingResult:
    """The equivalence relation R = S/~R over all fault sites."""

    def __init__(self, function, fault_space, uf, iterations):
        self.function = function
        self.fault_space = fault_space
        self._uf = uf
        self.iterations = iterations

    def class_of(self, pp, reg, bit):
        """Representative id of the site's class (0 = masked)."""
        return self._uf.find(self.fault_space.site_id(pp, reg, bit))

    def is_masked(self, pp, reg, bit):
        """True if a fault at this site is provably without effect."""
        return self.class_of(pp, reg, bit) == 0

    def classes(self):
        """Map representative -> list of (pp, reg, bit) members.

        The masked class is keyed by 0 and contains ``s0`` as the triple
        ``None``.
        """
        raw = self._uf.classes()
        result = {}
        for rep, members in raw.items():
            result[rep] = [self.fault_space.site(m) if m else None
                           for m in members]
        return result


def _compute_must_observe(function):
    """For every access window ``(pp, reg)``: does every CFG path from
    just after ``pp`` reach a read of ``reg`` before a write of ``reg``
    or the function exit?

    One backward all-paths (must) data-flow over register *sets*.  A
    block reads first the registers its first access reads (an
    instruction's reads come before its writes) and passes through the
    registers it does not access::

        observe_in[b] = reads_first[b] | (meet(observe_in[s]) - accessed[b])

    where the meet is the intersection over the successors, empty at an
    exit, and the iteration starts from every register.  One reverse
    scan per block then reads off the value after each access.
    """
    blocks = function.blocks
    rows = {}            # label -> per instruction (pp, reads, writes, accesses)
    reads_first = {}
    accessed = {}
    for block in blocks:
        first, seen, row = set(), set(), []
        for instruction in block.instructions:
            reads = instruction.data_reads()
            writes = instruction.data_writes()
            first.update(reg for reg in reads if reg not in seen)
            seen.update(reads)
            seen.update(writes)
            row.append((instruction.pp, reads, writes,
                        instruction.data_accesses()))
        rows[block.label] = row
        reads_first[block.label] = first
        accessed[block.label] = seen

    def observed_out(block, observe_in):
        if not block.succs:
            return set()
        return set.intersection(*(observe_in[s.label] for s in block.succs))

    everything = set(function.registers())
    observe_in = {block.label: everything for block in blocks}
    changed = True
    while changed:
        changed = False
        for block in reversed(blocks):
            label = block.label
            value = reads_first[label] | \
                (observed_out(block, observe_in) - accessed[label])
            if value != observe_in[label]:
                observe_in[label] = value
                changed = True

    result = {}
    for block in blocks:
        observed = observed_out(block, observe_in)
        for pp, reads, writes, accesses in reversed(rows[block.label]):
            for reg in accesses:
                result[(pp, reg)] = reg in observed
            observed.difference_update(writes)
            observed.update(reads)
    return result


def coalesce(function, bit_values, use_chains, fault_space):
    """Run Algorithm 2 to its fixed point; returns :class:`CoalescingResult`.

    ``bit_values`` is a :class:`repro.bitvalue.BitValueResult`,
    ``use_chains`` a :class:`repro.ir.UseChains` and ``fault_space`` the
    :class:`~repro.bec.sites.FaultSpace` of the same function.
    """
    width = function.bit_width
    uf = UnionFind(fault_space.site_count + 1)

    # Initialization (Algorithm 2, lines 1-7).
    for site in fault_space.killed_sites():
        uf.union(0, site)

    # Static constraint pairs per instruction (they depend only on the
    # bit-value analysis, not on R, so one computation suffices).
    constraints = {}
    readers = set()
    live_windows = list(fault_space.live_windows())
    for pp, reg in live_windows:
        for q in use_chains.use(pp, reg):
            readers.add(q)
    for q in sorted(readers):
        constraints[q] = instruction_pairs(function.instruction_at(q),
                                           bit_values, width)

    liveness = fault_space.liveness
    must_observe = _compute_must_observe(function)

    def survives(q, reg):
        """Does a corruption of *reg* outlive the read at *q*?"""
        instruction = function.instruction_at(q)
        if reg in instruction.data_writes():
            return False
        return reg in liveness.live_after(q)

    def resolver(q):
        """Window tokens of *q* to their R-representatives, s0 to 0."""
        def resolve(token):
            if token == S0:
                return 0
            if token[0] == "win":
                return uf.find(fault_space.site_id(q, token[1], token[2]))
            return token
        return resolve

    # Rules 1 and 3 read only the direct relation, and rule 2's side
    # conditions only liveness and must-observe: none depends on R, so
    # they are settled once.  Per live window with a reader: its sites,
    # its rule-1 masked bits, its rule-2 reader (or None) and its rule-3
    # tied site groups.
    direct = {q: LocalRelation(constraints[q]) for q in readers}
    windows = []
    for pp, reg in live_windows:
        uses = use_chains.use(pp, reg)
        if not uses:
            continue
        relations = [direct[q] for q in uses]
        sites = [fault_space.site_id(pp, reg, bit) for bit in range(width)]
        masked = [all(relation.port_directly_masked(reg, bit)
                      for relation in relations) for bit in range(width)]
        # Rule 2 (propagation) needs a single consuming read observed on
        # all paths.
        propagate_at = uses[0] if len(uses) == 1 \
            and not survives(uses[0], reg) \
            and must_observe.get((pp, reg), False) else None
        # Rule 3 (bit tie): group bits by their direct-relation
        # component signature across all uses, unless a read lets the
        # difference survive into the next window.
        ties = []
        if not any(survives(q, reg) for q in uses):
            signatures = {}
            for bit in range(width):
                signature = tuple(relation.port_direct_root(reg, bit)
                                  for relation in relations)
                signatures.setdefault(signature, []).append(sites[bit])
            ties = [tied for tied in signatures.values() if len(tied) > 1]
        windows.append((reg, sites, masked, propagate_at, ties))
    propagating = {propagate_at for _, _, _, propagate_at, _ in windows
                   if propagate_at is not None}

    # Every pass issues the same union calls in the same order: union by
    # size breaks ties by that order, and the class ids it picks enter
    # content keys.
    iterations = 0
    changed = True
    while changed:
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise RuntimeError("fault-index coalescing did not converge")
        changed = False
        local = {q: LocalRelation(constraints[q], resolver(q))
                 for q in propagating}
        for reg, sites, masked, propagate_at, ties in windows:
            for bit, site in enumerate(sites):
                # Rule 1 (masking): directly invisible at every read.
                if masked[bit]:
                    if uf.union(site, 0):
                        changed = True
                    continue
                # Rule 2 (propagation).  The representatives are visited
                # as a frozenset of ints, whose order decides the ties.
                if propagate_at is None:
                    continue
                reps = frozenset(node for node in
                                 local[propagate_at].component(reg, bit)
                                 if type(node) is int)
                for rep in reps:
                    if uf.union(site, rep):
                        changed = True
            # Rule 3 (bit tie).
            for first, *others in ties:
                for other in others:
                    if uf.union(first, other):
                        changed = True

    return CoalescingResult(function, fault_space, uf, iterations)
