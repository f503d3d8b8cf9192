"""Fault-index coalescing driver (paper Algorithm 2).

Initialization puts every killed window site into ``[s0]`` and every live
window site into its own singleton class.  The iterative phase then
applies monotone refinements until a fixed point.

**Intra-instruction coalescing** — every instruction ``q`` contributes a
static set of constraint pairs over its read *ports* and written
*windows* (:mod:`repro.bec.intra`, Algorithm 3).  ``R'_q`` is the current
relation ``R`` extended with these local merges.

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
from repro.bec.sites import FaultSpace


class _LocalRelation:
    """``R'_q``: the relation R extended with one instruction's pairs.

    Maintains two views:

    * the **full** relation (ports, windows resolved to their current
      R-representatives, and s0) — used by the single-use propagation
      rule;
    * the **direct** relation over ports and s0 only (window-mediated
      pairs ignored) — used by the masking and bit-tie rules, whose
      soundness requires same-instruction outcome evidence.

    Built against a snapshot of R's representatives; rebuilt each pass.
    Components are tiny, so dict-based union-finds keyed by token are
    plenty.
    """

    def __init__(self, fault_space, uf, pp, pairs):
        self._parent = {}
        self._members = {}
        self._direct_parent = {}
        resolve = {}
        for a, b in pairs:
            ra = self._resolve(fault_space, uf, pp, a, resolve)
            rb = self._resolve(fault_space, uf, pp, b, resolve)
            self._union(self._parent, ra, rb, track=True)
            if _is_direct(a) and _is_direct(b):
                self._union(self._direct_parent, ra, rb, track=False)

    @staticmethod
    def _resolve(fault_space, uf, pp, token, cache):
        """Map a token to a node key; persistent tokens become R-reps."""
        if token in cache:
            return cache[token]
        if token == S0:
            node = ("rep", 0)
        elif token[0] == "win":
            _, reg, bit = token
            site = fault_space.site_id(pp, reg, bit)
            node = ("rep", uf.find(site))
        else:
            node = token
        cache[token] = node
        return node

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

    # -- full relation -------------------------------------------------------

    def port_persistent(self, reg, bit):
        """R-representatives in the port's full component (frozenset)."""
        node = ("port", reg, bit)
        root = self._find(self._parent, node)
        return frozenset(key[1]
                         for key in self._members.get(root, {root})
                         if key[0] == "rep")

    # -- direct (port/s0-only) relation ------------------------------------------

    def port_directly_masked(self, reg, bit):
        """Is the port tied to s0 by same-instruction evidence?"""
        return self._find(self._direct_parent, ("port", reg, bit)) == \
            self._find(self._direct_parent, ("rep", 0))

    def port_direct_root(self, reg, bit):
        return self._find(self._direct_parent, ("port", reg, bit))


def _is_direct(token):
    return token == S0 or token[0] == "port"


class CoalescingResult:
    """The equivalence relation R = S/~R over all fault sites."""

    def __init__(self, function, fault_space, uf, iterations, rules=None):
        self.function = function
        self.fault_space = fault_space
        self._uf = uf
        self.iterations = iterations
        self.rules = rules    # the RuleSet the relation was built with

    def class_of(self, pp, reg, bit):
        """Representative id of the site's class (0 = masked)."""
        return self._uf.find(self.fault_space.site_id(pp, reg, bit))

    def is_masked(self, pp, reg, bit):
        """True if a fault at this site is provably without effect."""
        return self.class_of(pp, reg, bit) == 0

    def equivalent(self, site_a, site_b):
        """Are two (pp, reg, bit) sites in the same class?"""
        return self._uf.same(
            self.fault_space.site_id(*site_a),
            self.fault_space.site_id(*site_b))

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

    def masked_sites(self):
        """All masked (pp, reg, bit) sites."""
        return [self.fault_space.site(node)
                for node in range(1, self.fault_space.site_count + 1)
                if self._uf.find(node) == 0]


def _compute_must_observe(function):
    """For every access window ``(pp, reg)``: does every CFG path from
    just after ``pp`` reach a read of ``reg`` before a write of ``reg``
    or the function exit?

    Backward all-paths (must) data-flow per register: blocks summarize
    to their first access (read => True, write => False, none =>
    pass-through), initialized optimistically and iterated with AND.
    """
    result = {}
    blocks = function.blocks
    for reg in function.registers():
        first_access = {}
        for block in blocks:
            for instruction in block.instructions:
                if reg in instruction.data_reads():
                    first_access[block.label] = True
                    break
                if reg in instruction.data_writes():
                    first_access[block.label] = False
                    break
        observe_in = {block.label: True for block in blocks}
        changed = True
        while changed:
            changed = False
            for block in reversed(blocks):
                if block.label in first_access:
                    value = first_access[block.label]
                else:
                    value = bool(block.succs) and all(
                        observe_in[s.label] for s in block.succs)
                if value != observe_in[block.label]:
                    observe_in[block.label] = value
                    changed = True
        # Per access point: scan forward inside the block for the next
        # access of reg; fall back to the successor summary.
        for block in blocks:
            instructions = block.instructions
            for index, instruction in enumerate(instructions):
                if reg not in instruction.data_accesses():
                    continue
                value = None
                for follower in instructions[index + 1:]:
                    if reg in follower.data_reads():
                        value = True
                        break
                    if reg in follower.data_writes():
                        value = False
                        break
                if value is None:
                    value = bool(block.succs) and all(
                        observe_in[s.label] for s in block.succs)
                result[(instruction.pp, reg)] = value
    return result


def coalesce(function, bit_values, use_chains, fault_space=None,
             rules=None, max_iterations=100):
    """Run Algorithm 2 to its fixed point; returns :class:`CoalescingResult`.

    ``bit_values`` is a :class:`repro.bitvalue.BitValueResult` and
    ``use_chains`` a :class:`repro.ir.UseChains` for the same function.
    """
    fault_space = fault_space or FaultSpace(function)
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
        instruction = function.instruction_at(q)
        before = {u: bit_values.before(q, u)
                  for u in instruction.data_reads()}
        if not bit_values.is_executable(q):
            # Statically unreachable code contributes no evidence; its
            # ports stay unconstrained, which vetoes merges (sound).
            constraints[q] = []
            continue
        constraints[q] = intra_constraints(instruction, before, width,
                                           rules=rules)

    liveness = fault_space.liveness
    must_observe = _compute_must_observe(function)

    def survives(q, reg):
        """Does a corruption of *reg* outlive the read at *q*?"""
        instruction = function.instruction_at(q)
        if reg in instruction.data_writes():
            return False
        return reg in liveness.live_after(q)

    iterations = 0
    changed = True
    while changed:
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError("fault-index coalescing did not converge")
        changed = False
        local = {q: _LocalRelation(fault_space, uf, q, constraints[q])
                 for q in readers}
        for pp, reg in live_windows:
            uses = use_chains.use(pp, reg)
            if not uses:
                continue
            relations = [local[q] for q in uses]
            single_use = relations[0] if len(uses) == 1 else None
            consumed = len(uses) == 1 and not survives(uses[0], reg)
            observed = must_observe.get((pp, reg), False)
            for bit in range(width):
                # Rule 1 (masking): directly invisible at every read.
                if all(relation.port_directly_masked(reg, bit)
                       for relation in relations):
                    site = fault_space.site_id(pp, reg, bit)
                    if uf.union(site, 0):
                        changed = True
                    continue
                # Rule 2 (propagation): single consuming read observed
                # on all paths.
                if single_use is None or not consumed or not observed:
                    continue
                site = fault_space.site_id(pp, reg, bit)
                for rep in single_use.port_persistent(reg, bit):
                    if uf.union(site, rep):
                        changed = True
            # Rule 3 (bit tie): group bits by their direct-relation
            # component signature across all uses, unless a read lets
            # the difference survive into the next window.
            if any(survives(q, reg) for q in uses):
                continue
            signatures = {}
            for bit in range(width):
                signature = tuple(relation.port_direct_root(reg, bit)
                                  for relation in relations)
                signatures.setdefault(signature, []).append(bit)
            for tied_bits in signatures.values():
                first = fault_space.site_id(pp, reg, tied_bits[0])
                for other_bit in tied_bits[1:]:
                    other = fault_space.site_id(pp, reg, other_bit)
                    if uf.union(first, other):
                        changed = True

    return CoalescingResult(function, fault_space, uf, iterations,
                            rules=rules)
