"""Copy coalescing: eliminate ``mv`` instructions by merging registers.

A Chaitin-style coalescer over the (non-SSA) virtual-register function:
two registers may share a name when they never simultaneously hold
different live values.  Interference is approximated the classic way —
a register definition interferes with everything live after it, except
that a ``mv d, s`` does not make ``d`` and ``s`` interfere (they hold
the same value at that point).

This reproduces what LLVM's register coalescer does before the paper's
analysis runs, and matters for fidelity: without it, every compiler-
generated copy chain would inflate the "inferrable bits" row of
Table III with equivalences a production compiler's code simply does
not contain.
"""

from repro.ir.function import Function
from repro.ir.instructions import Opcode
from repro.ir.liveness import compute_liveness


class _Coalescer:
    def __init__(self, function):
        self.function = function
        self.parent = {}
        self.neighbors = {}

    def find(self, reg):
        root = reg
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(reg, reg) != root:
            self.parent[reg], reg = root, self.parent[reg]
        return root

    def _ensure(self, reg):
        self.neighbors.setdefault(reg, set())

    def add_edge(self, a, b):
        if a == b:
            return
        self._ensure(a)
        self._ensure(b)
        self.neighbors[a].add(b)
        self.neighbors[b].add(a)

    def interferes(self, a, b):
        return b in self.neighbors.get(a, ())

    def union(self, a, b, prefer=None):
        """Merge classes of *a* and *b*; *prefer* wins as representative."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if prefer is not None:
            root, child = (ra, rb) if ra == prefer else (rb, ra)
        else:
            root, child = ra, rb
        self.parent[child] = root
        self._ensure(root)
        merged = self.neighbors.pop(child, set())
        for other in merged:
            self.neighbors[other].discard(child)
            self.neighbors[other].add(root)
            self.neighbors[root].add(other)


#: Coalescing rounds :func:`coalesce_copies` runs at most.
MAX_ROUNDS = 4


def coalesce_copies(function):
    """Return a new finalized function with copies coalesced away.

    Coalescing one copy can expose further coalescable copies (chains),
    so up to :data:`MAX_ROUNDS` rounds run until nothing changes.
    """
    current = function
    for _ in range(MAX_ROUNDS):
        replacement, changed = _coalesce_once(current)
        if not changed:
            return current
        current = replacement
    return current


def _coalesce_once(function):
    liveness = compute_liveness(function)
    coalescer = _Coalescer(function)
    params = set(function.params)

    # Parameters are all live on entry: they interfere pairwise.
    param_list = sorted(params)
    for index, a in enumerate(param_list):
        for b in param_list[index + 1:]:
            coalescer.add_edge(a, b)

    for instruction in function.instructions:
        live_after = liveness.live_after(instruction.pp)
        is_copy = instruction.opcode is Opcode.MV
        for defined in instruction.data_writes():
            for live in live_after:
                if live == defined:
                    continue
                if is_copy and live == instruction.rs1:
                    continue          # d and s hold the same value here
                coalescer.add_edge(defined, live)

    changed = False
    for instruction in function.instructions:
        if instruction.opcode is not Opcode.MV:
            continue
        destination = coalescer.find(instruction.rd)
        source = coalescer.find(instruction.rs1)
        if destination == source:
            changed = True            # collapses to mv x, x; dropped below
            continue
        if coalescer.interferes(destination, source):
            continue
        prefer = None
        if destination in params:
            prefer = destination
        elif source in params:
            prefer = source
        coalescer.union(destination, source, prefer=prefer)
        changed = True

    if not changed:
        return function, False

    replacement = Function(function.name, bit_width=function.bit_width,
                           params=tuple(coalescer.find(p)
                                        for p in function.params))
    for block in function.blocks:
        new_block = replacement.new_block(block.label)
        for instruction in block.instructions:
            clone = instruction.copy()
            for field in ("rd", "rs1", "rs2"):
                reg = getattr(clone, field)
                if reg is not None:
                    setattr(clone, field, coalescer.find(reg))
            if clone.opcode is Opcode.MV and clone.rd == clone.rs1:
                continue
            new_block.append(clone)
    replacement.compact()
    return replacement.finalize(), True
