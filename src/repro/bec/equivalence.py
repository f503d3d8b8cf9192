"""Disjoint-set (union-find) over fault indices.

The coalescing analysis only ever *merges* equivalence classes, so the
standard union-find with path compression and union by size implements
the paper's ``R[X]`` merge operation; monotonicity (and hence
termination by Knaster–Tarski) is structural.

Class ``[s0]`` is anchored: the representative of any class containing
site 0 is forced to 0, so ``find(x) == 0`` directly answers "is x
masked?".
"""


class UnionFind:
    def __init__(self, size):
        self._parent = list(range(size))
        self._size = [1] * size

    def find(self, node):
        parent = self._parent
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def union(self, a, b):
        """Merge the classes of *a* and *b*; returns True if they were
        previously distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        # Anchor the masked class at representative 0.
        if ra == 0:
            self._parent[rb] = 0
            self._size[0] += self._size[rb]
            return True
        if rb == 0:
            self._parent[ra] = 0
            self._size[0] += self._size[ra]
            return True
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return True

    def classes(self):
        """Map representative -> sorted list of members."""
        result = {}
        for node in range(len(self._parent)):
            result.setdefault(self.find(node), []).append(node)
        return result

    def __len__(self):
        return len(self._parent)
