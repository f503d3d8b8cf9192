"""Tests for the union-find over fault indices."""

from hypothesis import given, strategies as st

from repro.bec.equivalence import UnionFind


class TestBasics:
    def test_initially_disjoint(self):
        uf = UnionFind(5)
        assert uf.find(1) != uf.find(2)

    def test_union_merges(self):
        uf = UnionFind(5)
        assert uf.union(1, 2) is True
        assert uf.find(1) == uf.find(2)

    def test_union_idempotent(self):
        uf = UnionFind(5)
        uf.union(1, 2)
        assert uf.union(2, 1) is False

    def test_transitivity(self):
        uf = UnionFind(6)
        uf.union(1, 2)
        uf.union(2, 3)
        assert uf.find(1) == uf.find(3)

    def test_classes(self):
        uf = UnionFind(4)
        uf.union(1, 2)
        classes = uf.classes()
        assert sorted(map(sorted, classes.values())) == [[0], [1, 2], [3]]


class TestMaskedAnchor:
    """Class [s0] must always be represented by node 0."""

    def test_union_with_zero_anchors(self):
        uf = UnionFind(5)
        uf.union(3, 0)
        assert uf.find(3) == 0

    def test_transitive_anchor(self):
        uf = UnionFind(6)
        uf.union(1, 2)
        uf.union(3, 4)
        uf.union(2, 3)
        uf.union(0, 4)
        for node in (1, 2, 3, 4):
            assert uf.find(node) == 0

    @given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)),
                    max_size=50))
    def test_anchor_invariant_random(self, unions):
        uf = UnionFind(20)
        for a, b in unions:
            uf.union(a, b)
        assert uf.find(0) == 0
        for node in range(20):
            assert (uf.find(node) == uf.find(0)) == (uf.find(node) == 0)

    @given(st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)),
                    max_size=40))
    def test_equivalence_relation_properties(self, unions):
        uf = UnionFind(15)
        for a, b in unions:
            uf.union(a, b)
        for a, b in unions:
            assert uf.find(a) == uf.find(b)   # requested merges hold
        classes = uf.classes()
        members = [m for group in classes.values() for m in group]
        assert sorted(members) == list(range(15))   # partition
