"""The BEC result on the paper's motivating example (Fig. 2b).

Every orange/white box of the figure is asserted: which bits coalesce,
which are masked, and how many fault-injection runs each window needs.
"""

import pytest


class TestWindowClasses:
    """Distinct-class counts per window = injections needed (Fig. 2b)."""

    @pytest.mark.parametrize("pp,reg,expected", [
        (0, "v0", 4),    # li v0, 0: all four bits separate
        (1, "v1", 4),    # li v1, 7
        (2, "v1", 4), (3, "v1", 4), (4, "v1", 4), (9, "v1", 4),
        (2, "v2", 2),    # 000x: bits 1-3 tied + bit 0
        (5, "v2", 1),    # bits 1-3 masked by the and at p7
        (7, "v2", 4),
        (3, "v3", 3),    # 00xx: bits 2,3 tied
        (6, "v3", 1),    # bits 1-3 masked
        (8, "v0", 4),
    ])
    def test_distinct_classes(self, motivating_bec, pp, reg, expected):
        classes = set(motivating_bec.window_classes(pp, reg)) - {0}
        assert len(classes) == expected

    def test_v2_after_seqz_masked_bits(self, motivating_bec):
        assert [motivating_bec.is_masked(5, "v2", bit)
                for bit in range(4)] == [False, True, True, True]

    def test_v3_after_snez_masked_bits(self, motivating_bec):
        assert [motivating_bec.is_masked(6, "v3", bit)
                for bit in range(4)] == [False, True, True, True]

    def test_v2_bits_tied_after_andi(self, motivating_bec):
        classes = {motivating_bec.class_of(2, "v2", bit)
                   for bit in (1, 2, 3)}
        assert len(classes) == 1
        assert motivating_bec.class_of(2, "v2", 0) not in classes

    def test_v3_high_bits_tied_after_andi(self, motivating_bec):
        assert motivating_bec.class_of(3, "v3", 2) == \
            motivating_bec.class_of(3, "v3", 3)
        assert motivating_bec.class_of(3, "v3", 0) != \
            motivating_bec.class_of(3, "v3", 1)


class TestKilledWindows:
    def test_v3_after_and_masked(self, motivating_bec):
        # v3 read at p7 and dead afterwards: masked at initialization.
        for bit in range(4):
            assert motivating_bec.is_masked(7, "v3", bit)

    def test_v0_after_ret_masked(self, motivating_bec):
        for bit in range(4):
            assert motivating_bec.is_masked(10, "v0", bit)


class TestSummary:
    def test_static_summary(self, motivating_bec):
        summary = motivating_bec.summary()
        assert summary["bit_width"] == 4
        # 15 access windows x 4 bits: 12 killed, 48 live.
        assert summary["window_sites"] == 60
        assert summary["killed_window_sites"] == 12
        assert summary["live_window_sites"] == 48
        # 6 statically masked live sites: 3 at (p5,v2), 3 at (p6,v3).
        assert summary["masked_live_sites"] == 6

    def test_fixpoint_reached_quickly(self, motivating_bec):
        assert motivating_bec.coalescing.iterations <= 5

    def test_equivalent_query(self, motivating_bec):
        coalescing = motivating_bec.coalescing
        assert coalescing.class_of(2, "v2", 1) == \
            coalescing.class_of(2, "v2", 3)
        assert coalescing.class_of(2, "v2", 0) != \
            coalescing.class_of(2, "v2", 1)

    def test_masked_sites_listing(self, motivating_bec):
        coalescing = motivating_bec.coalescing
        assert coalescing.is_masked(5, "v2", 1)
        assert coalescing.is_masked(6, "v3", 3)
        assert not coalescing.is_masked(2, "v2", 0)
