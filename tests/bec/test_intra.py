"""Tests for the intra-instruction coalescing rules (Algorithm 3)."""

from repro.ir.parser import parse_instruction
from repro.bitvalue.lattice import BitVector
from repro.bec.intra import S0, intra_constraints, port, window

WIDTH = 4


def constraints(text, values=None):
    instruction = parse_instruction(text)
    before = {reg: BitVector.from_string(bits)
              for reg, bits in (values or {}).items()}
    return set(map(frozenset, intra_constraints(instruction, before, WIDTH)))


def pair(a, b):
    return frozenset((a, b))


class TestUnconditionalPropagation:
    def test_mv_ties_all_bits(self):
        pairs = constraints("mv z, x")
        assert pairs == {pair(port("x", i), window("z", i))
                         for i in range(WIDTH)}

    def test_not_ties_all_bits(self):
        pairs = constraints("not z, x")
        assert pair(port("x", 2), window("z", 2)) in pairs

    def test_xor_ties_both_operands(self):
        pairs = constraints("xor z, x, y")
        assert pair(port("x", 0), window("z", 0)) in pairs
        assert pair(port("y", 0), window("z", 0)) in pairs
        assert len(pairs) == 2 * WIDTH

    def test_xor_same_operand_is_masked(self):
        # xor z, x, x computes 0: a fault in x is invisible through it.
        pairs = constraints("xor z, x, x")
        assert pairs == {pair(port("x", i), S0) for i in range(WIDTH)}

    def test_xori_ties_register_operand(self):
        pairs = constraints("xori z, x, 5")
        assert pair(port("x", 3), window("z", 3)) in pairs


class TestAndOr:
    def test_and_known_zero_masks(self):
        pairs = constraints("and z, x, y", {"x": "xxxx", "y": "0000"})
        assert pair(port("x", 1), S0) in pairs

    def test_and_known_one_propagates(self):
        pairs = constraints("and z, x, y", {"x": "xxxx", "y": "1111"})
        assert pair(port("x", 1), window("z", 1)) in pairs

    def test_and_unknown_gives_nothing(self):
        pairs = constraints("and z, x, y", {"x": "xxxx", "y": "xxxx"})
        assert pairs == set()

    def test_andi_immediate(self):
        pairs = constraints("andi z, x, 1", {"x": "xxxx"})
        assert pair(port("x", 0), window("z", 0)) in pairs
        assert pair(port("x", 1), S0) in pairs
        assert pair(port("x", 2), S0) in pairs
        assert pair(port("x", 3), S0) in pairs

    def test_or_known_one_masks(self):
        pairs = constraints("or z, x, y", {"x": "xxxx", "y": "1111"})
        assert pair(port("x", 2), S0) in pairs

    def test_or_known_zero_propagates(self):
        pairs = constraints("ori z, x, 0", {"x": "xxxx"})
        assert pair(port("x", 2), window("z", 2)) in pairs

    def test_and_same_operand_acts_as_mv(self):
        pairs = constraints("and z, x, x", {"x": "xxxx"})
        assert pairs == {pair(port("x", i), window("z", i))
                         for i in range(WIDTH)}

    def test_masking_by_other_operand_both_sides(self):
        pairs = constraints("and z, x, y", {"x": "0000", "y": "xxxx"})
        assert pair(port("y", 0), S0) in pairs


class TestShifts:
    def test_srli_masks_shifted_out(self):
        pairs = constraints("srli z, x, 2", {"x": "xxxx"})
        assert pair(port("x", 0), S0) in pairs
        assert pair(port("x", 1), S0) in pairs
        assert pair(port("x", 2), window("z", 0)) in pairs
        assert pair(port("x", 3), window("z", 1)) in pairs

    def test_slli_masks_high_bits(self):
        pairs = constraints("slli z, x, 3", {"x": "xxxx"})
        assert pair(port("x", 0), window("z", 3)) in pairs
        assert pair(port("x", 1), S0) in pairs

    def test_register_shift_uses_min_amount(self):
        # y has bit 1 known one: shift amount is at least 2.
        pairs = constraints("sll z, x, y", {"x": "xxxx", "y": "xx1x"})
        assert pair(port("x", 2), S0) in pairs
        assert pair(port("x", 3), S0) in pairs
        # Not constant: no propagation ties.
        assert pair(port("x", 0), window("z", 2)) not in pairs

    def test_srai_sign_bit_excluded(self):
        pairs = constraints("srai z, x, 1", {"x": "xxxx"})
        assert pair(port("x", 3), window("z", 2)) not in pairs
        assert pair(port("x", 1), window("z", 0)) in pairs


class TestEvalRule:
    def test_beqz_ties_known_zero_bits(self):
        """The paper's Fig. 4: flipping any known-zero bit of m makes it
        nonzero, taking the same branch."""
        pairs = constraints("beqz m, somewhere", {"m": "000x"})
        assert pair(port("m", 1), port("m", 2)) in pairs or \
            pair(port("m", 2), port("m", 1)) in pairs
        tied = {frozenset(p) for p in pairs}
        assert pair(port("m", 1), port("m", 3)) in tied or \
            pair(port("m", 2), port("m", 3)) in tied

    def test_seqz_ties_like_paper_fig2(self):
        """seqz v2 with k(v2)=000x ties bits 1..3 (paper §III-A)."""
        pairs = constraints("seqz z, v2", {"v2": "000x"})
        ports = {frozenset(p) for p in pairs}
        count = sum(1 for p in ports
                    if all(token[0] == "port" for token in p))
        assert count == 2        # bits 1-2 and (1 or 2)-3 tied

    def test_no_ties_with_unknown_bits(self):
        pairs = constraints("beqz m, somewhere", {"m": "xxxx"})
        assert pairs == set()

    def test_snez_partially_known(self):
        """snez v3 with k=00xx ties only bits 2 and 3 (Fig. 2: 3 runs)."""
        pairs = constraints("snez z, v3", {"v3": "00xx"})
        assert pairs == {pair(port("v3", 2), port("v3", 3))}

    def test_branch_two_operands(self):
        pairs = constraints("blt a, b, target",
                            {"a": "0000", "b": "1000"})
        # Flipping any of a's low three bits keeps a < b.
        assert pair(port("a", 0), port("a", 1)) in pairs

    def test_eval_never_masks_against_baseline(self):
        # beqz on a known-nonzero value: flipping bit 0 keeps it nonzero,
        # the fault-free outcome, yet Algorithm 3's eval rule only ties
        # flipped bits to each other and never masks one.
        pairs = constraints("beqz m, somewhere", {"m": "0110"})
        assert pair(port("m", 0), S0) not in pairs


class TestArithmetic:
    def test_add_gives_no_pairs(self):
        # Algorithm 3 has no add rule, even when no carry can reach the
        # low bits.
        pairs = constraints("add z, x, y", {"x": "xxxx", "y": "xx00"})
        assert pairs == set()
