"""Soundness of every abstract transfer function.

The key property (exhaustively checked at width 4): for every abstract
operand pair and every pair of concrete values in their concretizations,
the concrete result of the operation lies in the concretization of the
abstract result.  This is the γ-soundness that makes the bit-value
analysis (and everything built on it) trustworthy.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.ir.concrete import alu, unary as concrete_unary
from repro.ir.instructions import Opcode
from repro.bitvalue.lattice import BitVector
from repro.bitvalue.transfer import (abstract_branch, transfer_binary,
                                     transfer_unary)

WIDTH = 4

BINARY_OPCODES = [
    Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.SLL, Opcode.SRL, Opcode.SRA, Opcode.SLT, Opcode.SLTU,
    Opcode.MUL, Opcode.MULHU, Opcode.DIV, Opcode.DIVU, Opcode.REM,
    Opcode.REMU,
]
UNARY_OPCODES = [Opcode.MV, Opcode.NOT, Opcode.NEG, Opcode.SEQZ,
                 Opcode.SNEZ]
BRANCH_OPCODES = [Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE,
                  Opcode.BLTU, Opcode.BGEU]


def all_vectors(width=WIDTH):
    """Every bottom-free abstract vector at *width* (3^width of them)."""
    vectors = []
    for combo in itertools.product("01x", repeat=width):
        ones = zeros = 0
        for index, kind in enumerate(combo):
            if kind == "1":
                ones |= 1 << index
            elif kind == "0":
                zeros |= 1 << index
        vectors.append(BitVector(width, ones=ones, zeros=zeros))
    return vectors


ALL_VECTORS = all_vectors()


def concretize(vector):
    """All concrete values represented by *vector*."""
    unknown = [i for i in range(vector.width)
               if not (vector.known & (1 << i))]
    base = vector.ones
    values = []
    for assignment in range(1 << len(unknown)):
        value = base
        for position, index in enumerate(unknown):
            if assignment & (1 << position):
                value |= 1 << index
        values.append(value)
    return values


def contains(vector, value):
    """Is *value* in the concretization of *vector*?"""
    if vector.has_bottom:
        return False
    return (value & vector.ones) == vector.ones and \
        (value & vector.zeros) == 0


# A thinned-out but systematic sample: all pairs would be 81^2 * 16
# concrete combinations per opcode; sampling every vector against a
# fixed diverse set keeps the exhaustive spirit at ~1s per opcode.
PROBE_VECTORS = [
    BitVector.const(WIDTH, value) for value in (0, 1, 7, 8, 15)
] + [
    BitVector.top(WIDTH),
    BitVector.from_string("000x"),
    BitVector.from_string("x111"),
    BitVector.from_string("0xx0"),
    BitVector.from_string("1x0x"),
]


@pytest.mark.parametrize("opcode", BINARY_OPCODES,
                         ids=lambda opcode: opcode.value)
def test_binary_transfer_sound(opcode):
    for a in ALL_VECTORS:
        for b in PROBE_VECTORS:
            abstract = transfer_binary(opcode, a, b)
            for x in concretize(a):
                for y in concretize(b):
                    result = alu(opcode, x, y, WIDTH)
                    assert contains(abstract, result), (
                        f"{opcode.value}: {a}({x}) op {b}({y}) = "
                        f"{result:04b} not in {abstract}")


@pytest.mark.parametrize("opcode", UNARY_OPCODES,
                         ids=lambda opcode: opcode.value)
def test_unary_transfer_sound(opcode):
    for a in ALL_VECTORS:
        abstract = transfer_unary(opcode, a)
        for x in concretize(a):
            result = concrete_unary(opcode, x, WIDTH)
            assert contains(abstract, result)


@pytest.mark.parametrize("opcode", BRANCH_OPCODES,
                         ids=lambda opcode: opcode.value)
def test_abstract_branch_sound(opcode):
    from repro.ir.concrete import branch_taken
    for a in ALL_VECTORS:
        for b in PROBE_VECTORS:
            decision = abstract_branch(opcode, a, b)
            if decision is None:
                continue
            for x in concretize(a):
                for y in concretize(b):
                    assert branch_taken(opcode, x, y, WIDTH) is decision


@pytest.mark.parametrize("opcode", [Opcode.ADD, Opcode.SUB],
                         ids=lambda opcode: opcode.value)
def test_add_sub_are_exact(opcode):
    """Every bit the concrete results agree on is known: the carry
    tracking loses nothing (checked over all operand pairs)."""
    full = (1 << WIDTH) - 1
    for a in ALL_VECTORS:
        for b in ALL_VECTORS:
            ones, zeros = full, full
            for x in concretize(a):
                for y in concretize(b):
                    result = alu(opcode, x, y, WIDTH)
                    ones &= result
                    zeros &= ~result
            abstract = transfer_binary(opcode, a, b)
            assert (abstract.ones, abstract.zeros) == (ones, zeros & full), \
                f"{opcode.value}: {a} op {b} gave {abstract}"


class TestAndTable:
    """Paper Fig. 3c: the abstract bit-wise and."""

    def test_known_zero_dominates(self):
        a = BitVector.from_string("xxxx")
        b = BitVector.from_string("0000")
        assert str(transfer_binary(Opcode.AND, a, b)) == "0000"

    def test_known_one_passes_through(self):
        a = BitVector.from_string("x01x")
        b = BitVector.from_string("1111")
        assert str(transfer_binary(Opcode.AND, a, b)) == "x01x"

    def test_motivating_andi(self):
        """andi v2, v1, 1 with v1 unknown yields 000x (paper Fig. 2b)."""
        a = BitVector.top(4)
        b = BitVector.const(4, 1)
        assert str(transfer_binary(Opcode.AND, a, b)) == "000x"


class TestShiftPrecision:
    def test_constant_shift_exact(self):
        a = BitVector.from_string("x01x")
        b = BitVector.const(4, 1)
        assert str(transfer_binary(Opcode.SLL, a, b)) == "01x0"
        assert str(transfer_binary(Opcode.SRL, a, b)) == "0x01"

    def test_unknown_shift_min_amount(self):
        a = BitVector.top(4)
        b = BitVector.from_string("xx1x")   # at least 2
        assert str(transfer_binary(Opcode.SLL, a, b)) == "xx00"


class TestComparisons:
    def test_decided_by_ranges(self):
        small = BitVector.from_string("00xx")     # 0..3
        large = BitVector.from_string("1xxx")     # 8..15
        assert transfer_binary(Opcode.SLTU, small, large).value == 1
        assert transfer_binary(Opcode.SLTU, large, small).value == 0

    def test_undecided_gives_boolean_shape(self):
        top = BitVector.top(4)
        result = transfer_binary(Opcode.SLT, top, top)
        assert str(result) == "000x"

    def test_seqz_of_known_nonzero(self):
        value = BitVector.from_string("xx1x")
        assert transfer_unary(Opcode.SEQZ, value).value == 0


class TestBottomPropagation:
    @given(st.sampled_from(BINARY_OPCODES))
    def test_bottom_operand_defers(self, opcode):
        bottom = BitVector.bottom(WIDTH)
        top = BitVector.top(WIDTH)
        assert transfer_binary(opcode, bottom, top).has_bottom
        assert transfer_binary(opcode, top, bottom).has_bottom


def _refinements(vector):
    """All vectors obtained by fixing one unknown bit of *vector* —
    i.e. the immediate lattice predecessors (more information)."""
    refined = []
    for index in range(vector.width):
        probe = 1 << index
        if vector.known & probe or vector.bot & probe:
            continue
        refined.append(BitVector(vector.width, ones=vector.ones | probe,
                                 zeros=vector.zeros))
        refined.append(BitVector(vector.width, ones=vector.ones,
                                 zeros=vector.zeros | probe))
    return refined


@pytest.mark.parametrize("opcode", BINARY_OPCODES,
                         ids=lambda opcode: opcode.value)
def test_binary_transfer_monotone(opcode):
    """Refining an operand may only refine (or keep) the result.

    Monotonicity is what guarantees the global fix point exists and the
    iteration terminates (paper §V cites Kam–Ullman / Knaster–Tarski);
    an accidental non-monotone transfer would make the analysis order-
    dependent.  Checked over every abstract vector against the probe
    set, in both operand positions.
    """
    for a in ALL_VECTORS:
        for b in PROBE_VECTORS:
            coarse = transfer_binary(opcode, a, b)
            for fine_a in _refinements(a):
                fine = transfer_binary(opcode, fine_a, b)
                assert fine.le(coarse), (
                    f"{opcode.value}: refining {a} -> {fine_a} coarsened "
                    f"{coarse} -> {fine}")
            for fine_b in _refinements(b):
                fine = transfer_binary(opcode, a, fine_b)
                assert fine.le(coarse)


@pytest.mark.parametrize("opcode", UNARY_OPCODES,
                         ids=lambda opcode: opcode.value)
def test_unary_transfer_monotone(opcode):
    for a in ALL_VECTORS:
        coarse = transfer_unary(opcode, a)
        for fine_a in _refinements(a):
            assert transfer_unary(opcode, fine_a).le(coarse)
