"""Tests for ``R'_q``, the local relation both BEC consumers share.

:class:`~repro.bec.coalesce.LocalRelation` closes one instruction's
constraint pairs.  The trace walker builds it unresolved and reads, for
each read port, the windows in the port's component (where a corruption
re-materializes) and whether the read provably masks it.  The coalescing
fixpoint builds the same relation with windows resolved to their R
classes.
"""

from repro.bec.coalesce import LocalRelation
from repro.bec.intra import intra_constraints
from repro.bitvalue.lattice import BitVector
from repro.ir.parser import parse_function


def _relation_of(body, values=None, width=4, params="params=x,y",
                 resolve=None):
    function = parse_function(
        f"func f width={width} {params}\nbb.entry:\n    {body}\n    ret x\n")
    instruction = function.instructions[0]
    before = dict(values or {})
    for reg in instruction.data_reads():
        before.setdefault(reg, BitVector.top(width))
    return LocalRelation(
        intra_constraints(instruction, before, width),
        resolve=resolve)


def _targets(relation, reg, bit):
    """Windows in the port's component, as the walker reads them."""
    return tuple(sorted(node[1:] for node in relation.component(reg, bit)
                        if node[0] == "win"))


def _flow(relation, reg, bit):
    return (_targets(relation, reg, bit),
            relation.port_directly_masked(reg, bit))


def _constrained(relation, reg, bit):
    """Does any pair mention the port?"""
    return len(relation.component(reg, bit)) > 1


class TestPropagation:
    def test_mv_maps_every_bit(self):
        relation = _relation_of("mv z, x")
        for bit in range(4):
            assert _flow(relation, "x", bit) == ((("z", bit),), False)

    def test_xor_maps_both_operands(self):
        relation = _relation_of("xor z, x, y")
        assert _targets(relation, "x", 2) == (("z", 2),)
        assert _targets(relation, "y", 2) == (("z", 2),)

    def test_constant_shift_relocates(self):
        relation = _relation_of("slli z, x, 2")
        assert _flow(relation, "x", 0) == ((("z", 2),), False)
        # The top bits shift out: masked, no target.
        assert _flow(relation, "x", 3) == ((), True)

    def test_srl_relocates_down(self):
        relation = _relation_of("srli z, x, 1")
        assert _targets(relation, "x", 3) == (("z", 2),)
        assert _flow(relation, "x", 0) == ((), True)


class TestMasking:
    def test_and_with_known_zero_masks(self):
        values = {"y": BitVector.from_string("0011")}
        relation = _relation_of("and z, x, y", values=values)
        assert _flow(relation, "x", 3) == ((), True)    # y bit 3 known 0
        assert _flow(relation, "x", 0) == ((("z", 0),), False)  # known 1

    def test_and_with_unknown_bit_neither(self):
        relation = _relation_of("and z, x, y")
        assert not _constrained(relation, "x", 1)   # no evidence either way
        assert _flow(relation, "x", 1) == ((), False)

    def test_or_with_known_one_masks(self):
        values = {"y": BitVector.from_string("1100")}
        relation = _relation_of("or z, x, y", values=values)
        assert _flow(relation, "x", 3) == ((), True)
        assert _flow(relation, "x", 0) == ((("z", 0),), False)


class TestEvalPorts:
    def test_branch_ports_have_no_window_targets(self):
        function = parse_function("""
func f width=4 params=x
bb.entry:
    beqz x, bb.target
bb.fall:
    ret x
bb.target:
    ret x
""")
        instruction = function.instructions[0]
        relation = LocalRelation(intra_constraints(
            instruction, {"x": BitVector.from_string("000x")}, 4))
        # Bits 1..3 tie to each other (same decided outcome) but to no
        # window, and they are not masked.
        for bit in (1, 2, 3):
            assert _flow(relation, "x", bit) == ((), False)
        roots = {relation.port_direct_root("x", bit) for bit in (1, 2, 3)}
        assert len(roots) == 1
        assert relation.port_direct_root("x", 0) not in roots


class TestArithmetic:
    def test_add_constrains_no_port(self):
        values = {"y": BitVector.from_string("1100")}
        relation = _relation_of("add z, x, y", values=values)
        assert not _constrained(relation, "x", 0)


class TestResolvedRelation:
    """The fixpoint's view: windows resolve to their R classes."""

    def test_windows_in_one_class_join_their_ports(self):
        # xor ties x^0 to z^0 and y^1 to z^1: two separate components.
        resolve_classes = {("win", "z", 0): 7, ("win", "z", 1): 7}

        def resolve(token):
            return resolve_classes.get(token, token)

        unresolved = _relation_of("xor z, x, y")
        assert ("port", "y", 1) not in unresolved.component("x", 0)

        resolved = _relation_of("xor z, x, y", resolve=resolve)
        # Both windows are class 7 in R, so R'_q ties the two ports.
        component = resolved.component("x", 0)
        assert ("port", "y", 1) in component
        assert 7 in component
        # Window evidence never enters the direct relation.
        assert resolved.port_direct_root("x", 0) != \
            resolved.port_direct_root("y", 1)

