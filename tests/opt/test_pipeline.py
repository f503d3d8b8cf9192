"""Tests for the optimization level driver."""

import pytest

from repro.ir.parser import parse_function
from repro.opt import optimize


def test_level_zero_is_identity():
    function = parse_function("""
func f width=8 params=x
bb.entry:
    mv y, x
    addi r, y, 0
    ret r
""")
    assert optimize(function, level=0) is function


def test_unknown_level_rejected():
    function = parse_function(
        "func f width=8\nbb.entry:\n    li r, 1\n    ret r\n")
    for level in (2, 17):
        with pytest.raises(ValueError):
            optimize(function, level=level)
