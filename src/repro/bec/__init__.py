"""Bit-level error coalescing (BEC): the paper's primary contribution."""

from repro.bec.analysis import BECAnalysis, run_bec
from repro.bec.coalesce import CoalescingResult, coalesce
from repro.bec.equivalence import UnionFind
from repro.bec.intra import S0, intra_constraints
from repro.bec.sites import FaultSpace

__all__ = [
    "BECAnalysis",
    "CoalescingResult",
    "FaultSpace",
    "S0",
    "UnionFind",
    "coalesce",
    "intra_constraints",
    "run_bec",
]
