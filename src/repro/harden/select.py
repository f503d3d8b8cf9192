"""Choosing which windows to protect under an overhead budget.

Full duplication buys maximum detection for roughly 2x dynamic
instructions.  The BEC analysis makes a much better deal available:
per-window bit-level maskedness tells us which values *cannot* turn a
fault into an observable effect, and the golden trace tells us how long
each window's fault exposure actually lasts.  The product — unmasked
bits x live cycles, summed per defining instruction — is exactly the
per-window share of the paper's spatio-temporal fault surface
(:mod:`repro.sched.vulnerability`), and it is the score this module
ranks protection candidates by.

:func:`select_bec` then packs candidates greedily (highest vulnerability
per duplicated dynamic instruction first) while the *exact* predicted
overhead — duplicates, checkers and parameter inits, all weighted by
golden-trace execution counts via
:func:`repro.harden.transform.static_overhead` — stays within the
user's budget.
"""

from collections import Counter

from repro.harden.transform import is_eligible, static_overhead

__all__ = ["eligible_pps", "select_bec", "vulnerability_benefit"]


def eligible_pps(function):
    """Program points of all value-producing (duplicatable) instructions."""
    return [instruction.pp for instruction in function.instructions
            if is_eligible(instruction)]


def vulnerability_benefit(function, golden, bec):
    """Dynamic vulnerability score per eligible defining program point.

    Walking the golden trace, every cycle a register is live adds the
    unmasked-bit count of its current *defining* window to that
    definition's score — the definition's share of the program's
    spatio-temporal fault surface, i.e. the number of (cycle, bit)
    fault sites a shadow of this definition would watch over.
    """
    liveness = bec.liveness
    benefit = Counter()
    defpoint = {}
    eligible = set(eligible_pps(function))
    unmasked_cache = {}
    for pp in golden.executed:
        instruction = function.instruction_at(pp)
        for reg in instruction.data_writes():
            defpoint[reg] = pp
        for reg in liveness.live_after(pp):
            def_pp = defpoint.get(reg)
            if def_pp not in eligible:
                continue
            key = (def_pp, reg)
            unmasked = unmasked_cache.get(key)
            if unmasked is None:
                unmasked = unmasked_cache[key] = bec.unmasked_bits(def_pp,
                                                                   reg)
            benefit[def_pp] += unmasked
    return benefit


def select_bec(function, golden, bec, budget=0.3):
    """Greedy BEC-guided selection under a dynamic overhead *budget*.

    Returns a frozenset of program points to protect whose *exact*
    predicted overhead (duplication + checkers + entry inits) does not
    exceed ``budget * golden.cycles`` extra dynamic instructions.

    Selection runs in two granularities:

    1. **whole basic blocks**, ranked by vulnerability per duplicated
       dynamic instruction — protecting a block keeps its def-use
       chains shadow-connected, so one sync-point checker observes
       corruption from every window feeding it (detection coverage of a
       connected region is much better than the same budget scattered
       over isolated instructions);
    2. **individual instructions** as refinement, ranked the same way,
       filling whatever budget the block pass left.

    At both granularities a candidate that would burst the budget is
    skipped and cheaper candidates further down the ranking are still
    considered (greedy knapsack with exact cost re-evaluation).
    """
    if budget < 0:
        raise ValueError(f"overhead budget must be >= 0, got {budget}")
    benefit = vulnerability_benefit(function, golden, bec)
    exec_counts = Counter(golden.executed)
    allowed = budget * golden.cycles
    selected = set()

    def pack(candidates):
        """Greedy knapsack over (score, tiebreak, pps) candidates."""
        nonlocal selected
        for _, _, pps in candidates:
            trial = selected | pps
            if trial != selected \
                    and static_overhead(function, trial,
                                        exec_counts) <= allowed:
                selected = trial

    block_candidates = []
    for block in function.blocks:
        pps = frozenset(
            instruction.pp for instruction in block.instructions
            if is_eligible(instruction)
            and benefit.get(instruction.pp, 0) > 0)
        score = sum(benefit[pp] for pp in pps)
        cost = sum(exec_counts.get(pp, 0) for pp in pps)
        if score > 0 and cost > 0:
            block_candidates.append((-score / cost, block.index, pps))
    block_candidates.sort()
    pack(block_candidates)

    instruction_candidates = sorted(
        (-benefit[pp] / exec_counts[pp], pp, frozenset((pp,)))
        for pp in eligible_pps(function)
        if pp not in selected
        and benefit.get(pp, 0) > 0 and exec_counts.get(pp, 0) > 0)
    pack(instruction_candidates)
    return frozenset(selected)
