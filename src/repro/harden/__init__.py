"""Selective software redundancy (SWIFT-style hardening).

The rest of the repository *measures* vulnerability against soft errors;
this package *reduces* it.  :func:`harden` rewrites a function so that
selected instructions are duplicated into shadow registers and
comparison checkers at synchronization points (stores, branches,
returns, outputs) trap with kind ``detected-fault`` when the two copies
disagree — converting would-be silent data corruptions into *detected*
faults a system can recover from.

Three protection strategies:

``none``
    No protection (the baseline; the transform is the identity).
``full``
    Every eligible value-producing instruction is duplicated — the
    classic SWIFT sphere of replication, maximum detection at roughly
    2x dynamic instruction overhead.
``bec``
    Selective protection guided by the BEC analysis: each candidate
    window is scored by its dynamic unmasked-bit vulnerability (the
    same per-window quantity behind :mod:`repro.sched.vulnerability`)
    and windows are protected greedily under a user-set dynamic
    instruction overhead budget (``budget=0.3`` means at most 30 %
    extra dynamic instructions).

Every consumer of a hardened variant (sweep cells, ``repro campaign
--harden``, ``repro harden`` and :mod:`repro.harden.evaluate`) builds it
through :func:`harden_checked`, which also runs the hardened golden
trace and enforces the validity rule every protection number rests on:
the fault-free run finishes ``ok`` and, with inserted instructions
dropped, retraces the original golden path.

The transform machinery lives in :mod:`repro.harden.transform`, the
budget selection in :mod:`repro.harden.select` and the end-to-end
fault-injection evaluation harness in :mod:`repro.harden.evaluate`.
"""

from repro.errors import AnalysisError, SimulationError
from repro.fi.machine import Machine
from repro.harden.select import eligible_pps, select_bec
from repro.harden.transform import HardenResult, harden_function

#: Protection strategies understood by :func:`harden` and the CLI.
STRATEGIES = ("none", "full", "bec")


def harden(function, strategy="bec", budget=0.3, golden=None, bec=None):
    """Harden *function* with the given *strategy*; returns a
    :class:`HardenResult`.

    ``bec`` needs the original function's *golden* trace (dynamic
    execution counts drive both the vulnerability score and the
    overhead budget); the BEC analysis is computed on demand when not
    supplied.  ``none`` and ``full`` need neither.
    """
    if strategy == "none":
        protected = frozenset()
    elif strategy == "full":
        protected = frozenset(eligible_pps(function))
    elif strategy == "bec":
        if golden is None:
            raise AnalysisError(
                "strategy 'bec' needs the golden trace of the original "
                "function (dynamic counts drive selection)")
        if bec is None:
            from repro.bec.analysis import run_bec
            bec = run_bec(function)
        protected = select_bec(function, golden, bec, budget=budget)
    else:
        raise AnalysisError(
            f"unknown hardening strategy {strategy!r}; "
            f"choose from {STRATEGIES}")
    return harden_function(function, protected)


def harden_checked(function, strategy, golden, budget=0.3, bec=None,
                   regs=None, memory_image=None, memory_size=1 << 16,
                   core="threaded"):
    """Harden *function* and run the hardened golden trace; returns
    ``(result, machine, hardened_golden)``.

    *golden* is the original function's golden trace.  Raises
    :class:`~repro.errors.SimulationError` when the hardened golden run
    does not finish ``ok``, and :class:`~repro.errors.AnalysisError`
    when its projected path differs from ``golden.executed`` — a
    transform that changed fault-free behaviour must never reach a
    campaign.
    """
    result = harden(function, strategy, budget=budget, golden=golden,
                    bec=bec)
    machine = Machine(result.function, memory_size=memory_size,
                      memory_image=memory_image, core=core)
    hardened_golden = machine.run(regs=regs)
    if hardened_golden.outcome != "ok":
        raise SimulationError(
            f"hardened golden run failed: {hardened_golden.outcome} "
            f"({hardened_golden.trap_kind or ''})")
    projected = result.projected_path(hardened_golden)
    if projected != golden.executed:
        raise AnalysisError(
            f"internal error: hardened run does not project onto the "
            f"original golden path ({strategy}: {len(projected)} vs "
            f"{len(golden.executed)} original instructions)")
    return result, machine, hardened_golden


__all__ = ["STRATEGIES", "HardenResult", "harden", "harden_checked",
           "harden_function", "eligible_pps", "select_bec"]
