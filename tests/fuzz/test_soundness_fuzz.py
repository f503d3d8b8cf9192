"""Differential soundness fuzzing (generalizes paper §V / Table II).

The paper validates BEC on eight benchmarks; here the same oracle —
exhaustive fault injection on the simulator — is run against *randomly
generated* programs:

* **bit-value soundness**: every register value observed during a
  concrete execution must be compatible with the abstract bits the
  global analysis computed for that program point;
* **coalescing soundness**: sites the analysis claims masked must leave
  the trace unchanged, and all members of one equivalence-class epoch
  must produce identical corrupted traces (zero "unsound" rows in the
  paper's Table II classification).
"""

from hypothesis import example, given, settings, strategies as st

from repro.bec.analysis import run_bec
from repro.bitvalue.analysis import compute_bit_values
from repro.fi.machine import Machine
from repro.fi.validate import validate_bec
from repro.ir.randgen import GeneratorConfig, generate_function, random_inputs
from tests.fi.reference import ReferenceMachine

#: Compact programs keep exhaustive injection per example affordable.
_SMALL = GeneratorConfig(width=4, registers=4, params=1, structures=2,
                         max_ops=3, max_loop_iterations=2)
_MEDIUM = GeneratorConfig(width=8, registers=5, params=2, structures=3,
                          max_ops=4)


def assert_bits_compatible(values, trace, log, seed):
    """Every concrete register value must refine the abstract one."""
    for pp, snapshot in zip(trace.executed, log):
        for reg, value in snapshot.items():
            abstract = values.after(pp, reg)
            assert abstract.ones & ~value == 0, \
                (seed, pp, reg, value, str(abstract))
            assert abstract.zeros & value == 0, \
                (seed, pp, reg, value, str(abstract))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_bit_value_analysis_is_sound(seed):
    function = generate_function(seed, _MEDIUM)
    values = compute_bit_values(function)
    machine = ReferenceMachine(function)
    for input_seed in (0, 1):
        trace, log = machine.run_with_register_log(
            regs=random_inputs(seed + input_seed, function),
            max_cycles=50_000)
        assert trace.outcome == "ok"
        assert_bits_compatible(values, trace, log, seed)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
# Seeds 1700 and 2254 tied bits of a register that survives its read
# (the coalescer's rule 3 counterexample).
@example(seed=1700)
@example(seed=2254)
def test_coalescing_is_sound_under_exhaustive_injection(seed):
    function = generate_function(seed, _SMALL)
    machine = Machine(function)
    regs = random_inputs(seed, function)
    golden = machine.run(regs=regs, max_cycles=50_000)
    assert golden.outcome == "ok"
    bec = run_bec(function)
    report = validate_bec(function, machine, bec, regs=regs, golden=golden)
    assert report.unsound_masked == 0, seed
    assert report.unsound_equivalences == 0, seed
    assert report.instances > 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_scheduling_random_programs_preserves_semantics(seed):
    """Any topological reordering of the DDG must keep observable
    behaviour; exercise it with the bit-level policy on random code."""
    from repro.sched.list_scheduler import schedule_function
    from repro.sched.policies import BestReliability

    function = generate_function(seed, _MEDIUM)
    bec = run_bec(function)
    scheduled = schedule_function(function, policy=BestReliability(),
                                  bec=bec)
    regs = random_inputs(seed, function)
    original = Machine(function).run(regs=regs, max_cycles=50_000)
    reordered = Machine(scheduled).run(regs=regs, max_cycles=50_000)
    assert original.outputs == reordered.outputs
    assert original.returned == reordered.returned
    assert original.stores == reordered.stores


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_memory_fault_pruning_is_sound(seed):
    """Every memory injection the BEC plan prunes must be masked or
    trace-identical to a kept injection (no vulnerability lost)."""
    from repro.fi.memory import plan_memory_bec, plan_memory_inject_on_read

    function = generate_function(seed, _SMALL)
    machine = Machine(function)
    regs = random_inputs(seed, function)
    golden = machine.run(regs=regs, max_cycles=50_000)
    assert golden.outcome == "ok"
    if not golden.loads:
        return
    bec = run_bec(function)
    full = plan_memory_inject_on_read(function, golden)[:256]
    kept = {(p.injection.cycle, p.injection.address, p.injection.bit)
            for p in plan_memory_bec(function, golden, bec)}
    kept_signatures = set()
    pruned_out = []
    for planned in full:
        key = (planned.injection.cycle, planned.injection.address,
               planned.injection.bit)
        injected = machine.run(regs=regs, injection=planned.injection,
                               max_cycles=50_000)
        if key in kept:
            kept_signatures.add(injected.signature())
        else:
            pruned_out.append(injected.signature())
    golden_signature = golden.signature()
    for signature in pruned_out:
        assert signature == golden_signature or \
            signature in kept_signatures, seed
