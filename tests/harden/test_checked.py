"""The hardening validity rule, enforced on every path that builds a
hardened variant.

:func:`repro.harden.harden_checked` accepts a hardened program only when
its fault-free run finishes ``ok`` and, with inserted instructions
dropped, retraces the original golden path.  Sweep cells, ``repro
campaign --harden``, ``repro harden`` and the evaluation harness all go
through it, so a transform that changed fault-free behaviour can never
be archived, reported or compared.
"""

import pytest

from repro.cli import main
from repro.errors import AnalysisError, SimulationError
from repro.fi.machine import Machine
from repro.harden import harden_checked
from repro.harden.evaluate import run_variant, strided_plan
from repro.harden.transform import HardenResult
from repro.ir.parser import parse_function
from repro.store import ResultStore, parse_spec, run_sweep

LOOP_MC = """
int main() {
    int total = 0;
    for (int i = 1; i <= 4; i++) total += i * 3;
    out(total);
    return total;
}
"""

LOAD_IR = """
func f width=32
bb.entry:
    li a, 128
    lw b, 0(a)
    out b
    ret b
"""


@pytest.fixture
def loop_mc(tmp_path):
    path = tmp_path / "loop.mc"
    path.write_text(LOOP_MC)
    return str(path)


@pytest.fixture
def never_projects(monkeypatch):
    """Make every hardened golden run look like it left the original
    path."""
    monkeypatch.setattr(HardenResult, "projected_path",
                        lambda self, trace: [])


class TestHardenChecked:
    def test_sound_variant_is_returned_with_its_golden(
            self, motivating_function, motivating_golden, motivating_bec):
        result, machine, golden = harden_checked(
            motivating_function, "bec", motivating_golden,
            bec=motivating_bec, memory_size=256)
        assert machine.function is result.function
        assert golden.outcome == "ok"
        assert golden.outputs == motivating_golden.outputs
        assert result.projected_path(golden) == motivating_golden.executed

    def test_failing_golden_run_is_rejected(self):
        function = parse_function(LOAD_IR)
        golden = Machine(function, memory_size=256).run()
        assert golden.outcome == "ok"
        # Too little memory for the load: the hardened run traps.
        with pytest.raises(SimulationError, match="golden run failed"):
            harden_checked(function, "full", golden, memory_size=64)

class TestNonProjectingVariantRejected:
    """With ``projected_path`` broken, every front door refuses the
    variant instead of running campaigns on it."""

    def test_sweep_cell_fails_and_archives_nothing(self, loop_mc,
                                                   tmp_path,
                                                   never_projects):
        spec = parse_spec({"grid": {"kernels": [loop_mc],
                                    "harden": ["full"]},
                           "engine": {"max_runs": 30}}, name="reject")
        with ResultStore(str(tmp_path / "store.sqlite")) as store:
            report = run_sweep(spec, store)
            assert len(store) == 0
        (outcome,) = report.outcomes
        assert outcome.error.startswith("AnalysisError:")
        assert "does not project" in outcome.error
        assert report.cells_failed == 1

    def test_campaign_harden_exits(self, loop_mc, never_projects):
        with pytest.raises(SystemExit, match="does not project"):
            main(["campaign", loop_mc, "--harden", "bec",
                  "--execute", "20"])

    def test_harden_command_exits(self, loop_mc, never_projects):
        with pytest.raises(SystemExit, match="does not project"):
            main(["harden", loop_mc, "--strategy", "full"])

    def test_run_variant_raises(self, motivating_function,
                                motivating_golden, never_projects):
        plan = strided_plan(motivating_function, motivating_golden, 20)
        with pytest.raises(AnalysisError, match="does not project"):
            run_variant(motivating_function, "full", plan,
                        motivating_golden, memory_size=256)
