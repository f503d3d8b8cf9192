"""Tests for the sweep spec and orchestrator (repro.store.sweep)."""

import json

import pytest

from repro.store import (ResultStore, SweepSpecError, load_spec,
                         parse_spec, run_sweep)

TINY_IR = """
func f width=4
bb.entry:
    li a, 7
    andi b, a, 1
    out b
    ret b
"""

LOOP_MC = """
int main() {
    int total = 0;
    for (int i = 1; i <= 3; i++) total += i;
    out(total);
    return total;
}
"""


@pytest.fixture
def tiny_ir(tmp_path):
    path = tmp_path / "tiny.ir"
    path.write_text(TINY_IR)
    return str(path)


@pytest.fixture
def loop_mc(tmp_path):
    path = tmp_path / "loop.mc"
    path.write_text(LOOP_MC)
    return str(path)


@pytest.fixture
def store(tmp_path):
    with ResultStore(str(tmp_path / "sweep.sqlite")) as opened:
        yield opened


def spec_for(kernels, **overrides):
    grid = {"kernels": kernels, "modes": ["bec"], "harden": ["none"],
            "cores": ["threaded"]}
    grid.update({key: value for key, value in overrides.items()
                 if key in ("modes", "harden", "budgets", "cores")})
    engine = {key: value for key, value in overrides.items()
              if key in ("workers", "checkpoint_interval", "prune",
                         "max_runs", "batch_lanes")}
    return parse_spec({"grid": grid, "engine": engine}, name="test")


class TestSpec:
    def test_defaults(self):
        spec = parse_spec({"grid": {"kernels": ["bitcount"]}})
        assert spec.modes == ["bec"]
        assert spec.harden == ["none"]
        assert spec.cores == ["threaded"]
        assert spec.workers == 1
        assert spec.max_runs is None

    def test_budget_collapses_for_unhardened_cells(self):
        spec = parse_spec({"grid": {
            "kernels": ["k"], "harden": ["none", "bec"],
            "budgets": [0.3, 0.6]}})
        cells = spec.cells()
        unhardened = [cell for cell in cells if cell.harden == "none"]
        hardened = [cell for cell in cells if cell.harden == "bec"]
        assert len(unhardened) == 1
        assert unhardened[0].budget is None
        assert [cell.budget for cell in hardened] == [0.3, 0.6]

    def test_grid_is_a_product(self):
        spec = parse_spec({"grid": {
            "kernels": ["a", "b"], "modes": ["bec", "ior"],
            "cores": ["threaded", "reference"]}})
        assert len(spec.cells()) == 8

    @pytest.mark.parametrize("broken", [
        {},
        {"grid": {"kernels": []}},
        {"grid": {"kernels": ["k"], "modes": ["sideways"]}},
        {"grid": {"kernels": ["k"], "harden": ["armor"]}},
        {"grid": {"kernels": ["k"], "cores": ["quantum"]}},
        {"grid": {"kernels": ["k"], "budgets": [-1.0]}},
        {"grid": {"kernels": ["k"], "typo": True}},
        {"grid": {"kernels": ["k"]}, "engine": {"typo": 1}},
        {"grid": {"kernels": ["k"]}, "engine": {"max_runs": 0}},
        {"grid": {"kernels": ["k"]}, "engine": {"prune": "psychic"}},
        {"grid": {"kernels": ["k"]}, "typo": {}},
    ])
    def test_validation(self, broken):
        with pytest.raises(SweepSpecError):
            parse_spec(broken)

    def test_load_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(
            {"grid": {"kernels": ["bitcount"]}}))
        spec = load_spec(str(path))
        assert spec.kernels == ["bitcount"]
        assert spec.name == "spec"

    def test_kernel_args_form(self):
        spec = parse_spec({"grid": {"kernels": [
            "bitcount", {"path": "acc.mc", "args": [25]}]}})
        assert spec.kernels == ["bitcount", "acc.mc(25)"]
        ref = spec.kernel_refs["acc.mc(25)"]
        assert ref.target == "acc.mc"
        assert ref.args == (25,)

    @pytest.mark.parametrize("entry", [
        {"args": [1]},                       # no path
        {"path": "a.mc", "args": "25"},      # args not a list
        {"path": "a.mc", "args": [True]},    # bools are not ints here
        {"path": "a.mc", "typo": 1},
        42,
        "",
    ])
    def test_kernel_entry_validation(self, entry):
        with pytest.raises(SweepSpecError):
            parse_spec({"grid": {"kernels": [entry]}})

    def test_load_toml(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        del tomllib
        path = tmp_path / "grid.toml"
        path.write_text('[grid]\nkernels = ["bitcount"]\n'
                        'modes = ["bec", "ior"]\n'
                        '[engine]\nmax_runs = 10\n')
        spec = load_spec(str(path))
        assert spec.kernels == ["bitcount"]
        assert spec.modes == ["bec", "ior"]
        assert spec.max_runs == 10
        assert spec.name == "grid"


class TestSweep:
    def test_warm_store_reruns_zero_cells(self, tiny_ir, store):
        """The PR's acceptance criterion: a warm store re-simulates
        nothing."""
        spec = spec_for([tiny_ir], modes=["bec", "exhaustive"],
                        max_runs=60)
        cold = run_sweep(spec, store)
        assert cold.simulator_runs > 0
        assert cold.cells_run == cold.cells_total == 2
        warm = run_sweep(spec, store)
        assert warm.simulator_runs == 0
        assert warm.cells_run == 0
        assert warm.cells_cached == warm.cells_total == 2
        for before, after in zip(cold.outcomes, warm.outcomes):
            assert before.key == after.key
            assert before.effects == after.effects
            assert before.distinct_traces == after.distinct_traces

    def test_interrupted_sweep_resumes(self, tiny_ir, store):
        """Only cells missing from the store are executed."""
        small = spec_for([tiny_ir], modes=["bec"], max_runs=60)
        run_sweep(small, store)
        grown = spec_for([tiny_ir], modes=["bec", "exhaustive"],
                         max_runs=60)
        resumed = run_sweep(grown, store)
        assert resumed.cells_cached == 1
        assert resumed.cells_run == 1

    def test_force_reexecutes_everything(self, tiny_ir, store):
        spec = spec_for([tiny_ir], max_runs=40)
        run_sweep(spec, store)
        forced = run_sweep(spec, store, force=True)
        assert forced.cells_run == forced.cells_total
        assert forced.simulator_runs > 0

    def test_mc_kernel_and_harden_axis(self, loop_mc, store):
        spec = spec_for([loop_mc], harden=["none", "full"], max_runs=40)
        report = run_sweep(spec, store)
        assert report.cells_total == 2
        hardened = report.outcomes[1]
        assert hardened.cell.harden == "full"
        assert hardened.overhead is not None
        assert hardened.overhead > 0

    def test_cores_are_distinct_cells_with_identical_aggregates(
            self, tiny_ir, store):
        spec = spec_for([tiny_ir], cores=["threaded", "reference"],
                        max_runs=40)
        report = run_sweep(spec, store)
        assert report.cells_run == 2
        threaded, reference = report.outcomes
        assert threaded.key != reference.key
        assert threaded.effects == reference.effects
        assert threaded.distinct_traces == reference.distinct_traces

    def test_report_json_and_markdown(self, tiny_ir, store):
        spec = spec_for([tiny_ir], max_runs=40)
        report = run_sweep(spec, store)
        data = report.to_json()
        json.dumps(data)    # must be JSON-safe
        assert data["kind"] == "sweep"
        assert data["totals"]["cells"] == 1
        assert data["totals"]["simulator_runs"] == report.simulator_runs
        (cell,) = data["cells"]
        assert cell["kernel"] == tiny_ir
        assert cell["cached"] is False
        assert cell["effects"]["sdc"] >= 0
        text = report.to_markdown()
        assert "| kernel |" in text
        assert tiny_ir in text
        assert "simulator runs" in report.summary()

    def test_progress_callback(self, tiny_ir, store):
        spec = spec_for([tiny_ir], modes=["bec", "ior"], max_runs=40)
        seen = []
        run_sweep(spec, store,
                  progress=lambda done, total, outcome:
                  seen.append((done, total, outcome.cell.mode)))
        assert seen == [(1, 2, "bec"), (2, 2, "ior")]

    def test_registry_kernel(self, store):
        spec = spec_for(["bitcount"], max_runs=20)
        report = run_sweep(spec, store)
        assert report.cells_total == 1
        assert report.outcomes[0].plan_runs == 20
        warm = run_sweep(spec, store)
        assert warm.simulator_runs == 0

    def test_mc_kernel_with_args(self, tmp_path, store):
        path = tmp_path / "acc.mc"
        path.write_text("int main(int n) { int a = 0; "
                        "for (int i = 0; i < n; i++) a += i; "
                        "out(a); return a; }")
        spec = parse_spec({"grid": {"kernels": [
            {"path": str(path), "args": [6]}]},
            "engine": {"max_runs": 40}}, name="args")
        report = run_sweep(spec, store)
        assert report.cells_run == 1
        assert report.outcomes[0].cell.kernel == f"{path}(6)"
        warm = run_sweep(spec, store)
        assert warm.simulator_runs == 0

    def test_mc_kernel_missing_args_fails_loudly(self, tmp_path, store):
        path = tmp_path / "needs.mc"
        path.write_text("int main(int n) { return n; }")
        spec = spec_for([str(path)], max_runs=10)
        with pytest.raises(ValueError):
            run_sweep(spec, store)

    def test_unknown_registry_kernel_raises(self, store):
        spec = spec_for(["not-a-kernel"], max_runs=10)
        with pytest.raises(KeyError):
            run_sweep(spec, store)


class TestSweepResilience:
    """Cell-level retries and continue-on-error: a flaky cell is
    re-attempted, a hopeless one is reported (not fatal) when the
    caller opts in, and the reports carry the failures."""

    def test_spec_parses_max_retries(self):
        spec = parse_spec({"grid": {"kernels": ["bitcount"]},
                           "engine": {"max_retries": 2}})
        assert spec.max_retries == 2
        assert parse_spec(
            {"grid": {"kernels": ["bitcount"]}}).max_retries == 0
        with pytest.raises(SweepSpecError):
            parse_spec({"grid": {"kernels": ["bitcount"]},
                        "engine": {"max_retries": -1}})

    def test_flaky_cell_is_retried(self, tiny_ir, store, monkeypatch):
        from repro.store.sweep import SweepRunner

        spec = spec_for([tiny_ir], max_runs=40)
        original = SweepRunner.run_cell
        calls = []

        def flaky(self, cell, progress=None):
            calls.append(cell.kernel)
            if len(calls) == 1:
                raise RuntimeError("transient (chaos)")
            return original(self, cell, progress=progress)

        monkeypatch.setattr(SweepRunner, "run_cell", flaky)
        report = run_sweep(spec, store, max_retries=2)
        assert len(calls) == 2
        assert report.cells_failed == 0
        assert report.cells_run == 1
        assert report.outcomes[0].error is None

    def test_exhausted_retries_raise_by_default(self, store):
        spec = spec_for(["not-a-kernel"], max_runs=10)
        with pytest.raises(KeyError):
            run_sweep(spec, store, max_retries=1)

    def test_continue_on_error_reports_failed_cells(self, tiny_ir,
                                                    store):
        spec = spec_for(["not-a-kernel", tiny_ir], max_runs=40)
        report = run_sweep(spec, store, continue_on_error=True)
        assert report.cells_failed == 1
        assert report.cells_run == 1
        failed, good = report.outcomes
        assert failed.error is not None
        assert "KeyError" in failed.error
        assert failed.key is None
        assert good.error is None
        assert good.effects

    def test_failed_cells_in_reports(self, tiny_ir, store):
        spec = spec_for(["not-a-kernel", tiny_ir], max_runs=40)
        report = run_sweep(spec, store, continue_on_error=True)
        data = report.to_json()
        json.dumps(data)
        assert data["totals"]["cells_failed"] == 1
        errors = [cell["error"] for cell in data["cells"]]
        assert sum(error is not None for error in errors) == 1
        text = report.to_markdown()
        assert "## Failed cells" in text
        assert "not-a-kernel" in text
        assert "1 cells FAILED" in report.summary()

    def test_failed_cell_is_retried_on_next_sweep(self, tiny_ir, store):
        """A failure archives nothing, so a later sweep re-attempts
        exactly the failed cell."""
        spec = spec_for(["not-a-kernel", tiny_ir], max_runs=40)
        run_sweep(spec, store, continue_on_error=True)
        again = run_sweep(spec, store, continue_on_error=True)
        assert again.cells_failed == 1
        assert again.cells_cached == 1


class TestCellDeadline:
    """Per-cell wall-clock deadlines (engine.max_wall_seconds and the
    --cell-timeout override)."""

    def test_spec_parses_max_wall_seconds(self):
        spec = parse_spec({"grid": {"kernels": ["bitcount"]},
                           "engine": {"max_wall_seconds": 300}})
        assert spec.max_wall_seconds == 300.0
        assert parse_spec(
            {"grid": {"kernels": ["bitcount"]}}).max_wall_seconds \
            is None

    @pytest.mark.parametrize("bad", [0, -5, "soon"])
    def test_invalid_max_wall_seconds_rejected(self, bad):
        with pytest.raises(SweepSpecError):
            parse_spec({"grid": {"kernels": ["bitcount"]},
                        "engine": {"max_wall_seconds": bad}})

    def test_runner_override_beats_the_spec(self, store):
        from repro.store.sweep import SweepRunner

        spec = parse_spec({"grid": {"kernels": ["bitcount"]},
                           "engine": {"max_wall_seconds": 300}})
        assert SweepRunner(spec, store).max_wall_seconds == 300.0
        assert SweepRunner(
            spec, store, max_wall_seconds=1.5).max_wall_seconds == 1.5

    def test_hanging_cell_times_out_as_a_cell_failure(
            self, tiny_ir, store, monkeypatch):
        import time as time_module

        from repro.fi.deadline import deadline_supported
        from repro.store.sweep import SweepRunner

        if not deadline_supported():
            pytest.skip("no SIGALRM on this platform")

        def hang(self, cell, progress=None):
            time_module.sleep(30.0)

        monkeypatch.setattr(SweepRunner, "run_cell", hang)
        spec = spec_for([tiny_ir], max_runs=10)
        report = run_sweep(spec, store, continue_on_error=True,
                           max_wall_seconds=0.2)
        assert report.cells_failed == 1
        assert "CellTimeout" in report.outcomes[0].error


class TestCappedPlans:
    """``engine.max_runs`` builds only the kept prefix of a cell's plan,
    and that prefix is byte-identical to slicing the whole plan — so
    content keys (and every store built before lazy planning) hold."""

    @staticmethod
    def _full_plan(mode, variant):
        from repro.fi.campaign import (plan_bec, plan_exhaustive,
                                       plan_inject_on_read)

        function, golden = variant["function"], variant["golden"]
        if mode == "bec":
            return plan_bec(function, golden, variant["bec"])
        if mode == "ior":
            return plan_inject_on_read(function, golden)
        return plan_exhaustive(function, golden)

    @pytest.mark.parametrize("mode", ["bec", "ior", "exhaustive"])
    def test_capped_plan_is_the_sliced_plan(self, loop_mc, store, mode):
        from repro.store.keys import plan_rows
        from repro.store.sweep import SweepRunner

        spec = spec_for([loop_mc], modes=[mode], max_runs=40)
        (cell,) = spec.cells()
        _machine, plan, variant = SweepRunner(spec, store).cell_setup(cell)
        full = self._full_plan(mode, variant)
        assert len(full) > 40
        assert plan_rows(plan) == plan_rows(full[:40])

    @pytest.mark.parametrize("mode, key", [
        ("bec", "06cf8ad154b1e90af5a9751c88db7f10"),
        ("ior", "f6fd637f6275ec995099b3a74327a21d"),
        ("exhaustive", "a56a56d5a25478eaaa4aefff7dbfe8d8"),
    ])
    def test_cell_keys_are_pinned(self, loop_mc, store, mode, key):
        """Keys recorded from the eager planners: a store they filled
        must still hit."""
        report = run_sweep(spec_for([loop_mc], modes=[mode], max_runs=40),
                           store)
        assert report.outcomes[0].key == key

    def test_capped_cell_walks_a_small_prefix(self, store, monkeypatch):
        import repro.fi.campaign
        from repro.store.sweep import SweepRunner

        walked = [0]
        walk = repro.fi.campaign.iter_bit_instances

        def counting(*args, **kwargs):
            for instance in walk(*args, **kwargs):
                walked[0] += 1
                yield instance

        monkeypatch.setattr(repro.fi.campaign, "iter_bit_instances",
                            counting)
        counts = {}
        for max_runs in (40, None):
            spec = spec_for(["bitcount"], max_runs=max_runs)
            (cell,) = spec.cells()
            walked[0] = 0
            _machine, plan, _variant = \
                SweepRunner(spec, store).cell_setup(cell)
            counts[max_runs] = walked[0]
        assert len(plan) > 40
        assert 0 < counts[40] < 0.05 * counts[None]
