"""Tests for the sweep spec and orchestrator (repro.store.sweep)."""

import json
import os

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
                         "max_runs")}
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
            "cores": ["threaded", "batched"]}})
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
        {"grid": {"kernels": ["k"], "cores": ["reference"]}},
    ])
    def test_validation(self, broken):
        with pytest.raises(SweepSpecError):
            parse_spec(broken)

    def test_unknown_core_names_the_cores(self):
        # The reference interpreter is a test oracle, not a grid core.
        with pytest.raises(SweepSpecError,
                           match=r"\['threaded', 'batched'\]"):
            parse_spec({"grid": {"kernels": ["k"], "cores": ["reference"]}})

    @pytest.mark.parametrize("key", ["batch_lanes", "chunk_size"])
    def test_engine_constants_are_not_spec_keys(self, key):
        """Lane count and chunk size are engine constants, so a spec
        that sets them is rejected by name, not silently ignored."""
        with pytest.raises(SweepSpecError, match=key):
            parse_spec({"grid": {"kernels": ["k"]},
                        "engine": {key: 64}})

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
        spec = spec_for([tiny_ir], cores=["threaded", "batched"],
                        max_runs=40)
        report = run_sweep(spec, store)
        assert report.cells_run == 2
        threaded, batched = report.outcomes
        assert threaded.key != batched.key
        assert threaded.effects == batched.effects
        assert threaded.distinct_traces == batched.distinct_traces

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

    def test_callback_errors_are_ignored(self, tiny_ir, store):
        """Callbacks are worker events: a raising one neither fails a
        cell nor stops the sweep."""
        def broken(*_args):
            raise RuntimeError("broken callback")

        spec = spec_for([tiny_ir], modes=["bec", "ior"], max_runs=40)
        report = run_sweep(spec, store, progress=broken,
                           run_progress=broken)
        assert report.cells_run == 2
        assert report.cells_failed == 0
        assert [outcome.cell.mode for outcome in report.outcomes] \
            == ["bec", "ior"]

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
        """A cell that cannot load is a failed outcome, not a crash."""
        path = tmp_path / "needs.mc"
        path.write_text("int main(int n) { return n; }")
        spec = spec_for([str(path)], max_runs=10)
        report = run_sweep(spec, store)
        assert report.cells_failed == 1
        assert report.outcomes[0].error.startswith("ValueError: ")

    def test_unknown_registry_kernel_fails_its_cell(self, store):
        spec = spec_for(["not-a-kernel"], max_runs=10)
        report = run_sweep(spec, store)
        (failed,) = report.failed
        assert failed.error.startswith("KeyError: ")
        assert failed.key is None


class TestSweepResilience:
    """A sweep is a one-worker drain of the lease queue: a retry is a
    lease attempt, and a cell whose attempts run out is poisoned and
    reported (``outcome.error``) while the rest of the grid finishes."""

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
        """The first attempt fails; lease attempt 2 succeeds."""
        from repro.store.sweep import SweepRunner

        spec = spec_for([tiny_ir], max_runs=40)
        original = SweepRunner.run_cell
        calls = []

        def flaky(self, cell, **kwargs):
            calls.append(cell.kernel)
            if len(calls) == 1:
                raise RuntimeError("transient (chaos)")
            return original(self, cell, **kwargs)

        monkeypatch.setattr(SweepRunner, "run_cell", flaky)
        report = run_sweep(spec, store, max_retries=2)
        assert len(calls) == 2
        assert report.metrics["dist.lease_reclaims"] == 1
        assert report.cells_failed == 0
        assert report.cells_run == 1
        assert report.outcomes[0].error is None

    def test_exhausted_retries_poison_the_cell(self, tiny_ir, store,
                                               monkeypatch):
        from repro.store.sweep import SweepRunner

        calls = []

        def broken(self, cell, **kwargs):
            calls.append(cell.kernel)
            raise RuntimeError(f"attempt {len(calls)} failed")

        monkeypatch.setattr(SweepRunner, "run_cell", broken)
        report = run_sweep(spec_for([tiny_ir], max_runs=40), store,
                           max_retries=1)
        assert len(calls) == 2
        assert report.metrics["dist.poisoned"] == 1
        (failed,) = report.failed
        assert failed.error == "RuntimeError: attempt 2 failed"

    def test_failed_cell_does_not_sink_the_sweep(self, tiny_ir, store):
        spec = spec_for(["not-a-kernel", tiny_ir], max_runs=40)
        report = run_sweep(spec, store)
        assert report.cells_failed == 1
        assert report.cells_run == 1
        failed, good = report.outcomes
        assert "KeyError" in failed.error
        assert good.error is None
        assert good.effects

    def test_failed_cells_in_reports(self, tiny_ir, store):
        spec = spec_for(["not-a-kernel", tiny_ir], max_runs=40)
        report = run_sweep(spec, store)
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
        run_sweep(spec, store)
        again = run_sweep(spec, store)
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

        def hang(self, cell, **kwargs):
            time_module.sleep(30.0)

        monkeypatch.setattr(SweepRunner, "run_cell", hang)
        spec = spec_for([tiny_ir], max_runs=10)
        report = run_sweep(spec, store, max_wall_seconds=0.2)
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

    def test_capped_cell_walks_a_small_prefix(self, store):
        from repro.store.sweep import SweepRunner
        from tests.fi.walks import instances_walked

        counts = {}
        for max_runs in (40, None):
            spec = spec_for(["bitcount"], max_runs=max_runs)
            (cell,) = spec.cells()
            (_machine, plan, _variant), counts[max_runs] = instances_walked(
                SweepRunner(spec, store).cell_setup, cell)
        assert len(plan) > 40
        assert 0 < counts[40] < 0.05 * counts[None]


def archive_rows(store, key):
    """The ``campaign_results`` row (minus provenance) and the
    ``campaign_chunks`` rows archived under *key*."""
    result = store._connection.execute(
        "SELECT payload, n_runs, uncompressed_bytes, compressed_bytes "
        "FROM campaign_results WHERE key = ?", (key,)).fetchone()
    chunks = store._connection.execute(
        "SELECT chunk_index, payload, digest FROM campaign_chunks "
        "WHERE key = ? ORDER BY chunk_index", (key,)).fetchall()
    return result, chunks


def direct_run(runner, cell):
    """Run *cell* the way a direct caller does: through the caching
    runner with the sweep's own arguments, archived on a miss."""
    machine, plan, variant = runner.cell_setup(cell)
    return runner.runner.run(
        machine, plan, regs=variant["regs"], golden=variant["golden"],
        prune=runner.spec.prune, harden=cell.harden, budget=cell.budget)


class TestArchiveIdentity:
    """A direct caller's miss (``CachingRunner.run``, committed) and a
    sweep cell (the worker archiving its chunk capture) archive
    through the same ``ResultStore.archive`` call, so they store
    byte-identical rows."""

    def test_runner_and_sweep_write_identical_rows(
            self, tmp_path, loop_mc, monkeypatch):
        from repro.fi import engine as engine_module
        from repro.store.sweep import SweepRunner

        monkeypatch.setattr(engine_module, "DEFAULT_CHUNK_SIZE", 16)
        spec = spec_for([loop_mc], max_runs=100)
        (cell,) = spec.cells()
        with ResultStore(str(tmp_path / "swept.sqlite")) as swept, \
                ResultStore(str(tmp_path / "direct.sqlite")) as direct:
            (outcome,) = run_sweep(spec, swept).outcomes
            assert not outcome.cached and outcome.error is None
            runner = SweepRunner(spec, direct)
            assert not direct_run(runner, cell).cached
            assert runner.runner.last_key == outcome.key
            row, chunks = archive_rows(swept, outcome.key)
            assert row is not None and len(chunks) > 1
            assert archive_rows(direct, outcome.key) == (row, chunks)


class TestLockPolicy:
    """A store whose commit stays locked past ``COMMIT_RETRIES``: a
    direct caller's miss drops the archive and keeps its result, while
    a sweep cell fails its lease (the cell is retried, never marked
    done unarchived)."""

    @pytest.fixture(autouse=True)
    def no_backoff(self, monkeypatch):
        from repro.store import db

        monkeypatch.setattr(db, "COMMIT_BACKOFF", 0.0)

    @staticmethod
    def locked_store(tmp_path):
        from repro.fi.chaos import ChaosPolicy
        from repro.store.db import COMMIT_RETRIES

        policy = ChaosPolicy().lock_store(times=COMMIT_RETRIES + 1)
        return ResultStore(str(tmp_path / "locked.sqlite"), chaos=policy)

    def test_caching_runner_drops_the_archive(self, tmp_path, loop_mc):
        from repro import obs
        from repro.fi.engine import CampaignEngine
        from repro.store.sweep import SweepRunner

        spec = spec_for([loop_mc], max_runs=100)
        (cell,) = spec.cells()
        registry = obs.metrics()
        with self.locked_store(tmp_path) as store:
            runner = SweepRunner(spec, store)
            mark = registry.mark()
            with pytest.warns(RuntimeWarning, match="stayed locked"):
                result = direct_run(runner, cell)
            totals = registry.totals(registry.delta_since(mark))
            assert totals["store.archives_dropped"] == 1
            assert not result.cached
            machine, plan, variant = runner.cell_setup(cell)
            expected = CampaignEngine(machine, plan, regs=variant["regs"],
                                      golden=variant["golden"]).run()
            assert result.effect_counts() == expected.effect_counts()
            assert result.distinct_traces == expected.distinct_traces
            assert result.vulnerable_runs() == expected.vulnerable_runs()
            assert runner.runner.last_key not in store
            assert len(store) == 0

    def test_sweep_cell_fails_its_lease(self, tmp_path, loop_mc):
        spec = spec_for([loop_mc], max_runs=100)
        with self.locked_store(tmp_path) as store:
            report = run_sweep(spec, store)
            assert report.metrics.get("store.archives_dropped", 0) == 0
            assert report.metrics["dist.poisoned"] == 1
            (failed,) = report.failed
            assert failed.error == \
                "OperationalError: database is locked"
            assert len(store) == 0


def outcome_fields(report):
    """What a sweep computed, per cell and in total, without timings."""
    cells = [(outcome.cell, outcome.key, outcome.cached, outcome.effects,
              outcome.distinct_traces, outcome.plan_runs,
              outcome.archived_bytes, outcome.error)
             for outcome in report.outcomes]
    return cells, (report.hits, report.misses, report.simulator_runs)


class TestForkedSweep:
    """With two workers and two kernels, whole cells run in two forked
    queue workers, one per kernel, and the report is the serial one."""

    @staticmethod
    def two_kernel_spec(tiny_ir, loop_mc):
        return spec_for([tiny_ir, loop_mc], modes=["bec", "exhaustive"],
                        max_runs=40)

    def test_two_workers_equal_one_cold_and_warm(self, tiny_ir, loop_mc,
                                                 tmp_path):
        spec = self.two_kernel_spec(tiny_ir, loop_mc)
        with ResultStore(str(tmp_path / "one.sqlite")) as one, \
                ResultStore(str(tmp_path / "two.sqlite")) as two:
            for warm in (False, True):
                serial = run_sweep(spec, one, workers=1)
                forked = run_sweep(spec, two, workers=2)
                assert outcome_fields(forked) == outcome_fields(serial)
                assert forked.cells_cached == (4 if warm else 0)
                assert (forked.simulator_runs == 0) == warm
            assert two.verify()["ok"]

    @pytest.mark.parametrize("refusal", ["no_fork", "start_refused"])
    def test_without_fork_drains_in_process(self, tiny_ir, loop_mc,
                                            tmp_path, monkeypatch,
                                            refusal):
        """A platform without fork, or one that refuses to create a
        process, gets the serial report instead of an exception."""
        import multiprocessing.process

        from repro import fork

        spec = self.two_kernel_spec(tiny_ir, loop_mc)
        with ResultStore(str(tmp_path / "one.sqlite")) as one:
            serial = run_sweep(spec, one, workers=1)
        if refusal == "no_fork":
            monkeypatch.setattr(fork, "available", lambda: False)
        else:
            def refuse(process):
                raise OSError("process creation refused")

            monkeypatch.setattr(multiprocessing.process.BaseProcess,
                                "start", refuse)
        with ResultStore(str(tmp_path / "two.sqlite")) as two:
            report = run_sweep(spec, two, workers=2)
            assert two.verify()["ok"]
        assert outcome_fields(report) == outcome_fields(serial)
        assert not report.failed

    def test_idle_worker_exits_with_the_last_cell(self, tiny_ir, loop_mc,
                                                  store, monkeypatch):
        import time as time_module

        import repro.dist.worker as worker_module
        from repro.store.sweep import SweepRunner

        # One kernel's cells are slow, so the other kernel's worker
        # idles between claims until the queue drains; it must not
        # sleep out a poll interval.
        monkeypatch.setattr(worker_module, "POLL_SECONDS", 60.0)
        run_cell = SweepRunner.run_cell

        def slow_loop(self, cell, progress=None):
            if cell.kernel == loop_mc:
                time_module.sleep(0.5)
            return run_cell(self, cell, progress=progress)

        monkeypatch.setattr(SweepRunner, "run_cell", slow_loop)
        spec = self.two_kernel_spec(tiny_ir, loop_mc)
        started = time_module.monotonic()
        report = run_sweep(spec, store, workers=2)
        assert time_module.monotonic() - started < 30.0
        assert report.cells_run == 4 and not report.failed

    def test_progress_fires_once_per_cell(self, tiny_ir, loop_mc, store):
        spec = self.two_kernel_spec(tiny_ir, loop_mc)
        seen, runs = [], []
        report = run_sweep(
            spec, store, workers=2,
            progress=lambda done, total, outcome: seen.append(
                (done, total, outcome.cell)),
            run_progress=lambda cell, done, total: runs.append(cell))
        assert [(done, total) for done, total, _ in seen] \
            == [(index, 4) for index in range(1, 5)]
        assert sorted(cell for _, _, cell in seen) \
            == sorted(outcome.cell for outcome in report.outcomes)
        assert set(runs) == {outcome.cell for outcome in report.outcomes}

    def test_traced_sweep_ships_child_spans(self, tiny_ir, loop_mc,
                                            store):
        from repro import obs

        spec = self.two_kernel_spec(tiny_ir, loop_mc)
        tracer = obs.tracer()
        tracer.start()
        try:
            run_sweep(spec, store, workers=2)
        finally:
            tracer.stop()
        records = tracer.records()
        names = [record["name"] for record in records]
        assert names.count("sweep") == 1
        assert names.count("sweep.cell") == 4
        assert {"bec", "engine.campaign"} <= set(names)
        children = {record["pid"] for record in records
                    if record["name"] == "sweep.cell"}
        assert len(children) == 2 and os.getpid() not in children

    def test_metrics_include_the_children(self, tiny_ir, loop_mc,
                                          tmp_path):
        from repro import obs
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            self.two_kernel_spec(tiny_ir, loop_mc).data))
        store_path = str(tmp_path / "store.sqlite")
        totals = {}
        for name in ("cold", "warm"):
            before = obs.metrics().totals()
            assert main(["sweep", str(spec_path), "--store", store_path,
                         "--workers", "2", "--json",
                         str(tmp_path / f"{name}.json"), "--metrics",
                         str(tmp_path / f"{name}-metrics.json")]) == 0
            after = json.loads((tmp_path / f"{name}-metrics.json")
                               .read_text())["totals"]
            totals[name] = {metric: after.get(metric, 0)
                            - before.get(metric, 0) for metric in (
                                "store.hits", "store.misses",
                                "engine.runs_executed", "sweep.cells")}
        cold = json.loads((tmp_path / "cold.json").read_text())["totals"]
        warm = json.loads((tmp_path / "warm.json").read_text())["totals"]
        assert totals["cold"] == {
            "store.hits": 0, "store.misses": 4, "sweep.cells": 4,
            "engine.runs_executed": cold["simulator_runs"]}
        assert cold["simulator_runs"] > 0
        assert totals["warm"] == {
            "store.hits": 4, "store.misses": 0, "sweep.cells": 4,
            "engine.runs_executed": 0}
        assert warm["simulator_runs"] == warm["cells_run"] == 0
