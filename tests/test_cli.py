"""Tests for the command-line interface."""

import pytest

from repro import cli
from repro.cli import main
from repro.fi.campaign import PLANNERS
from repro.fi.machine import Machine

MINIC = """
int main() {
    int total = 0;
    for (int i = 1; i <= 4; i++) total += i;
    out(total);
    return total;
}
"""

IR = """
func f width=4
bb.entry:
    li a, 7
    andi b, a, 1
    out b
    ret b
"""


@pytest.fixture
def minic_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(MINIC)
    return str(path)


@pytest.fixture
def ir_file(tmp_path):
    path = tmp_path / "prog.ir"
    path.write_text(IR)
    return str(path)


class TestCompile:
    def test_compile_to_stdout(self, minic_file, capsys):
        assert main(["compile", minic_file]) == 0
        output = capsys.readouterr().out
        assert "func main" in output

    def test_compile_to_file(self, minic_file, tmp_path, capsys):
        out = str(tmp_path / "out.ir")
        assert main(["compile", minic_file, "-o", out]) == 0
        assert "func main" in open(out).read()

    def test_compiled_output_is_loadable(self, minic_file, tmp_path,
                                         capsys):
        out = str(tmp_path / "out.ir")
        main(["compile", minic_file, "-o", out])
        capsys.readouterr()
        assert main(["run", out]) == 0
        assert "returned: 10" in capsys.readouterr().out

    def test_no_opt_differs(self, minic_file, capsys):
        main(["compile", minic_file])
        optimized = capsys.readouterr().out
        main(["compile", minic_file, "-O", "0"])
        raw = capsys.readouterr().out
        assert len(raw.splitlines()) >= len(optimized.splitlines())


class TestRun:
    def test_run_minic(self, minic_file, capsys):
        assert main(["run", minic_file]) == 0
        output = capsys.readouterr().out
        assert "out: 10" in output
        assert "returned: 10" in output

    def test_run_ir(self, ir_file, capsys):
        assert main(["run", ir_file]) == 0
        assert "out: 1" in capsys.readouterr().out

    def test_run_with_args(self, tmp_path, capsys):
        path = tmp_path / "args.mc"
        path.write_text("int main(int a, int b) { return a * b; }")
        assert main(["run", str(path), "--args", "6", "0x7"]) == 0
        assert "returned: 42" in capsys.readouterr().out

    def test_wrong_arg_count(self, minic_file):
        with pytest.raises(SystemExit):
            main(["run", minic_file, "--args", "1"])


class TestAnalyze:
    def test_summary(self, ir_file, capsys):
        assert main(["analyze", ir_file]) == 0
        output = capsys.readouterr().out
        assert "masked_live_sites" in output

    def test_windows_listing(self, ir_file, capsys):
        assert main(["analyze", ir_file, "--windows"]) == 0
        output = capsys.readouterr().out
        assert "andi b, a, 1" in output

    def test_extended_flag(self, ir_file, capsys):
        # One rule set, Algorithm 3's: there is nothing to switch on.
        with pytest.raises(SystemExit) as error:
            main(["analyze", ir_file, "--extended"])
        assert error.value.code == 2


class TestCampaign:
    def test_plan_only(self, ir_file, capsys):
        assert main(["campaign", ir_file]) == 0
        output = capsys.readouterr().out
        assert "fault-injection runs" in output

    @pytest.mark.parametrize("mode", ["bec", "ior", "exhaustive"])
    def test_modes_execute(self, ir_file, capsys, mode):
        assert main(["campaign", ir_file, "--mode", mode,
                     "--execute", "5"]) == 0
        output = capsys.readouterr().out
        assert "executed 5 runs" in output

    def test_cores_agree(self, minic_file, capsys):
        outputs = []
        for core in Machine.CORES:
            assert main(["campaign", minic_file, "--mode", "exhaustive",
                         "--execute", "60", "--core", core]) == 0
            lines = capsys.readouterr().out.splitlines()
            outputs.append([line.split(": ", 1)[1] for line in lines
                            if "executed 60 runs" in line
                            or "distinguishable traces" in line])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["campaign", "sample"])
    def test_reference_core_is_not_an_option(self, minic_file, command):
        # The reference interpreter is a test oracle, not a user core.
        with pytest.raises(SystemExit) as error:
            main([command, minic_file, "--core", "reference"])
        assert error.value.code == 2

    def test_usage_lists_the_choices(self):
        assert f"[--core {'|'.join(Machine.CORES)}]" in cli.__doc__
        assert f"[--mode {'|'.join(PLANNERS)}]" in cli.__doc__

    def test_batched_with_prune_and_lanes(self, minic_file, capsys,
                                          monkeypatch):
        from repro.fi import batch

        monkeypatch.setattr(batch, "LANES", 9)
        assert main(["campaign", minic_file, "--mode", "exhaustive",
                     "--execute", "80", "--core", "batched",
                     "--prune", "liveness"]) == 0
        output = capsys.readouterr().out
        assert "prune=liveness" in output
        assert "runs pre-classified" in output


class TestValidate:
    def test_clean_program(self, ir_file, capsys):
        assert main(["validate", ir_file]) == 0
        assert "no unsound classification" in capsys.readouterr().out

    def test_minic_program(self, minic_file, capsys):
        assert main(["validate", minic_file, "--cycles", "10"]) == 0


class TestSchedule:
    def test_best_policy(self, minic_file, capsys):
        assert main(["schedule", minic_file]) == 0
        output = capsys.readouterr().out
        assert "fault surface" in output
        assert "func main" in output

    def test_output_file(self, minic_file, tmp_path, capsys):
        out = str(tmp_path / "sched.ir")
        assert main(["schedule", minic_file, "--policy", "worst",
                     "-o", out]) == 0
        assert "func main" in open(out).read()


MEMORY_MINIC = """
int table[4] = {10, 20, 30, 40};
int main(int n) {
    int sum = 0;
    for (int i = 0; i < n; i = i + 1)
        sum = sum + (table[i] & 7);
    return sum;
}
"""


@pytest.fixture
def memory_minic_file(tmp_path):
    path = tmp_path / "table.mc"
    path.write_text(MEMORY_MINIC)
    return str(path)


class TestSample:
    def test_uniform(self, ir_file, capsys):
        assert main(["sample", ir_file, "--budget", "50"]) == 0
        output = capsys.readouterr().out
        assert "uniform sampling" in output
        assert "AVF estimate" in output

    def test_bec_collapsed(self, ir_file, capsys):
        assert main(["sample", ir_file, "--budget", "50", "--bec"]) == 0
        output = capsys.readouterr().out
        assert "BEC-collapsed" in output

    def test_deterministic_seed(self, ir_file, capsys):
        main(["sample", ir_file, "--budget", "40", "--seed", "3"])
        first = capsys.readouterr().out
        main(["sample", ir_file, "--budget", "40", "--seed", "3"])
        assert capsys.readouterr().out == first

    def test_batched_core_identical_estimate(self, minic_file, capsys):
        main(["sample", minic_file, "--budget", "60", "--seed", "5",
              "--checkpoint-interval", "8"])
        plain = capsys.readouterr().out
        main(["sample", minic_file, "--budget", "60", "--seed", "5",
              "--checkpoint-interval", "8", "--core", "batched"])
        assert capsys.readouterr().out == plain


class TestMemory:
    def test_accounting(self, memory_minic_file, capsys):
        assert main(["memory", memory_minic_file, "--args", "4"]) == 0
        output = capsys.readouterr().out
        assert "memory accounting" in output
        assert "'masked_bits'" in output

    def test_execute(self, memory_minic_file, capsys):
        assert main(["memory", memory_minic_file, "--execute",
                     "--args", "4"]) == 0
        assert "pruned campaign" in capsys.readouterr().out

    def test_no_loads(self, ir_file, capsys):
        assert main(["memory", ir_file]) == 0
        assert "no loads" in capsys.readouterr().out


class TestFuzz:
    def test_sound_on_default_seeds(self, capsys):
        assert main(["fuzz", "--count", "2", "--cycles", "60"]) == 0
        output = capsys.readouterr().out
        assert "all 2 seeds sound" in output


class TestCompileLevels:
    def test_level2_is_a_usage_error(self, minic_file, capsys):
        with pytest.raises(SystemExit) as error:
            main(["compile", minic_file, "-O", "2"])
        assert error.value.code == 2
        assert "invalid choice: 2" in capsys.readouterr().err


class TestOptLevelThreading:
    """`-O` must reach every command that loads a program,
    so analyses and campaigns can run at a matching opt level."""

    def test_run_honors_no_opt(self, minic_file, capsys):
        assert main(["run", minic_file]) == 0
        optimized = capsys.readouterr().out
        assert main(["run", minic_file, "-O", "0"]) == 0
        raw = capsys.readouterr().out
        assert "returned: 10" in optimized and "returned: 10" in raw
        cycles = lambda text: int(  # noqa: E731
            [ln for ln in text.splitlines() if "cycles" in ln][0].split()[-1])
        assert cycles(raw) >= cycles(optimized)

    def test_analyze_honors_level(self, minic_file, capsys):
        assert main(["analyze", minic_file, "-O", "0"]) == 0
        raw = capsys.readouterr().out
        assert main(["analyze", minic_file, "-O", "1"]) == 0
        opt = capsys.readouterr().out
        instrs = lambda text: int(  # noqa: E731
            text.split(" instructions")[0].rsplit(" ", 1)[-1])
        assert instrs(raw) >= instrs(opt)

    def test_campaign_honors_level(self, minic_file, capsys):
        assert main(["campaign", minic_file, "-O", "0"]) == 0
        raw = capsys.readouterr().out
        assert main(["campaign", minic_file, "-O", "1"]) == 0
        opt = capsys.readouterr().out
        runs = lambda text: int(  # noqa: E731
            [ln for ln in text.splitlines()
             if "fault-injection runs" in ln][0].split()[-3])
        assert runs(raw) >= runs(opt)
        cycles = lambda text: int(  # noqa: E731
            [ln for ln in text.splitlines()
             if "golden trace" in ln][0].split()[2])
        assert cycles(raw) > cycles(opt)

    def test_sample_accepts_level(self, minic_file, capsys):
        populations = {}
        for level in ("0", "1"):
            assert main(["sample", minic_file, "--budget", "40",
                         "-O", level]) == 0
            out = capsys.readouterr().out
            assert "AVF estimate" in out
            populations[level] = int(
                out.split(" fault sites")[0].rsplit(" ", 1)[-1])
        # Unoptimized code has more live register bits to sample; a
        # dropped -O would make the two populations equal.
        assert populations["0"] > populations["1"]


HARDEN_MINIC = """
int main(int n) {
    int sum = 0;
    for (int i = 0; i < n; i = i + 1)
        sum = sum + (i & 5);
    out(sum);
    return sum;
}
"""


@pytest.fixture
def harden_minic_file(tmp_path):
    path = tmp_path / "acc.mc"
    path.write_text(HARDEN_MINIC)
    return str(path)


class TestHarden:
    @pytest.mark.parametrize("strategy", ["none", "full", "bec"])
    def test_emits_parseable_ir(self, harden_minic_file, capsys, strategy):
        assert main(["harden", harden_minic_file, "--strategy", strategy,
                     "--args", "5"]) == 0
        output = capsys.readouterr().out
        assert "func main" in output
        if strategy == "full":
            assert "check" in output

    def test_budget_respected(self, harden_minic_file, tmp_path, capsys):
        out = str(tmp_path / "hardened.ir")
        assert main(["harden", harden_minic_file, "--strategy", "bec",
                     "--budget", "0.25", "--args", "6",
                     "-o", out]) == 0
        err = capsys.readouterr().err
        overhead = float(err.split("dynamic overhead: +")[1].split("%")[0])
        assert overhead <= 25.0

    @pytest.mark.parametrize("core", Machine.CORES)
    def test_roundtrip_campaign_on_hardened_ir(self, harden_minic_file,
                                               tmp_path, capsys, core):
        """`repro harden -o x.ir` then `repro campaign x.ir` — the
        hardened IR round-trips through the parser and the campaign
        reports detected runs on either execution core."""
        out = str(tmp_path / "hardened.ir")
        assert main(["harden", harden_minic_file, "--strategy", "full",
                     "--args", "6", "-o", out]) == 0
        capsys.readouterr()
        assert main(["campaign", out, "--mode", "exhaustive",
                     "--execute", "48", "--core", core,
                     "--args", "6"]) == 0
        output = capsys.readouterr().out
        detected = int(output.split("'detected': ")[1].split(",")[0])
        assert detected > 0

    @pytest.mark.parametrize("core", Machine.CORES)
    def test_campaign_harden_flag(self, harden_minic_file, capsys, core):
        assert main(["campaign", harden_minic_file, "--harden", "bec",
                     "--budget", "0.3", "--execute", "32",
                     "--core", core, "--args", "6"]) == 0
        output = capsys.readouterr().out
        assert "hardened (bec):" in output
        assert "overhead" in output

    def test_campaign_harden_cores_agree(self, harden_minic_file, capsys):
        runs = {}
        for core in Machine.CORES:
            assert main(["campaign", harden_minic_file, "--harden",
                         "full", "--execute", "64", "--core", core,
                         "--args", "5"]) == 0
            output = capsys.readouterr().out
            effects = [line.split("s: ", 1)[1] for line in
                       output.splitlines() if line.startswith("executed")]
            distinct = [line for line in output.splitlines()
                        if "distinguishable" in line]
            runs[core] = (effects, distinct)
        assert runs["threaded"] == runs["batched"]


class TestSchedulePolicies:
    @pytest.mark.parametrize("policy", ["live-interval", "lookahead"])
    def test_related_policies_available(self, ir_file, policy, capsys):
        assert main(["schedule", ir_file, "--policy", policy]) == 0
        assert "fault surface" in capsys.readouterr().out


class TestDot:
    def test_cfg_export(self, ir_file, capsys):
        assert main(["dot", ir_file]) == 0
        output = capsys.readouterr().out
        assert output.startswith("digraph")
        assert "bb.entry" in output

    def test_cfg_with_bec_annotations(self, ir_file, capsys):
        assert main(["dot", ir_file, "--bec"]) == 0
        assert "b]" in capsys.readouterr().out

    def test_ddg_export(self, ir_file, capsys):
        assert main(["dot", ir_file, "--ddg", "bb.entry"]) == 0
        assert "ddg_bb.entry" in capsys.readouterr().out

    def test_output_file(self, ir_file, tmp_path, capsys):
        target = tmp_path / "cfg.dot"
        assert main(["dot", ir_file, "-o", str(target)]) == 0
        assert target.read_text().startswith("digraph")


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        assert output.startswith("repro ")
        version = output.split()[1]
        assert version[0].isdigit()

    def test_version_matches_package_metadata(self, capsys):
        """Wired to the installed distribution's metadata, falling back
        to repro.__version__ from a source tree."""
        try:
            from importlib.metadata import version
            expected = version("repro-bec")
        except Exception:
            import repro
            expected = repro.__version__
        with pytest.raises(SystemExit):
            main(["--version"])
        assert capsys.readouterr().out.strip() == f"repro {expected}"


SWEEP_SPEC_JSON = """
{
  "grid": {
    "kernels": ["%s"],
    "modes": ["bec", "exhaustive"]
  },
  "engine": {"max_runs": 50}
}
"""


class TestSweep:
    @pytest.fixture
    def spec_file(self, ir_file, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(SWEEP_SPEC_JSON % ir_file)
        return str(path)

    def test_cold_then_warm(self, spec_file, tmp_path, capsys):
        store = str(tmp_path / "store.sqlite")
        assert main(["sweep", spec_file, "--store", store]) == 0
        cold = capsys.readouterr().out
        assert "2 cells (2 executed, 0 from cache)" in cold
        assert main(["sweep", spec_file, "--store", store]) == 0
        warm = capsys.readouterr().out
        assert "2 cells (0 executed, 2 from cache)" in warm
        assert "0 simulator runs" in warm

    def test_report_files(self, spec_file, tmp_path, capsys):
        import json as json_module

        store = str(tmp_path / "store.sqlite")
        json_out = str(tmp_path / "sweep.json")
        md_out = str(tmp_path / "sweep.md")
        assert main(["sweep", spec_file, "--store", store,
                     "--json", json_out, "--markdown", md_out]) == 0
        with open(json_out) as handle:
            data = json_module.load(handle)
        assert data["kind"] == "sweep"
        assert data["totals"]["cells"] == 2
        assert "| kernel |" in open(md_out).read()

    def test_force(self, spec_file, tmp_path, capsys):
        store = str(tmp_path / "store.sqlite")
        main(["sweep", spec_file, "--store", store])
        capsys.readouterr()
        assert main(["sweep", spec_file, "--store", store,
                     "--force"]) == 0
        assert "2 executed, 0 from cache" in capsys.readouterr().out

    def test_progress_lines(self, spec_file, tmp_path, capsys):
        store = str(tmp_path / "store.sqlite")
        assert main(["sweep", spec_file, "--store", store,
                     "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[1/2]" in err and "[2/2]" in err

    def test_progress_piped_stderr_has_no_carriage_returns(
            self, spec_file, tmp_path, capsys):
        """Under a pipe (CI logs, `2>sweep.log`) the \\r live-line
        rewriting would concatenate every update into one garbled
        line; the non-TTY fallback emits plain lines instead."""
        store = str(tmp_path / "store.sqlite")
        assert main(["sweep", spec_file, "--store", store,
                     "--progress"]) == 0
        err = capsys.readouterr().err
        assert "\r" not in err
        # Within-cell updates still arrive, one per line.
        assert any(line.lstrip().startswith("...")
                   for line in err.splitlines())

    def test_progress_tty_keeps_the_live_line(self, spec_file,
                                              tmp_path, capsys,
                                              monkeypatch):
        import sys as sys_module

        monkeypatch.setattr(sys_module.stderr, "isatty",
                            lambda: True, raising=False)
        store = str(tmp_path / "store.sqlite")
        assert main(["sweep", spec_file, "--store", store,
                     "--progress"]) == 0
        assert "\r" in capsys.readouterr().err

    def test_bad_spec_fails_loudly(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"grid": {"kernels": []}}')
        with pytest.raises(SystemExit):
            main(["sweep", str(path), "--store",
                  str(tmp_path / "s.sqlite")])

    def test_missing_spec_fails_loudly(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", str(tmp_path / "nope.toml"), "--store",
                  str(tmp_path / "s.sqlite")])

    def test_failed_cell_exits_nonzero(self, ir_file, tmp_path, capsys):
        """A cell that cannot run is reported and flips the exit code,
        but the surviving cells still execute and archive."""
        import json as json_module

        path = tmp_path / "mixed.json"
        path.write_text(json_module.dumps({
            "grid": {"kernels": ["not-a-kernel", ir_file]},
            "engine": {"max_runs": 40}}))
        store = str(tmp_path / "store.sqlite")
        json_out = str(tmp_path / "sweep.json")
        assert main(["sweep", str(path), "--store", store,
                     "--json", json_out]) == 1
        captured = capsys.readouterr()
        assert "FAILED cell: not-a-kernel" in captured.err
        assert "1 cells FAILED" in captured.out
        with open(json_out) as handle:
            data = json_module.load(handle)
        assert data["totals"]["cells_failed"] == 1

    def test_max_retries_flag(self, spec_file, tmp_path, capsys):
        store = str(tmp_path / "store.sqlite")
        assert main(["sweep", spec_file, "--store", store,
                     "--max-retries", "2"]) == 0
        assert "2 cells (2 executed" in capsys.readouterr().out

    def test_cell_timeout_flag(self, spec_file, tmp_path, capsys):
        # A generous deadline never fires; the sweep runs normally.
        store = str(tmp_path / "store.sqlite")
        assert main(["sweep", spec_file, "--store", store,
                     "--cell-timeout", "300"]) == 0
        assert "2 cells (2 executed" in capsys.readouterr().out


class TestStoreVerify:
    def _build_store(self, ir_file, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(SWEEP_SPEC_JSON % ir_file)
        store = str(tmp_path / "store.sqlite")
        assert main(["sweep", str(spec), "--store", store]) == 0
        return str(spec), store

    def test_verify_clean_store(self, ir_file, tmp_path, capsys):
        _, store = self._build_store(ir_file, tmp_path)
        assert main(["store", "verify", store]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "2 results" in out

    def test_verify_corruption_roundtrip(self, ir_file, tmp_path,
                                         capsys):
        """Acceptance path: corrupt one chunk row, `store verify`
        flags exactly that row, a warm sweep re-executes only the
        damaged cell, and the store verifies clean again."""
        import json as json_module

        from repro.fi.chaos import corrupt_chunk
        from repro.store import ResultStore

        spec, store = self._build_store(ir_file, tmp_path)
        capsys.readouterr()
        with ResultStore(store) as opened:
            keys = opened.keys()
            corrupt_chunk(opened, keys[0], chunk_index=0)
        json_out = str(tmp_path / "verify.json")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert main(["store", "verify", store,
                         "--json", json_out]) == 1
        captured = capsys.readouterr()
        assert "CORRUPT" in captured.out
        assert keys[0] in captured.err
        with open(json_out) as handle:
            report = json_module.load(handle)
        assert report["corrupt"] == [{"key": keys[0], "chunk_index": 0,
                                      "reason": "digest mismatch"}]
        # Warm sweep: only the quarantined cell re-executes...
        assert main(["sweep", spec, "--store", store]) == 0
        assert "(1 executed, 1 from cache)" in capsys.readouterr().out
        # ...and the rewrite healed the archive.
        assert main(["store", "verify", store]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_clear_quarantine_roundtrip(self, ir_file,
                                               tmp_path, capsys):
        """--clear-quarantine drops stale quarantine evidence after a
        repair; persisting damage is immediately re-quarantined."""
        from repro.fi.chaos import corrupt_chunk
        from repro.store import ResultStore

        _, store = self._build_store(ir_file, tmp_path)
        capsys.readouterr()
        with ResultStore(store) as opened:
            key = opened.keys()[0]
            corrupt_chunk(opened, key, chunk_index=0)
        with pytest.warns(RuntimeWarning):
            assert main(["store", "verify", store]) == 1
        capsys.readouterr()
        # Still damaged: clearing alone does not forgive corruption.
        with pytest.warns(RuntimeWarning):
            assert main(["store", "verify", store,
                         "--clear-quarantine"]) == 1
        assert "cleared 1 quarantine rows" in capsys.readouterr().out
        # Repair by dropping the damaged key, then clear for real.
        with ResultStore(store) as opened:
            opened._connection.execute(
                "DELETE FROM campaign_chunks WHERE key = ?", (key,))
            opened._connection.execute(
                "DELETE FROM campaign_results WHERE key = ?", (key,))
            opened._connection.commit()
        assert main(["store", "verify", store,
                     "--clear-quarantine"]) == 0
        out = capsys.readouterr().out
        assert "cleared 1 quarantine rows" in out
        assert "OK" in out

    def test_verify_fresh_store_is_ok(self, tmp_path, capsys):
        # An empty store — created, never written — verifies OK with
        # zero results rather than crashing.
        from repro.store import ResultStore

        fresh = str(tmp_path / "fresh.sqlite")
        ResultStore(fresh).close()
        assert main(["store", "verify", fresh]) == 0
        assert "0 results" in capsys.readouterr().out

    def test_verify_missing_store_exits(self, tmp_path):
        """A mistyped path is an error, not an empty store: verify
        exits nonzero and creates neither the file nor its
        directory."""
        missing = tmp_path / "nope" / "typo-store.sqlite"
        with pytest.raises(SystemExit, match="no such file") as error:
            main(["store", "verify", str(missing)])
        assert error.value.code != 0
        assert not missing.parent.exists()


class TestCampaignStore:
    def test_campaign_store_roundtrip(self, ir_file, tmp_path, capsys):
        store = str(tmp_path / "store.sqlite")
        assert main(["campaign", ir_file, "--execute", "8",
                     "--store", store]) == 0
        cold = capsys.readouterr().out
        assert "store hit" not in cold
        assert main(["campaign", ir_file, "--execute", "8",
                     "--store", store]) == 0
        warm = capsys.readouterr().out
        assert "store hit" in warm
        pick = lambda text: [line.split(": ", 1)[1]  # noqa: E731
                             for line in text.splitlines()
                             if "distinguishable" in line
                             or line.startswith("executed")]
        assert pick(warm) == pick(cold)

    @pytest.mark.parametrize("harden", [["none"], ["bec", "--budget", "0.3"]])
    def test_campaign_and_sweep_share_one_archive(
            self, harden_minic_file, tmp_path, capsys, harden):
        """A `campaign --store` cell, hardened or not, is a hit for the
        matching one-cell sweep: both front doors build the variant the
        same way and key it the same way."""
        import json as json_module

        store = str(tmp_path / "store.sqlite")
        assert main(["campaign", harden_minic_file, "--execute", "50",
                     "--args", "6", "--store", store,
                     "--harden", *harden]) == 0
        grid = {"kernels": [{"path": harden_minic_file, "args": [6]}],
                "harden": [harden[0]]}
        if harden[0] == "bec":
            grid["budgets"] = [0.3]
        spec = tmp_path / "spec.json"
        spec.write_text(json_module.dumps(
            {"grid": grid, "engine": {"max_runs": 50}}))
        capsys.readouterr()
        assert main(["sweep", str(spec), "--store", store]) == 0
        assert "1 cells (0 executed, 1 from cache)" \
            in capsys.readouterr().out
