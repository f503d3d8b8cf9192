"""The four benchmark workloads.

Each workload has a ``setup`` (timed as ``setup_s``), a ``job`` that
the harness runs, one at a time, in a fresh forked process, and a
``check`` that compares the job's outputs with the values recorded in
``expected.json``.  A job returns plain JSON data only, so outputs
compare exactly across processes and runs.

* ``sweep_cold`` -- the nightly grid against an empty store;
* ``sweep_warm`` -- the same grid against a store filled in set-up;
* ``campaign``   -- batched-core campaigns over strided BEC and
  exhaustive plan slices of six kernels, plans built in set-up;
* ``validate``   -- Table II (``validate_bec``) over its default
  selection of kernels and trace prefixes.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from repro import obs
from repro.bec.analysis import run_bec
from repro.bench.programs import compile_benchmark, get_benchmark
from repro.fi.campaign import PlannedRun, plan_bec
from repro.fi.engine import CampaignEngine
from repro.fi.machine import Injection, Machine
from repro.fi.validate import validate_bec
from repro.store.db import ResultStore
from repro.store.spec import parse_spec
from repro.store.sweep import run_sweep

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")

#: Where runs keep their stores and traces (inside the checkout).
WORK = os.path.join(ROOT, ".perfbench")

#: The nightly grid (``.github/sweeps/nightly.toml``), fixed here so the
#: benchmark's input does not move when CI's grid does.
NIGHTLY = {
    "grid": {"kernels": ["bitcount", "CRC32", "AES"], "modes": ["bec"],
             "harden": ["none", "bec"], "budgets": [0.3],
             "cores": ["threaded", "batched"]},
    "engine": {"workers": 2, "checkpoint_interval": 64, "max_runs": 300},
}

#: Campaign kernels and the target slice sizes (runs) per plan family;
#: RSA's trace is short, so its slices are three times larger.
CAMPAIGN_KERNELS = ("bitcount", "dijkstra", "CRC32", "AES", "RSA", "SHA")
CAMPAIGN_TARGETS = {"bec": 1500, "exhaustive": 3000}
RSA_SCALE = 3

#: The seed picks one of this many stride offsets; ``expected.json``
#: holds the threaded core's aggregates for each.
CAMPAIGN_OFFSETS = 4

#: Table II's default selection: kernels and validated trace prefixes.
VALIDATION = (("RSA", 120), ("adpcm_enc", 120), ("adpcm_dec", 120),
              ("bitcount", 80), ("SHA", 60))

#: Times the cheap set-ups (a second or less) are repeated; ``setup_s``
#: is their median.  The campaign's plan generation and the warm
#: store's fill are measured once per run.
SETUP_REPEATS = 5


def load_expected():
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def nightly_spec():
    return parse_spec(NIGHTLY, name="nightly")


def clear_program_cache():
    """Empty ``compile_benchmark``'s in-process cache, as a fresh
    ``repro`` process starts."""
    import repro.bench.programs

    repro.bench.programs._compiled_cache.clear()


def cell_label(cell):
    return f"{cell.kernel}/{cell.mode}/{cell.harden}/{cell.budget}/" \
           f"{cell.core}"


def sweep_outputs(report):
    """The checked part of a sweep report, as plain data."""
    cells = {}
    for outcome in report.outcomes:
        cells[cell_label(outcome.cell)] = {
            "key": outcome.key, "cached": outcome.cached,
            "plan_runs": outcome.plan_runs, "effects": outcome.effects,
            "distinct_traces": outcome.distinct_traces,
            "error": outcome.error}
    return {"cells": cells, "simulator_runs": report.simulator_runs,
            "hits": report.hits, "misses": report.misses,
            "runs_used": sum(outcome.plan_runs
                             for outcome in report.outcomes)}


def sweep(store_path):
    with ResultStore(store_path) as store:
        return sweep_outputs(run_sweep(nightly_spec(), store))


def check_sweep(expected, outputs, warm):
    """Failed cell labels of one sweep: key or aggregate drift,
    threaded/batched disagreement, or a wrong cache outcome."""
    cells = outputs["cells"]
    failed = set(expected) ^ set(cells)
    for label, want in expected.items():
        got = cells.get(label)
        if got is None:
            continue
        if got["error"] is not None or got["cached"] != warm or any(
                got[field] != want[field] for field in
                ("key", "plan_runs", "effects", "distinct_traces")):
            failed.add(label)
        if label.endswith("/threaded"):
            twin = label[:-len("threaded")] + "batched"
            other = cells.get(twin)
            if other is None or (other["effects"], other["distinct_traces"]) \
                    != (got["effects"], got["distinct_traces"]):
                failed.update((label, twin))
    runs = sum(want["plan_runs"] for want in expected.values())
    if (outputs["simulator_runs"], outputs["hits"], outputs["misses"]) \
            != ((0, len(expected), 0) if warm else (runs, 0, len(expected))):
        failed.update(expected)
    return sorted(failed)


class SweepCold:
    """The nightly grid against an empty store (what users and CI run)."""

    name = "sweep_cold"

    def setup(self, seed, work, isolated):
        self.work = work
        self.expected = load_expected()["sweep"]
        self.attempts = len(self.expected)
        # A cold sweep's set-up is a fresh interpreter importing the
        # sweep stack and opening the empty store.
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
                 "from repro.store.db import ResultStore; "
                 "import repro.store.sweep; "
                 "ResultStore(sys.argv[2]).close()")
        times = []
        for index in range(SETUP_REPEATS):
            path = os.path.join(work, f"setup-{index}.sqlite")
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", probe, SRC, path],
                           check=True)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def job(self):
        directory = tempfile.mkdtemp(dir=self.work)
        try:
            return sweep(os.path.join(directory, "store.sqlite"))
        finally:
            shutil.rmtree(directory)

    def check(self, outputs):
        return check_sweep(self.expected, outputs, warm=False)


class SweepWarm:
    """The nightly grid against the store a cold sweep filled: zero
    simulation, so analysis, planning, keys and store reads do it all."""

    name = "sweep_warm"

    def setup(self, seed, work, isolated):
        self.expected = load_expected()["sweep"]
        self.attempts = len(self.expected)
        self.path = os.path.join(work, "warm.sqlite")

        def fill():
            start = time.perf_counter()
            outputs = sweep(self.path)
            return {"wall_s": time.perf_counter() - start,
                    "outputs": outputs}

        result = isolated(fill)
        failed = check_sweep(self.expected, result["outputs"], warm=False)
        if failed:
            raise RuntimeError(f"store fill produced wrong cells: {failed}")
        return result["wall_s"]

    def job(self):
        return sweep(self.path)

    def check(self, outputs):
        return check_sweep(self.expected, outputs, warm=True)


def _prepare(name):
    """(function, memory image, regs, golden trace) of a kernel."""
    program = compile_benchmark(name)
    regs = program.initial_regs(*get_benchmark(name).args)
    machine = Machine(program.function, memory_image=program.memory_image)
    golden = machine.run(regs=regs)
    return program.function, program.memory_image, regs, golden


def _stride(total, target, offset):
    stride = max(1, total // target)
    return stride, offset % stride


def exhaustive_slice(function, golden, target, offset):
    """``plan_exhaustive(function, golden)[offset::stride]``, generated
    without materialising the whole register-file plan."""
    registers = list(function.registers())
    width = function.bit_width
    per_cycle = len(registers) * width
    stride, offset = _stride(len(golden.executed) * per_cycle, target,
                             offset)
    plan = []
    for index in range(offset, len(golden.executed) * per_cycle, stride):
        cycle, rest = divmod(index, per_cycle)
        reg, bit = divmod(rest, width)
        plan.append(PlannedRun(Injection(cycle, registers[reg], bit),
                               golden.executed[cycle], None, None))
    return plan


def bec_slice(function, golden, target, offset):
    plan = plan_bec(function, golden, run_bec(function))
    stride, offset = _stride(len(plan), target, offset)
    return plan[offset::stride]


def campaign_plans(offset):
    """``[(kernel, family, machine, plan, regs, golden)]`` for every
    campaign of the workload, at stride offset *offset*."""
    campaigns = []
    for name in CAMPAIGN_KERNELS:
        function, image, regs, golden = _prepare(name)
        scale = RSA_SCALE if name == "RSA" else 1
        batched = Machine(function, memory_image=image, core="batched")
        for family, slicer in (("bec", bec_slice),
                               ("exhaustive", exhaustive_slice)):
            plan = slicer(function, golden,
                          CAMPAIGN_TARGETS[family] * scale, offset)
            campaigns.append((name, family, batched, plan, regs, golden))
    return campaigns


class Campaign:
    """Batched-core campaigns on BEC slices (scalar-escape heavy) and
    exhaustive slices (lockstep heavy); planning is all in set-up."""

    name = "campaign"

    def setup(self, seed, work, isolated):
        self.offset = seed % CAMPAIGN_OFFSETS
        expected = load_expected()["campaign"]
        self.expected = {label: want for label, want in expected.items()
                         if label.endswith(f"/{self.offset}")}
        self.attempts = len(self.expected)
        clear_program_cache()
        start = time.perf_counter()
        self.campaigns = campaign_plans(self.offset)
        return time.perf_counter() - start

    def job(self):
        outputs = {}
        for name, family, machine, plan, regs, golden in self.campaigns:
            with obs.tracer().span(f"campaign.{family}", kernel=name):
                engine = CampaignEngine(machine, plan, regs=regs,
                                        golden=golden)
                result = engine.run(workers=1)
            outputs[f"{name}/{family}/{self.offset}"] = {
                "runs": len(plan), "effects": result.effect_counts(),
                "distinct_traces": result.distinct_traces}
        return {"campaigns": outputs}

    def check(self, outputs):
        got = outputs["campaigns"]
        return sorted(label for label in set(self.expected) | set(got)
                      if got.get(label) != self.expected.get(label))


def validation_inputs():
    """``[(name, cycle_limit, function, machine, bec, regs, golden)]``
    for every validated kernel."""
    kernels = []
    for name, limit in VALIDATION:
        function, image, regs, golden = _prepare(name)
        machine = Machine(function, memory_image=image)
        kernels.append((name, limit, function, machine, run_bec(function),
                        regs, golden))
    return kernels


def validation_reports(kernels):
    reports = {}
    for name, limit, function, machine, bec, regs, golden in kernels:
        with obs.tracer().span("validate", kernel=name):
            report = validate_bec(function, machine, bec, regs=regs,
                                  golden=golden, cycle_limit=limit)
        reports[name] = report._asdict()
    return reports


class Validate:
    """Table II: one injected run from cycle 0 per window-bit instance
    of each kernel's trace prefix, checked against the BEC claims."""

    name = "validate"

    def setup(self, seed, work, isolated):
        self.expected = load_expected()["validate"]
        self.attempts = len(VALIDATION)
        times = []
        for _ in range(SETUP_REPEATS):
            clear_program_cache()
            start = time.perf_counter()
            self.kernels = validation_inputs()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def job(self):
        reports = validation_reports(self.kernels)
        return {"reports": reports,
                "validate_runs": sum(report["runs"]
                                     for report in reports.values()),
                "validate_instances": sum(report["instances"]
                                          for report in reports.values())}

    def check(self, outputs):
        got = outputs["reports"]
        return sorted(
            name for name in set(self.expected) | set(got)
            if got.get(name) != self.expected.get(name)
            or got[name]["unsound_masked"]
            or got[name]["unsound_equivalences"])


WORKLOADS = {workload.name: workload
             for workload in (SweepCold, SweepWarm, Campaign, Validate)}
