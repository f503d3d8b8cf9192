"""Multi-process soak test for distributed sweeps (satellite 3).

Three ``repro dist work`` processes drain one queue under chaos — one
is SIGKILLed mid-cell (computed but not committed), one force-expires
its own lease, one submits a forged envelope.  Despite all three
faults, every cell completes exactly once, the distributed store is
bit-identical to a serial ``run_sweep`` of the same spec, and
``store.verify()`` comes back clean.
"""

import json
import os
import signal
import subprocess
import sys

from repro.dist.queue import WorkQueue
from repro.store import ResultStore, parse_spec, run_sweep

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))

TINY_IR = """
func f width=4
bb.entry:
    li a, 7
    andi b, a, 1
    out b
    ret b
"""

SPEC_DATA = {
    "grid": {"kernels": ["%s"],
             "modes": ["bec", "ior", "exhaustive"],
             "harden": ["none", "bec"], "budgets": [0.5]},
    "engine": {"max_runs": 40},
}


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def launch_worker(name, queue, store, chaos, tmp_path):
    argv = [sys.executable, "-m", "repro", "dist", "work",
            "--queue", queue, "--store", store, "--worker-id", name,
            "--lease-seconds", "3", "--max-idle", "30",
            "--metrics", str(tmp_path / f"{name}-metrics.json")]
    for fault in chaos:
        argv += ["--chaos", fault]
    log = open(tmp_path / f"{name}.log", "w")
    return subprocess.Popen(argv, cwd=REPO_ROOT, env=worker_env(),
                            stdout=log, stderr=subprocess.STDOUT)


def archive_rows(store):
    chunks = store._connection.execute(
        "SELECT key, chunk_index, payload, digest FROM campaign_chunks "
        "ORDER BY key, chunk_index").fetchall()
    results = store._connection.execute(
        "SELECT key, payload, n_runs FROM campaign_results "
        "ORDER BY key").fetchall()
    return chunks, results


def test_three_workers_under_chaos_drain_exactly_once(tmp_path):
    ir_path = tmp_path / "tiny.ir"
    ir_path.write_text(TINY_IR)
    data = json.loads(json.dumps(SPEC_DATA))
    data["grid"]["kernels"] = [str(ir_path)]
    spec = parse_spec(data, name="soak")
    cells = spec.cells()
    assert len(cells) == 6

    # Serial ground truth, computed in-process.
    with ResultStore(str(tmp_path / "serial.sqlite")) as serial:
        run_sweep(spec, serial)
        serial_rows = archive_rows(serial)

    queue_path = str(tmp_path / "queue.sqlite")
    store_path = str(tmp_path / "store.sqlite")
    with WorkQueue(queue_path) as queue:
        inserted = queue.enqueue(spec, max_attempts=5)
        assert len(inserted) == 6

    # Killed on its first cell after computing, before committing.  It
    # starts alone: the cells are tiny, so survivors started with it
    # could drain the queue before it leases one.  The lease it dies
    # holding must expire and be reclaimed by a survivor.
    killed = launch_worker("soak-kill", queue_path, store_path,
                           ["kill_cell=0"], tmp_path)
    # The chaos kill is a real SIGKILL, not an exception.
    assert killed.wait(timeout=240) == -signal.SIGKILL

    survivors = [
        # Forfeits its first lease mid-cell, then keeps going.
        launch_worker("soak-expire", queue_path, store_path,
                      ["expire_lease=0"], tmp_path),
        # Submits one forged envelope, which must be rejected.
        launch_worker("soak-forge", queue_path, store_path,
                      ["forge_envelope=0"], tmp_path),
    ]
    assert [worker.wait(timeout=240) for worker in survivors] == [0, 0]

    with WorkQueue(queue_path) as queue:
        status = queue.status()
        assert status["drained"], status
        assert status["states"]["done"] == 6
        assert status["states"]["poisoned"] == 0
        # Every cell is done exactly once: 6 done rows total, however
        # they were shared between the survivors.
        assert sum(status["workers"].values()) == 6
        # The forged envelope left evidence.
        assert any("bad signature" in reason
                   for _, _, reason in queue.quarantined())

    with ResultStore(store_path) as store:
        assert store.verify()["ok"]
        assert archive_rows(store) == serial_rows

    # The survivors' metrics snapshots show the lease protocol at
    # work: every grant is counted, and the killed worker's cell was
    # reclaimed by somebody.
    totals = {}
    for name in ("soak-expire", "soak-forge"):
        snapshot = json.loads(
            (tmp_path / f"{name}-metrics.json").read_text())
        for metric, value in snapshot["totals"].items():
            totals[metric] = totals.get(metric, 0) + value
    assert totals.get("dist.lease_grants", 0) >= 5
    assert totals.get("dist.lease_reclaims", 0) >= 1
    assert totals.get("dist.envelope_rejects", 0) >= 1
