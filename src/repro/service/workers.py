"""The in-process worker pool behind ``repro serve``.

A small deployment should not need a second command: ``repro serve
--workers N`` runs N drain loops inside the service process, each an
unmodified :class:`repro.dist.worker.DistWorker` — the same lease /
execute / archive / complete protocol an external ``repro dist work``
host speaks, against the same queue file.  Scaling out later is
therefore zero-migration: point external workers at the queue DB and
start the service with ``--workers 0``.

Each pool thread opens its own :class:`~repro.dist.queue.WorkQueue`
and :class:`~repro.store.db.ResultStore` (SQLite connections are
thread-bound); runner caches persist across wakes, so repeated
submissions of the same spec skip re-setup.  Threads sleep on a wake
event between drains — a submission calls :meth:`wake` and every idle
worker re-enters its drain loop immediately.
"""

import threading

from repro import obs
from repro.dist.queue import DEFAULT_LEASE_SECONDS, WorkQueue
from repro.dist.worker import DistWorker
from repro.store.db import ResultStore

#: Seconds an idle pool thread waits on the wake event before
#: re-checking the queue anyway (missed-wake safety net).
IDLE_WAIT = 2.0


class WorkerPool:
    """N daemon drain-loops over one queue/store pair."""

    def __init__(self, queue_path, store_path, count=1,
                 lease_seconds=DEFAULT_LEASE_SECONDS, engine_workers=1,
                 cell_timeout=None, name="serve"):
        self.queue_path = queue_path
        self.store_path = store_path
        self.count = count
        self.lease_seconds = lease_seconds
        self.engine_workers = engine_workers
        self.cell_timeout = cell_timeout
        self.name = name
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._threads = []

    def start(self):
        for index in range(self.count):
            thread = threading.Thread(
                target=self._run, args=("%s-%d" % (self.name, index),),
                name="repro-worker-%d" % index, daemon=True)
            thread.start()
            self._threads.append(thread)

    def wake(self):
        """New work arrived: rouse every idle drain loop."""
        self._wake.set()

    def stop(self, timeout=5.0):
        self._stop.set()
        self._wake.set()
        for thread in self._threads:
            thread.join(timeout=timeout)

    def _run(self, worker_id):
        queue = WorkQueue(self.queue_path)
        store = ResultStore(self.store_path)
        worker = DistWorker(
            queue, store, worker_id=worker_id,
            lease_seconds=self.lease_seconds,
            engine_workers=self.engine_workers,
            # Idle exits return to the pool's wake wait, not the
            # drain loop's own long poll.
            max_idle_seconds=IDLE_WAIT,
            cell_timeout=self.cell_timeout)
        try:
            while not self._stop.is_set():
                try:
                    worker.run()
                except Exception as error:
                    obs.logger().error("service.worker_crashed",
                                       worker=worker_id,
                                       error=repr(error))
                if self._stop.is_set():
                    break
                self._wake.wait(IDLE_WAIT)
                self._wake.clear()
        finally:
            queue.close()
            store.close()
