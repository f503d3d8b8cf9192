"""The campaign service: wiring, lifecycle, threads.

``repro serve`` is this class.  One process hosts three kinds of
thread, stitched together by the queue file:

* the **HTTP loop** (asyncio, stdlib server) owning its own
  :class:`~repro.dist.queue.WorkQueue` / store handles — every
  handler runs here, serialized by the event loop;
* the **worker pool** (optional, ``--workers N``) — unmodified
  :class:`~repro.dist.worker.DistWorker` drain loops;
* the caller's thread, which only starts and stops the rest.

External ``repro dist work`` processes pointed at the same queue DB
participate identically — the service never assumes its own pool is
the only consumer.
"""

import asyncio
import threading

from repro import obs
from repro.dist.queue import (DEFAULT_LEASE_SECONDS,
                              DEFAULT_MAX_ATTEMPTS, WorkQueue)
from repro.store.db import ResultStore

from repro.service import httpd
from repro.service.auth import Authenticator
from repro.service.jobs import JobService, JobsTable
from repro.service.routes import build_router
from repro.service.workers import WorkerPool


class ServiceConfig:
    """Everything ``repro serve`` accepts, as one value object."""

    def __init__(self, queue_path, store_path, host="127.0.0.1",
                 port=8035, api_keys=(), dev=False, workers=1,
                 engine_workers=1, lease_seconds=DEFAULT_LEASE_SECONDS,
                 max_attempts=DEFAULT_MAX_ATTEMPTS,
                 cell_timeout=None):
        self.queue_path = queue_path
        self.store_path = store_path
        self.host = host
        self.port = port
        self.api_keys = tuple(api_keys)
        self.dev = dev
        self.workers = workers
        self.engine_workers = engine_workers
        self.lease_seconds = lease_seconds
        self.max_attempts = max_attempts
        self.cell_timeout = cell_timeout


class CampaignService:
    """Start/stop wrapper around the whole service process."""

    def __init__(self, config):
        self.config = config
        # Auth misconfiguration must fail construction, before any
        # socket binds (no accidental wide-open service).
        self.authenticator = Authenticator(config.api_keys,
                                           dev=config.dev)
        self.jobs_table = JobsTable(config.queue_path)
        self.pool = WorkerPool(
            config.queue_path, config.store_path,
            count=config.workers, lease_seconds=config.lease_seconds,
            engine_workers=config.engine_workers,
            cell_timeout=config.cell_timeout)
        self.job_service = None      # built on the loop thread
        self.port = None             # bound port (resolves :0)
        self._loop = None
        self._loop_thread = None
        self._ready = threading.Event()
        self._startup_error = None

    # -- lifecycle ---------------------------------------------------------

    def start(self, timeout=30.0):
        """Bind, spin up every thread, and wait for readiness.

        Returns the bound port (useful with ``port=0``); raises if the
        HTTP loop failed to come up.
        """
        self.pool.start()
        self._loop_thread = threading.Thread(
            target=self._serve, name="repro-serve", daemon=True)
        self._loop_thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self.port

    def stop(self):
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=10.0)
        self.pool.stop()
        self.jobs_table.close()

    def _serve(self):
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        queue = store = server = None
        try:
            # Loop-thread-owned handles: every handler runs on this
            # loop, so these connections are never shared across
            # threads.
            queue = WorkQueue(self.config.queue_path)
            store = ResultStore(self.config.store_path)
            self.job_service = JobService(
                queue, store, self.jobs_table, wake=self.pool.wake,
                max_attempts=self.config.max_attempts)
            dispatcher = httpd.Dispatcher(build_router(self),
                                          self.authenticator)
            server = loop.run_until_complete(httpd.serve(
                dispatcher, self.config.host, self.config.port))
            self.port = server.sockets[0].getsockname()[1]
            obs.logger().info("service.listening",
                              host=self.config.host, port=self.port)
        except Exception as error:
            self._startup_error = error
            self._ready.set()
            if queue is not None:
                queue.close()
            if store is not None:
                store.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            server.close()
            loop.run_until_complete(server.wait_closed())
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(asyncio.gather(
                    *pending, return_exceptions=True))
            queue.close()
            store.close()
            loop.close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()
