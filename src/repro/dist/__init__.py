"""Distributed, crash-tolerant sweep execution.

The package is two small pieces:

- :mod:`repro.dist.queue` — the lease-based work queue (SQLite); its
  state is the coordinator's whole state, so there is no coordinator
  process;
- :mod:`repro.dist.worker` — the lease→execute→archive→complete loop.

The design inherits the store's central invariant: results are
content-addressed and schedule-independent, so *any* worker's result
is valid for everyone, duplicate archives are idempotent overwrites of
identical bytes, and at-least-once delivery is safe by construction.
"""

from repro.dist.queue import WorkQueue
from repro.dist.worker import DistWorker

__all__ = ["WorkQueue", "DistWorker"]
