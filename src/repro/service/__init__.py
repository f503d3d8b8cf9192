"""Campaign-as-a-service: an HTTP API over store + queue + engine.

The service is a thin, authenticated front door to machinery that
already exists: submissions enqueue cells into the
:mod:`repro.dist` lease queue, workers (in-process or external
``repro dist work`` hosts) drain them through the same
lease→execute→archive→complete loop, and reads decode the
content-addressed store.  Job ids *are* spec content digests, so
resubmission is idempotent by construction.  It serves submit, status
and report; callers poll.

Layering (routers/handlers vs. services):

* :mod:`repro.service.httpd` — transport: stdlib asyncio HTTP/1.1
  server and router.
* :mod:`repro.service.routes` — handlers: request/response shaping
  only.
* :mod:`repro.service.jobs` — services: submission, status, report
  assembly.
* :mod:`repro.service.auth` — hashed multi-key auth.
* :mod:`repro.service.app` — wiring and lifecycle
  (:class:`CampaignService` is ``repro serve``).
"""

from repro.service.app import CampaignService, ServiceConfig
from repro.service.auth import (AuthConfigError, Authenticator,
                                keys_from_env)
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.jobs import JobNotFound, JobService, JobsTable
from repro.service.workers import WorkerPool

__all__ = [
    "AuthConfigError", "Authenticator", "CampaignService",
    "JobNotFound", "JobService", "JobsTable", "ServiceClient",
    "ServiceClientError", "ServiceConfig", "WorkerPool",
    "keys_from_env",
]
