"""Campaign-as-a-service: an HTTP API over store + queue + engine.

The service is a thin, audited front door to machinery that already
exists: submissions enqueue cells into the
:mod:`repro.dist` lease queue, workers (in-process or external
``repro dist work`` hosts) drain them through the signed-envelope
commit path, and reads decode the content-addressed store.  Job ids
*are* spec content digests, so resubmission is idempotent by
construction.

Layering (routers/handlers vs. services):

* :mod:`repro.service.httpd` — transport: stdlib asyncio HTTP/1.1
  server, router and SSE.
* :mod:`repro.service.routes` — handlers: request/response shaping
  only.
* :mod:`repro.service.jobs` — services: submission, status, report
  assembly.
* :mod:`repro.service.auth` / :mod:`~repro.service.audit` /
  :mod:`~repro.service.webhooks` — the production trimmings: hashed
  multi-key auth, an append-only audit table, HMAC-signed completion
  callbacks.
* :mod:`repro.service.app` — wiring and lifecycle
  (:class:`CampaignService` is ``repro serve``).
"""

from repro.service.app import CampaignService, ServiceConfig
from repro.service.auth import (AuthConfigError, Authenticator,
                                keys_from_env)
from repro.service.audit import AuditLog
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.events import EventBroker
from repro.service.jobs import JobNotFound, JobService, JobsTable
from repro.service.webhooks import (sign_webhook, verify_webhook,
                                    WebhookNotifier)
from repro.service.workers import WorkerPool

__all__ = [
    "AuditLog", "AuthConfigError", "Authenticator", "CampaignService",
    "EventBroker", "JobNotFound", "JobService", "JobsTable",
    "ServiceClient", "ServiceClientError", "ServiceConfig",
    "WebhookNotifier", "WorkerPool", "keys_from_env", "sign_webhook",
    "verify_webhook",
]
