"""Endpoint handlers: thin HTTP shims over :class:`JobService`.

The routers/handlers layer owns nothing but translation — request
parsing, error mapping (``SweepSpecError`` → 400, ``JobNotFound`` →
404), and response shaping.  All state and policy live in the
services layer (:mod:`repro.service.jobs`); all transport in
:mod:`repro.service.httpd`.  ``/health`` and ``/metrics`` are the
only unauthenticated routes (probes and scrapers don't carry keys).
"""

import json

import repro
from repro import obs
from repro.service.httpd import HTTPError, Response, Router
from repro.service.jobs import JobNotFound, campaign_spec
from repro.store.spec import SweepSpecError


def build_router(state):
    """Wire every endpoint; *state* is the live
    :class:`repro.service.app.CampaignService`."""
    router = Router()
    handlers = Handlers(state)
    router.add("GET", "/health", handlers.health, auth=False)
    router.add("GET", "/metrics", handlers.metrics, auth=False)
    router.add("POST", "/v1/sweeps", handlers.submit_sweep)
    router.add("POST", "/v1/campaigns", handlers.submit_campaign)
    router.add("GET", "/v1/sweeps", handlers.list_jobs)
    for prefix in ("/v1/sweeps", "/v1/campaigns"):
        router.add("GET", prefix + "/{job_id}", handlers.status)
        router.add("GET", prefix + "/{job_id}/report",
                   handlers.report)
        router.add("GET", prefix + "/{job_id}/cells/{cell_id}",
                   handlers.cell)
    return router


def _wrap(call, *args, **kwargs):
    """Run a service-layer call, mapping its errors onto HTTP."""
    try:
        return call(*args, **kwargs)
    except JobNotFound as missing:
        raise HTTPError(404, "unknown job: %s" % missing.args[0])
    except SweepSpecError as invalid:
        raise HTTPError(400, "invalid spec: %s" % invalid)


class Handlers:
    def __init__(self, state):
        self.state = state

    @property
    def service(self):
        return self.state.job_service

    # -- operational -------------------------------------------------------

    def health(self, request):
        return Response.json({
            "status": "ok",
            "version": repro.__version__,
            "dev": self.state.authenticator.dev,
            "keys": self.state.authenticator.n_keys,
            "workers": self.state.config.workers,
            "queue": self.state.config.queue_path,
            "store": self.state.config.store_path,
        })

    def metrics(self, request):
        return Response(
            200, obs.metrics().to_prometheus(),
            content_type="text/plain; version=0.0.4")

    # -- submission --------------------------------------------------------

    def submit_sweep(self, request):
        body = request.json()
        if not isinstance(body, dict) or \
                not isinstance(body.get("spec"), dict):
            raise HTTPError(
                400, "body must be {\"spec\": {...grid spec...}}")
        result = _wrap(
            self.service.submit, body["spec"],
            name=str(body.get("name", "sweep")), kind="sweep",
            actor=request.principal)
        return Response.json(result,
                             200 if result["idempotent"] else 201)

    def submit_campaign(self, request):
        body = request.json()
        if not isinstance(body, dict):
            raise HTTPError(400, "body must be a campaign object")
        result = _wrap(
            self.service.submit, campaign_spec(body),
            name=str(body.get("name", "campaign")), kind="campaign",
            actor=request.principal)
        return Response.json(result,
                             200 if result["idempotent"] else 201)

    # -- read models -------------------------------------------------------

    def list_jobs(self, request):
        return Response.json({"jobs": self.service.jobs.jobs()})

    def status(self, request):
        return Response.json(
            _wrap(self.service.status, request.params["job_id"]))

    def report(self, request):
        return Response.json(
            _wrap(self.service.report, request.params["job_id"]))

    def cell(self, request):
        payload = _wrap(self.service.cell, request.params["job_id"],
                        request.params["cell_id"])
        return Response.json(json.loads(json.dumps(payload,
                                                   default=str)))
