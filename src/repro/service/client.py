"""A stdlib HTTP client for the campaign service.

``repro client ...`` and the CI gate both go through this class, so
the service's public surface is exercised exactly the way an external
caller would: real sockets, real auth headers, JSON over the wire.
No third-party HTTP library — :mod:`urllib.request` is enough for a
request/response API.
"""

import json
import time
import urllib.error
import urllib.request

from repro.store.spec import load_spec


class ServiceClientError(Exception):
    """A non-2xx response (or transport failure)."""

    def __init__(self, status, message, body=None):
        super().__init__("HTTP %s: %s" % (status, message))
        self.status = status
        self.body = body


class ServiceClient:
    def __init__(self, base_url, api_key=None, timeout=30.0):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout

    # -- transport ---------------------------------------------------------

    def _headers(self):
        headers = {"Accept": "application/json"}
        if self.api_key:
            headers["Authorization"] = "Bearer %s" % self.api_key
        return headers

    def request(self, method, path, payload=None):
        """One round trip; JSON in, decoded JSON (or text) out."""
        body = None
        headers = self._headers()
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=body, headers=headers,
            method=method)
        try:
            with urllib.request.urlopen(
                    request, timeout=self.timeout) as response:
                raw = response.read()
                content_type = response.headers.get(
                    "Content-Type", "")
        except urllib.error.HTTPError as error:
            raw = error.read()
            try:
                decoded = json.loads(raw.decode())
                message = decoded.get("error", raw.decode())
            except (ValueError, UnicodeDecodeError):
                decoded, message = None, raw.decode(errors="replace")
            raise ServiceClientError(error.code, message,
                                     body=decoded)
        except urllib.error.URLError as error:
            raise ServiceClientError("connection", str(error.reason))
        if content_type.startswith("application/json"):
            return json.loads(raw.decode())
        return raw.decode()

    # -- endpoints ---------------------------------------------------------

    def submit(self, spec, name=None):
        """Submit a sweep: *spec* is a path (``.toml``/``.json``) or
        an already-decoded spec dict."""
        if isinstance(spec, str):
            parsed = load_spec(spec)
            data, default_name = parsed.data, parsed.name
        else:
            data, default_name = spec, "sweep"
        body = {"spec": data, "name": name or default_name}
        return self.request("POST", "/v1/sweeps", body)

    def status(self, job_id):
        return self.request("GET", "/v1/sweeps/%s" % job_id)

    def report(self, job_id):
        return self.request("GET", "/v1/sweeps/%s/report" % job_id)

    def wait(self, job_id, timeout=600.0, poll=0.5, progress=None):
        """Poll until the job's queue scope drains; returns the final
        status payload (raises on timeout)."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if progress is not None:
                progress(status)
            if status["drained"]:
                return status
            if time.monotonic() >= deadline:
                raise ServiceClientError(
                    "timeout",
                    "job %s not drained after %.0fs: %s"
                    % (job_id, timeout, status["states"]))
            time.sleep(poll)
