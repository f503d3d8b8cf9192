"""Dependency-free asyncio HTTP/1.1 server and router.

The built-in :func:`serve` speaks just enough HTTP/1.1 — one request
per connection, ``Connection: close`` — to run the whole campaign
service with no framework installed at all.  Requests funnel through
one :class:`Dispatcher`, which owns auth, routing, metrics and error
shaping.  Every handler is a plain function returning a
:class:`Response`.
"""

import asyncio
import json
import re

from repro import obs

#: Largest accepted request head (request line + headers).
MAX_HEAD = 64 * 1024

#: Largest accepted request body (sweep specs are a few KB).
MAX_BODY = 8 * 1024 * 1024

#: Seconds a client may take to send its request head and body; a
#: slower request gets a 408.
READ_TIMEOUT = 30.0

_REASONS = {
    200: "OK", 201: "Created", 202: "Accepted", 204: "No Content",
    400: "Bad Request", 401: "Unauthorized", 403: "Forbidden",
    404: "Not Found", 405: "Method Not Allowed",
    408: "Request Timeout", 409: "Conflict", 413: "Payload Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class HTTPError(Exception):
    """Raise from a handler to produce a JSON error response."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = status
        self.message = message


class Request:
    """One parsed HTTP request, transport-agnostic."""

    def __init__(self, method, path, headers=None, body=b"",
                 params=None, principal=None):
        self.method = method
        self.path = path
        self.headers = headers or {}    # lower-cased names
        self.body = body
        self.params = params or {}      # router path captures
        self.principal = principal

    def json(self):
        """The request body decoded as JSON (400 on garbage)."""
        if not self.body:
            raise HTTPError(400, "empty request body")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise HTTPError(400, "invalid JSON body: %s" % error)


class Response:
    def __init__(self, status=200, body=b"", content_type="text/plain",
                 headers=None):
        if isinstance(body, str):
            body = body.encode("utf-8")
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = headers or {}

    @classmethod
    def json(cls, payload, status=200):
        body = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        return cls(status, body, "application/json")


class Route:
    def __init__(self, method, pattern, handler, auth):
        self.method = method
        self.pattern = pattern
        self.handler = handler
        self.auth = auth
        regex = "".join(
            "(?P<%s>[^/]+)" % part[1:-1]
            if part.startswith("{") and part.endswith("}")
            else re.escape(part)
            for part in re.split(r"(\{[a-z_]+\})", pattern))
        self.regex = re.compile("^%s$" % regex)


class Router:
    """Method + ``/path/{param}`` pattern matching."""

    def __init__(self):
        self._routes = []

    def add(self, method, pattern, handler, auth=True):
        self._routes.append(Route(method.upper(), pattern, handler,
                                  auth))

    def resolve(self, method, path):
        """The matching route and its path captures.

        Raises 404 for an unknown path, 405 when the path exists but
        not under this method.
        """
        methods = set()
        for route in self._routes:
            match = route.regex.match(path)
            if match is None:
                continue
            if route.method == method.upper():
                return route, match.groupdict()
            methods.add(route.method)
        if methods:
            raise HTTPError(
                405, "method %s not allowed (try %s)"
                % (method, ", ".join(sorted(methods))))
        raise HTTPError(404, "no such resource: %s" % path)


class Dispatcher:
    """Auth + routing + metrics, shared by every transport."""

    def __init__(self, router, authenticator):
        self.router = router
        self.authenticator = authenticator

    def dispatch(self, request):
        """Run *request* through auth and its handler; always returns
        a :class:`Response`."""
        route_label = request.path
        try:
            route, params = self.router.resolve(request.method,
                                                request.path)
            route_label = route.pattern
            if route.auth:
                principal = self.authenticator.authenticate(
                    request.headers)
                if principal is None:
                    obs.metrics().counter(
                        "service.auth_failures").inc()
                    response = Response.json(
                        {"error": "missing or invalid API key"}, 401)
                    response.headers["WWW-Authenticate"] = \
                        "Bearer realm=\"repro\""
                    raise _Shortcut(response)
                request.principal = principal
            request.params = params
            result = route.handler(request)
        except _Shortcut as shortcut:
            result = shortcut.response
        except HTTPError as error:
            result = Response.json({"error": error.message},
                                   error.status)
        except Exception as error:  # handler bug: surface, don't die
            obs.logger().error("service.handler_error",
                               path=request.path, error=repr(error))
            result = Response.json(
                {"error": "internal error: %s" % error}, 500)
        obs.metrics().counter(
            "service.requests", route=route_label,
            method=request.method,
            status=str(result.status)).inc()
        return result


class _Shortcut(Exception):
    def __init__(self, response):
        self.response = response


async def _read_request(reader):
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError:
        raise HTTPError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, _version = lines[0].split(" ", 2)
    except ValueError:
        raise HTTPError(400, "malformed request line")
    headers = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length") or "0"
    if not re.fullmatch("[0-9]+", raw_length):
        raise HTTPError(400, "invalid Content-Length: %r" % raw_length)
    length = int(raw_length)
    if length > MAX_BODY:
        raise HTTPError(413, "request body too large")
    body = await reader.readexactly(length) if length else b""
    path = target.partition("?")[0]
    return Request(method, path, headers, body)


def _head_bytes(status, headers):
    reason = _REASONS.get(status, "Unknown")
    lines = ["HTTP/1.1 %d %s" % (status, reason)]
    lines.extend("%s: %s" % item for item in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def _write_response(writer, result):
    headers = {"Content-Type": result.content_type,
               "Content-Length": str(len(result.body)),
               "Connection": "close", **result.headers}
    writer.write(_head_bytes(result.status, headers))
    writer.write(result.body)
    await writer.drain()


async def _reject(reader, writer, error):
    """Answer a request that was not read in full with *error*.

    Closing a socket with request bytes still unread makes the kernel
    reset the connection, and the client may lose the response.  So
    half-close after the response and discard what the client still
    sends (at most ``MAX_BODY`` bytes, within ``READ_TIMEOUT``).
    """
    await _write_response(writer, Response.json(
        {"error": error.message}, error.status))
    writer.write_eof()

    async def discard():
        left = MAX_BODY
        while left > 0:
            chunk = await reader.read(MAX_HEAD)
            if not chunk:
                return
            left -= len(chunk)

    try:
        await asyncio.wait_for(discard(), READ_TIMEOUT)
    except asyncio.TimeoutError:
        pass


def connection_handler(dispatcher):
    """The ``asyncio.start_server`` callback for *dispatcher*."""

    async def handle(reader, writer):
        try:
            try:
                request = await asyncio.wait_for(_read_request(reader),
                                                 READ_TIMEOUT)
            except asyncio.TimeoutError:
                await _reject(reader, writer, HTTPError(
                    408, "request not received within %g s"
                    % READ_TIMEOUT))
                return
            except HTTPError as error:
                await _reject(reader, writer, error)
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            result = dispatcher.dispatch(request)
            await _write_response(writer, result)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    return handle


async def serve(dispatcher, host, port):
    """Start the built-in server; returns the asyncio server object
    (inspect ``.sockets[0].getsockname()`` for the bound port)."""
    return await asyncio.start_server(
        connection_handler(dispatcher), host, port,
        limit=MAX_HEAD)

