"""The dependency-free HTTP layer: router, dispatcher and the
server's request parsing."""

import asyncio
import json

import pytest

from repro.service import httpd
from repro.service.auth import Authenticator
from repro.service.httpd import (MAX_HEAD, Dispatcher, HTTPError,
                                 Request, Response, Router, serve)


class TestRouter:
    def make(self):
        router = Router()
        router.add("GET", "/health", lambda r: Response.json({}),
                   auth=False)
        router.add("GET", "/v1/sweeps/{job_id}", "status")
        router.add("GET", "/v1/sweeps/{job_id}/cells/{cell_id}",
                   "cell")
        router.add("POST", "/v1/sweeps", "submit")
        return router

    def test_static_route(self):
        route, params = self.make().resolve("GET", "/health")
        assert params == {}
        assert route.auth is False

    def test_captures_params(self):
        route, params = self.make().resolve("GET", "/v1/sweeps/abc12")
        assert route.handler == "status"
        assert params == {"job_id": "abc12"}

    def test_captures_multiple_params(self):
        _, params = self.make().resolve(
            "GET", "/v1/sweeps/j1/cells/c2")
        assert params == {"job_id": "j1", "cell_id": "c2"}

    def test_unknown_path_is_404(self):
        with pytest.raises(HTTPError) as caught:
            self.make().resolve("GET", "/nope")
        assert caught.value.status == 404

    def test_wrong_method_is_405(self):
        with pytest.raises(HTTPError) as caught:
            self.make().resolve("DELETE", "/v1/sweeps")
        assert caught.value.status == 405

    def test_param_does_not_span_segments(self):
        with pytest.raises(HTTPError):
            self.make().resolve("GET", "/v1/sweeps/a/b")


class TestRequest:
    def test_json_body(self):
        request = Request("POST", "/", body=b'{"a": 1}')
        assert request.json() == {"a": 1}

    def test_empty_body_is_400(self):
        with pytest.raises(HTTPError) as caught:
            Request("POST", "/").json()
        assert caught.value.status == 400

    def test_garbage_body_is_400(self):
        with pytest.raises(HTTPError) as caught:
            Request("POST", "/", body=b"{nope").json()
        assert caught.value.status == 400


def make_dispatcher(dev=False, keys=("k1",)):
    router = Router()
    router.add("GET", "/open", lambda r: Response.json({"ok": True}),
               auth=False)
    router.add("GET", "/locked",
               lambda r: Response.json({"actor": r.principal}))
    router.add("GET", "/boom", lambda r: 1 / 0)
    return Dispatcher(router, Authenticator(list(keys), dev=dev))


class TestDispatcher:
    def test_open_route_needs_no_key(self):
        result = make_dispatcher().dispatch(Request("GET", "/open"))
        assert result.status == 200

    def test_locked_route_401_without_key(self):
        result = make_dispatcher().dispatch(Request("GET", "/locked"))
        assert result.status == 401
        assert "WWW-Authenticate" in result.headers

    def test_locked_route_passes_principal(self):
        request = Request("GET", "/locked",
                          headers={"x-api-key": "k1"})
        result = make_dispatcher().dispatch(request)
        assert result.status == 200
        assert json.loads(result.body)["actor"].startswith("key:")

    def test_handler_exception_is_500_not_crash(self):
        request = Request("GET", "/boom",
                          headers={"x-api-key": "k1"})
        result = make_dispatcher().dispatch(request)
        assert result.status == 500

    def test_unknown_path_shaped_as_json_404(self):
        result = make_dispatcher().dispatch(Request("GET", "/nope"))
        assert result.status == 404
        assert "error" in json.loads(result.body)


def exchange(raw):
    """Send *raw* bytes to a fresh server over a plain socket and
    return everything it answers before closing."""

    async def talk():
        server = await serve(make_dispatcher(), "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(raw)
            await writer.drain()
            answer = await asyncio.wait_for(reader.read(), 10)
            writer.close()
            return answer
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(talk())


class TestRequestHead:
    @pytest.mark.parametrize("length", [b"abc", b"-5"])
    def test_bad_content_length_is_400(self, length):
        answer = exchange(b"POST /open HTTP/1.1\r\nContent-Length: "
                          + length + b"\r\n\r\nbody")
        assert answer.startswith(b"HTTP/1.1 400 ")
        assert b"Content-Length" in answer

    @pytest.mark.parametrize("size", [70 * 1024, 200 * 1024, 1024 * 1024],
                             ids=["70KB", "200KB", "1MB"])
    def test_oversized_head_is_413(self, size):
        # Heads past the reader's buffer leave bytes unread in the
        # socket; the server must drain them before closing, or the
        # kernel resets the connection before the 413 is read.
        assert size > MAX_HEAD
        padding = b"a" * size
        answer = exchange(b"GET /open HTTP/1.1\r\nX-Pad: " + padding
                          + b"\r\n\r\n")
        assert answer.startswith(b"HTTP/1.1 413 ")

    def test_stalled_request_is_408(self, monkeypatch):
        # Declares five body bytes, sends two and keeps the socket open.
        monkeypatch.setattr(httpd, "READ_TIMEOUT", 0.5)
        answer = exchange(b"POST /open HTTP/1.1\r\nContent-Length: 5"
                          b"\r\n\r\nab")
        assert answer.startswith(b"HTTP/1.1 408 ")
