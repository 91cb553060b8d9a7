"""Unit tests for the HTTP server core in :mod:`repro.server.http`.

The wire-level contract of the two real servers is pinned end to end in
test_http_contract.py; these cases pin the pieces underneath it one at a
time: request parsing, response framing, the route dispatcher's error
handling, the ``?wait=`` parser, :func:`~repro.server.http.serve`, the
thread runner and the proxy client.
"""

from __future__ import annotations

import asyncio
import json
import urllib.error
import urllib.request

import pytest

from repro.circuits.random_circuits import random_circuit
from repro.server import GatewayThread, RoutingClient, RoutingGateway, http
from repro.server.protocol import ProtocolError
from repro.service import BatchRoutingService


def parse(data: bytes, limit: int = 2 ** 16):
    """Run :func:`http.read_request` over ``data`` followed by EOF."""

    async def main():
        reader = asyncio.StreamReader(limit=limit)
        reader.feed_data(data)
        reader.feed_eof()
        return await http.read_request(reader, peer="10.0.0.1:5000")

    return asyncio.run(main())


def request_with(body: bytes = b"", **query) -> http.Request:
    return http.Request("GET", "/", query, {}, body)


class _Sink:
    """The two StreamWriter methods :func:`http.write_response` uses."""

    def __init__(self) -> None:
        self.data = bytearray()

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        pass


def render(status: int, payload, extra_headers: dict | None = None):
    """Status line, header dict and body of one written response."""
    sink = _Sink()
    asyncio.run(http.write_response(sink, status, payload,
                                    extra_headers or {}))
    head, _, body = bytes(sink.data).partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines)
    return status_line, headers, body


class TestRequestJson:
    def test_empty_body_is_an_empty_object(self):
        assert request_with().json() == {}

    def test_object_body_is_decoded(self):
        assert request_with(b'{"a": [1, 2]}').json() == {"a": [1, 2]}

    @pytest.mark.parametrize("body", [b"not json", b"\xff\xfe{}"])
    def test_undecodable_body_is_a_400(self, body):
        with pytest.raises(ProtocolError,
                           match="request body is not valid JSON") as excinfo:
            request_with(body).json()
        assert excinfo.value.http_status == 400

    def test_non_object_body_is_a_400(self):
        with pytest.raises(ProtocolError,
                           match="request body must be a JSON object"):
            request_with(b"[1, 2, 3]").json()


class TestReadRequest:
    def test_parses_line_query_headers_and_body(self):
        request = parse(b"post /v1/jobs?wait=1&x=a&x=b HTTP/1.1\r\n"
                        b"Content-Length: 4\r\nX-Client-Id:  alice \r\n\r\n"
                        b"abcd")
        assert request.method == "POST"
        assert request.path == "/v1/jobs"
        assert request.query == {"wait": "1", "x": "b"}
        assert request.headers == {"content-length": "4",
                                   "x-client-id": "alice"}
        assert request.body == b"abcd"
        assert request.peer == "10.0.0.1:5000"

    def test_bare_newlines_end_the_headers(self):
        request = parse(b"GET /healthz HTTP/1.1\nHost: h\n\n")
        assert (request.method, request.path, request.body) == \
            ("GET", "/healthz", b"")
        assert request.headers == {"host": "h"}

    def test_empty_request_line_is_no_request(self):
        assert parse(b"") is None
        assert parse(b"\r\n") is None

    @pytest.mark.parametrize("data, message, status", [
        (b"garbage\r\n\r\n", "malformed request line", 400),
        (b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
         "bad Content-Length", 400),
        (b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
         "bad Content-Length", 400),
        (b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
         % (http.MAX_BODY_BYTES + 1), "request body too large", 413),
        (b"GET / HTTP/1.1\r\n"
         + b"".join(b"X-%d: v\r\n" % i for i in range(http.MAX_HEADERS + 1))
         + b"\r\n", "too many headers", 400),
    ], ids=["request-line", "length-text", "length-negative",
            "length-over-cap", "header-count"])
    def test_malformed_requests_raise_protocol_errors(self, data, message,
                                                      status):
        with pytest.raises(ProtocolError, match=message) as excinfo:
            parse(data)
        assert excinfo.value.http_status == status

    def test_header_count_at_the_cap_is_accepted(self):
        request = parse(b"GET / HTTP/1.1\r\n"
                        + b"".join(b"X-%d: v\r\n" % i
                                   for i in range(http.MAX_HEADERS))
                        + b"\r\n")
        assert len(request.headers) == http.MAX_HEADERS

    def test_overlong_lines_are_protocol_errors(self):
        with pytest.raises(ProtocolError, match="request line too long"):
            parse(b"GET /" + b"a" * 200 + b" HTTP/1.1\r\n\r\n", limit=64)
        with pytest.raises(ProtocolError, match="header line too long"):
            parse(b"GET / HTTP/1.1\r\nX: " + b"a" * 200 + b"\r\n\r\n",
                  limit=64)

    def test_truncated_body_is_an_incomplete_read(self):
        with pytest.raises(asyncio.IncompleteReadError):
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")


class TestWriteResponse:
    def test_json_payload_is_sorted_and_framed(self):
        status_line, headers, body = render(200, {"b": 1, "a": 2})
        assert status_line == "HTTP/1.1 200 OK"
        assert body == b'{"a": 2, "b": 1}'
        assert headers == {"Content-Type": "application/json",
                           "Content-Length": str(len(body)),
                           "Connection": "close"}

    def test_text_payload_is_plain_utf8(self):
        status_line, headers, body = render(200, "café\n")
        assert headers["Content-Type"] == "text/plain; charset=utf-8"
        assert body == "café\n".encode()
        assert headers["Content-Length"] == str(len(body))

    def test_extra_headers_and_reason_phrase(self):
        status_line, headers, _ = render(429, {"error": "slow down"},
                                         {"Retry-After": "1.500"})
        assert status_line == "HTTP/1.1 429 Too Many Requests"
        assert headers["Retry-After"] == "1.500"


async def _answer_with(raw: bytes, received: list | None = None,
                       stall: asyncio.Event | None = None):
    """A one-shot TCP peer that sends ``raw`` after reading one request.

    With ``stall`` it answers nothing until the client hangs up, then sets
    the event.
    """

    async def on_connection(reader, writer):
        request = await http.read_request(reader)
        if received is not None:
            received.append(request)
        if stall is not None:
            await reader.read()
            writer.close()
            stall.set()
            return
        writer.write(raw)
        await writer.drain()
        writer.close()

    server = await asyncio.start_server(on_connection, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


class TestFetch:
    def test_round_trip_frames_the_request(self):
        received: list = []

        async def main():
            server, port = await _answer_with(
                b"HTTP/1.1 202 Accepted\r\nContent-Length: 2\r\n"
                b"Retry-After: 3\r\n\r\n{}trailing", received)
            async with server:
                return await http.fetch("127.0.0.1", port, "POST",
                                        "/v1/jobs?x=1", b'{"k": 1}',
                                        headers={"X-Client-Id": "c"})

        status, headers, body = asyncio.run(main())
        assert (status, body) == (202, b"{}")
        assert headers["retry-after"] == "3"
        (request,) = received
        assert (request.method, request.path, request.query) == \
            ("POST", "/v1/jobs", {"x": "1"})
        assert request.body == b'{"k": 1}'
        assert request.headers["x-client-id"] == "c"
        assert request.headers["connection"] == "close"

    def test_body_without_length_is_read_to_eof(self):
        async def main():
            server, port = await _answer_with(
                b"HTTP/1.1 200 OK\r\n\r\nall of it")
            async with server:
                return await http.fetch("127.0.0.1", port, "GET", "/")

        assert asyncio.run(main()) == (200, {}, b"all of it")

    def test_malformed_status_line_is_a_connection_error(self):
        async def main():
            server, port = await _answer_with(b"SSH-2.0-OpenSSH\r\n\r\n")
            async with server:
                return await http.fetch("127.0.0.1", port, "GET", "/")

        with pytest.raises(ConnectionError, match="malformed status line"):
            asyncio.run(main())

    def test_stalled_peer_times_out(self):
        async def main():
            hung_up = asyncio.Event()
            server, port = await _answer_with(b"", stall=hung_up)
            async with server:
                try:
                    await http.fetch("127.0.0.1", port, "GET", "/",
                                     timeout=0.2)
                finally:
                    await asyncio.wait_for(hung_up.wait(), 10)

        with pytest.raises(asyncio.TimeoutError):
            asyncio.run(main())


def _get(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.loads(error.read())


class TestConnectionLoop:
    def test_handler_crash_is_a_500_without_traceback(self, gateway):
        async def crash(request):
            raise RuntimeError("boom")

        gateway.server.routes.add("GET", "/test/crash", crash)
        status, body = _get(f"{gateway.url}/test/crash")
        assert status == 500
        assert body["error"] == "internal error: RuntimeError('boom')"
        assert "Traceback" not in json.dumps(body)

    def test_handler_protocol_error_keeps_its_status(self, gateway):
        async def conflict(request):
            raise ProtocolError("already there", http_status=409)

        gateway.server.routes.add("GET", "/test/conflict", conflict)
        before = dict(gateway.server.counters)
        status, body = _get(f"{gateway.url}/test/conflict")
        assert (status, body["error"]) == (409, "already there")
        after = gateway.server.counters
        assert after["requests"] == before["requests"] + 1
        assert after["bad_requests"] == before["bad_requests"] + 1

    def test_handler_args_and_extra_headers_reach_the_wire(self, gateway):
        async def echo(request):
            return 200, {"peer": request.peer.split(":")[0],
                         "q": request.query}, {"X-Echo": "yes"}

        gateway.server.routes.add("GET", "/test/echo", echo)
        with urllib.request.urlopen(f"{gateway.url}/test/echo?a=1",
                                    timeout=30) as response:
            assert response.headers["X-Echo"] == "yes"
            assert json.loads(response.read()) == {"peer": "127.0.0.1",
                                                   "q": {"a": "1"}}

    def test_non_numeric_wait_is_a_400(self, gateway):
        client = RoutingClient(port=gateway.port, retry_quota=0)
        ticket = client.submit(random_circuit(4, 6, seed=7),
                               architecture="tokyo6", router="sabre")
        status, body = _get(
            f"{gateway.url}/v1/jobs/{ticket['job_id']}?wait=soon")
        assert (status, body["error"]) == (400, "wait must be a number")

    @pytest.mark.parametrize("raw, expected", [
        (None, 0.0), ("-100", 0.0), ("2.5", 2.5), ("1e9", 7.0)])
    def test_long_poll_is_clamped_to_the_cap(self, gateway_factory, raw,
                                             expected):
        server = gateway_factory(long_poll_cap=7.0).server
        query = {} if raw is None else {"wait": raw}
        assert server.long_poll(http.Request("GET", "/", query, {},
                                             b"")) == expected


class TestServeAndThread:
    def test_serve_reports_the_bound_port_and_returns_after_drain(self):
        started: list[int] = []

        def on_started(server):
            started.append(server.port)
            server.initiate_drain()

        async def main():
            with BatchRoutingService(mode="serial") as service:
                gateway = RoutingGateway(service=service, port=0)
                await http.serve(gateway, install_signal_handlers=False,
                                 on_started=on_started)
                return gateway

        gateway = asyncio.run(main())
        assert started == [gateway.port] and gateway.port > 0
        assert gateway.draining

    # The factory's exception also ends the runner thread, as it should.
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_startup_failure_is_raised_from_start(self):
        def broken():
            raise ValueError("no such device")

        thread = http.ServerThread(broken)
        thread.kind = "widget"
        with pytest.raises(RuntimeError, match="widget failed to start") \
                as excinfo:
            thread.start()
        assert isinstance(excinfo.value.__cause__, ValueError)
        thread._thread.join(timeout=10)  # let the exception land here
        assert not thread._thread.is_alive()

    def test_stop_drains_and_joins(self):
        with BatchRoutingService(mode="serial") as service:
            with GatewayThread(service=service) as thread:
                assert thread.gateway is thread.server
                assert thread.url == f"http://127.0.0.1:{thread.port}"
                status, body = _get(f"{thread.url}/healthz")
                assert (status, body["status"]) == (200, "ok")
            assert thread.gateway.draining
            assert not thread._thread.is_alive()
