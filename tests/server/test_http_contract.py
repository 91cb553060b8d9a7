"""The HTTP contract both servers share: a gateway and a 1-worker fleet.

The gateway and the fleet dispatcher run on one HTTP core
(:mod:`repro.server.http`), so malformed requests, unknown endpoints and the
documented endpoint set must behave identically on both.  Every case here
runs once per server.
"""

from __future__ import annotations

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.circuits.random_circuits import random_circuit
from repro.cluster import FleetConfig, FleetThread
from repro.server import GatewayThread, RoutingClient, http
from repro.service import BatchRoutingService

#: Every endpoint the gateway's module docstring documents.
DOCUMENTED = [
    ("GET", "/healthz"),
    ("GET", "/metrics"),
    ("GET", "/v1/devices"),
    ("GET", "/v1/events"),
    ("GET", "/v1/jobs"),
    ("GET", "/v1/jobs/<id>"),
    ("GET", "/v1/jobs/<id>/result"),
    ("GET", "/v1/jobs/<id>/trace"),
    ("GET", "/v1/routers"),
    ("GET", "/v1/slo"),
    ("GET", "/v1/stats"),
    ("POST", "/v1/admin/drain"),
    ("POST", "/v1/admin/profile"),
    ("POST", "/v1/jobs"),
]


def start_server(kind: str, tmp_path):
    """A started gateway or 1-worker fleet thread, plus its cleanup."""
    if kind == "gateway":
        service = BatchRoutingService(mode="serial", time_budget=5.0)
        thread = GatewayThread(service=service, time_budget=5.0).start()
        return thread, lambda: (thread.stop(), service.close())
    config = FleetConfig(workers=1, cache_dir=str(tmp_path / "cache"),
                         time_budget=5.0, pool_mode="thread", pool_workers=1,
                         health_interval=0.2)
    thread = FleetThread(config).start()
    return thread, thread.stop


@pytest.fixture(scope="module", params=["gateway", "fleet"])
def server(request, tmp_path_factory):
    thread, cleanup = start_server(request.param,
                                   tmp_path_factory.mktemp(request.param))
    yield thread
    cleanup()


def refusal(request: urllib.request.Request) -> tuple[int, dict]:
    """Status and JSON body of a request the server answers with an error."""
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=60)
    with excinfo.value as error:
        return error.code, json.loads(error.read())


def raw_exchange(port: int, data: bytes) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        return sock.recv(4096)


class TestMalformedRequests:
    def test_malformed_request_line_gets_http_400(self, server):
        assert raw_exchange(server.port, b"garbage\r\n\r\n").startswith(
            b"HTTP/1.1 400")

    def test_oversized_body_gets_http_413(self, server):
        reply = raw_exchange(server.port, b"POST /v1/jobs HTTP/1.1\r\n"
                             b"Content-Length: 99999999999\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 413")

    def test_negative_content_length_gets_http_400(self, server):
        reply = raw_exchange(server.port, b"POST /v1/jobs HTTP/1.1\r\n"
                             b"Content-Length: -5\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400")

    def test_oversized_header_line_gets_http_400(self, server):
        reply = raw_exchange(server.port, b"GET /healthz HTTP/1.1\r\nX-Bomb: "
                             + b"a" * 100_000 + b"\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400")

    def test_header_count_is_capped(self, server):
        reply = raw_exchange(server.port, b"GET /healthz HTTP/1.1\r\n"
                             + b"".join(b"X-H%d: v\r\n" % i
                                        for i in range(200)) + b"\r\n")
        assert reply.startswith(b"HTTP/1.1 400")

    def test_non_json_body_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/v1/jobs", data=b"not json at all",
            headers={"Content-Type": "application/json"}, method="POST")
        status, body = refusal(request)
        assert status == 400
        assert body["error"] == "request body is not valid JSON"

    @pytest.mark.parametrize("method, path", [("GET", "/v1/nope"),
                                              ("POST", "/v1/jobs/abc"),
                                              ("DELETE", "/healthz")])
    def test_unknown_endpoint_404(self, server, method, path):
        request = urllib.request.Request(f"{server.url}{path}", method=method)
        status, body = refusal(request)
        assert status == 404
        assert body["error"] == f"no such endpoint: {method} {path}"


@pytest.mark.parametrize("kind", ["gateway", "fleet"])
def test_every_documented_endpoint_answers(kind, tmp_path):
    """Both servers mount the documented set; only the fleet adds /v1/cluster."""
    thread, cleanup = start_server(kind, tmp_path)
    try:
        extra = [("GET", "/v1/cluster")] if kind == "fleet" else []
        assert thread.server.routes.endpoints() == sorted(DOCUMENTED + extra)

        client = RoutingClient(port=thread.port, client_id="sweeper",
                               retry_quota=0)
        ticket = client.submit(random_circuit(4, 6, seed=5, name="sweep"),
                               architecture="tokyo6", router="sabre")
        client.wait(ticket["job_id"], timeout=60)
        # The submission above answered POST /v1/jobs; drain goes last.
        sweep = [key for key in DOCUMENTED + [("GET", "/v1/cluster")]
                 if key not in (("POST", "/v1/jobs"),
                                ("POST", "/v1/admin/drain"))]
        answered = {}
        for method, path in sweep + [("POST", "/v1/admin/drain")]:
            target = path.replace("<id>", ticket["job_id"])
            if path == "/v1/admin/profile":
                target += "?seconds=0.05"
            request = urllib.request.Request(
                f"{thread.url}{target}", data=b"" if method == "POST" else None,
                method=method)
            try:
                with urllib.request.urlopen(request, timeout=60) as response:
                    answered[(method, path)] = response.status
            except urllib.error.HTTPError as error:
                answered[(method, path)] = error.code
                error.close()
        expected = {key: 200 for key in DOCUMENTED
                    if key != ("POST", "/v1/jobs")}
        expected[("GET", "/v1/cluster")] = 200 if kind == "fleet" else 404
        assert answered == expected
    finally:
        cleanup()


class TestRouteTable:
    def table(self):
        routes = http.RouteTable()
        routes.add("GET", "/v1/jobs", "list")
        routes.add_job("", "status")
        routes.add_job("/result", "result")
        routes.add_job("/trace", "trace")
        return routes

    def test_exact_routes_match_method_and_path(self):
        routes = self.table()
        assert routes.resolve("GET", "/v1/jobs") == ("list", ())
        assert routes.resolve("POST", "/v1/jobs") == (None, ())

    @pytest.mark.parametrize("path, expected", [
        ("/v1/jobs/abc", ("status", ("abc",))),
        ("/v1/jobs/abc/result", ("result", ("abc",))),
        ("/v1/jobs/abc/trace", ("trace", ("abc",))),
        ("/v1/jobs/", ("status", ("",))),
        ("/v1/jobs/a/b", ("status", ("a/b",))),
    ])
    def test_job_forms(self, path, expected):
        assert self.table().resolve("GET", path) == expected

    def test_job_forms_are_get_only(self):
        assert self.table().resolve("POST", "/v1/jobs/abc") == (None, ())

    def test_endpoints_lists_job_forms(self):
        assert self.table().endpoints() == [
            ("GET", "/v1/jobs"), ("GET", "/v1/jobs/<id>"),
            ("GET", "/v1/jobs/<id>/result"), ("GET", "/v1/jobs/<id>/trace")]
