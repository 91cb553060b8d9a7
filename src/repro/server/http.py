"""The HTTP server core shared by the gateway and the cluster dispatcher.

One request per connection, ``Connection: close``, bodies framed by
``Content-Length``: all a JSON API needs, and all stdlib.
:class:`~repro.server.app.RoutingGateway` and
:class:`~repro.cluster.dispatcher.ClusterDispatcher` are both
:class:`HttpServer` subclasses, so they share every byte of wire handling:
the listener and connection loop (request counter, ``bad_requests``,
:class:`~repro.server.protocol.ProtocolError` -> its status, 500 without a
traceback, JSON with ``sort_keys=True`` or plain text), the JSON-body and
``?wait=`` parsers, admission refusals, drain, and the endpoints both answer
alike (``/healthz``, ``/v1/routers``, ``/v1/devices``, ``/v1/events``,
``/v1/admin/drain``).  Each mounts only its own handlers in the
:class:`RouteTable`; a handler is a coroutine ``handler(request, *args) ->
(status, payload, extra_headers)``.  :func:`serve` runs a server in the
foreground (SIGTERM/SIGINT drain it), :class:`ServerThread` on a daemon
thread, and :func:`fetch` is the tiny client the dispatcher proxies with.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
import urllib.parse
from dataclasses import dataclass

from repro.api.registry import describe_routers
from repro.hardware.devices import device_records, named_architectures
from repro.obs.events import LEVELS
from repro.server import protocol

#: Hard cap on request body size (canonical QASM for big circuits is ~1 MB).
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Seconds a request may take to arrive before the connection is dropped.
READ_TIMEOUT = 30.0
#: Most header lines accepted per request.
MAX_HEADERS = 100
#: Default upper bound on ``?wait=`` long-poll durations, seconds.
LONG_POLL_CAP = 30.0
#: Prefix of the per-job routes ``/v1/jobs/<id>[/result|/trace]``.
JOB_PREFIX = "/v1/jobs/"

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 409: "Conflict", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            502: "Bad Gateway", 503: "Service Unavailable"}


@dataclass
class Request:
    """One parsed HTTP request (header names lower-cased)."""

    method: str
    path: str
    query: dict
    headers: dict
    body: bytes
    peer: str = "unknown"

    def json(self) -> dict:
        """The body as a JSON object (``{}`` when empty); else a 400."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise protocol.ProtocolError(
                "request body is not valid JSON") from None
        if not isinstance(payload, dict):
            raise protocol.ProtocolError("request body must be a JSON object")
        return payload


async def _read_headers(reader: asyncio.StreamReader) -> dict[str, str]:
    """Header lines up to the blank line, names lower-cased."""
    headers: dict[str, str] = {}
    while True:
        try:
            line = await reader.readline()
        except ValueError:
            raise protocol.ProtocolError("header line too long") from None
        if line in (b"\r\n", b"\n", b""):
            return headers
        if len(headers) >= MAX_HEADERS:
            raise protocol.ProtocolError("too many headers")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


def _frame(first_line: str, headers: dict, body: bytes) -> bytes:
    """One message: start line, header lines, blank line, body."""
    lines = [first_line,
             *(f"{name}: {value}" for name, value in headers.items())]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def read_request(reader: asyncio.StreamReader,
                       peer: str = "unknown") -> Request | None:
    """Parse one request off ``reader``.

    Returns ``None`` on an empty request line (client connected and went
    away); raises :class:`~repro.server.protocol.ProtocolError` on anything
    malformed.  The query dict keeps the last value of each repeated key.
    """
    try:
        request_line = await reader.readline()
    except ValueError:  # line over the StreamReader limit
        raise protocol.ProtocolError("request line too long") from None
    if not request_line.strip():
        return None
    try:
        method, target, _ = request_line.decode("latin-1").split(None, 2)
    except ValueError:
        raise protocol.ProtocolError("malformed request line") from None
    headers = await _read_headers(reader)
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise protocol.ProtocolError("bad Content-Length") from None
    if length < 0:
        raise protocol.ProtocolError("bad Content-Length")
    if length > MAX_BODY_BYTES:
        raise protocol.ProtocolError("request body too large",
                                     http_status=413)
    body = await reader.readexactly(length) if length else b""
    parsed = urllib.parse.urlsplit(target)
    query = {key: values[-1] for key, values
             in urllib.parse.parse_qs(parsed.query).items()}
    return Request(method.upper(), parsed.path, query, headers, body, peer)


async def write_response(writer: asyncio.StreamWriter, status: int,
                         payload, extra_headers: dict) -> None:
    """Send one ``Connection: close`` response (JSON or text) and flush it."""
    if isinstance(payload, str):
        body, content_type = payload.encode(), "text/plain; charset=utf-8"
    else:
        body = json.dumps(payload, sort_keys=True).encode()
        content_type = "application/json"
    writer.write(_frame(f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
                        {"Content-Type": content_type,
                         "Content-Length": len(body), "Connection": "close",
                         **extra_headers}, body))
    await writer.drain()


class RouteTable:
    """Exact ``(method, path)`` routes plus the per-job ``GET`` forms.

    ``/v1/jobs/<id>`` resolves to the ``""`` job route and
    ``/v1/jobs/<id>/result`` / ``/trace`` to theirs, with the job id as the
    handler's extra argument.
    """

    JOB_SUFFIXES = ("/result", "/trace")

    def __init__(self) -> None:
        self._exact: dict[tuple[str, str], object] = {}
        self._jobs: dict[str, object] = {}

    def add(self, method: str, path: str, handler) -> None:
        self._exact[(method, path)] = handler

    def add_job(self, suffix: str, handler) -> None:
        self._jobs[suffix] = handler

    def endpoints(self) -> list[tuple[str, str]]:
        """Every mounted ``(method, path)``, job forms as ``<id>``."""
        forms = [("GET", f"{JOB_PREFIX}<id>{suffix}") for suffix in self._jobs]
        return sorted([*self._exact, *forms])

    def resolve(self, method: str, path: str):
        """``(handler, args)`` for a request, ``(None, ())`` when unrouted."""
        handler = self._exact.get((method, path))
        if handler is not None:
            return handler, ()
        if method == "GET" and path.startswith(JOB_PREFIX) and self._jobs:
            job_id = path[len(JOB_PREFIX):]
            for suffix in self.JOB_SUFFIXES:
                if job_id.endswith(suffix):
                    return self._jobs[suffix], (job_id[:-len(suffix)],)
            return self._jobs[""], (job_id,)
        return None, ()


class HttpServer:
    """Listener, connection loop and shared endpoints (see module doc).

    Subclasses set ``event_log`` and ``admission``; implement
    ``start``, ``_begin_drain`` and the handlers :meth:`_mount` names but
    this class does not define; and call :meth:`_close_listener` then
    ``self._closed.set()`` once drained.
    """

    def __init__(self, host: str, port: int, architectures: dict | None,
                 long_poll_cap: float = LONG_POLL_CAP) -> None:
        self.host = host
        self.port = port
        self.architectures = (architectures if architectures is not None
                              else named_architectures())
        self.long_poll_cap = long_poll_cap
        #: Request counters; subclasses add their own names.
        self.counters = {"requests": 0, "bad_requests": 0}
        self._draining = False
        self._open_jobs = 0  # queued + running; admission's pending count
        self._started = time.monotonic()
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._closed = asyncio.Event()
        self.routes = RouteTable()
        self._mount(self.routes)

    def _mount(self, routes: RouteTable) -> None:
        """Mount the documented endpoint set; subclasses may add routes."""
        for method, path, handler in (
                ("GET", "/healthz", self._health),
                ("GET", "/metrics", self._metrics),
                ("GET", "/v1/routers", self._routers),
                ("GET", "/v1/devices", self._devices),
                ("GET", "/v1/stats", self._stats),
                ("GET", "/v1/slo", self._slo),
                ("GET", "/v1/events", self._events),
                ("POST", "/v1/jobs", self._submit),
                ("GET", "/v1/jobs", self._list_jobs),
                ("POST", "/v1/admin/drain", self._drain),
                ("POST", "/v1/admin/profile", self._profile)):
            routes.add(method, path, handler)
        routes.add_job("", self._job_status)
        routes.add_job("/result", self._job_result)
        routes.add_job("/trace", self._job_trace)

    # ------------------------------------------------------------- lifecycle

    async def _listen(self) -> None:
        """Bind the listening socket; port 0 resolves to the bound port."""
        self._server = await asyncio.start_server(self._on_connection,
                                                  self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def _close_listener(self) -> None:
        """Stop accepting, then let in-flight responses (long polls) finish."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._connections:
            await asyncio.wait(self._connections,
                               timeout=self.long_poll_cap + 5.0)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining

    def initiate_drain(self) -> None:
        """Begin graceful shutdown (idempotent; call from the loop thread).

        New submissions are refused with 503 from this point on; in-flight
        work finishes and stays fetchable, then the server closes.
        """
        if self._draining:
            return
        self._draining = True
        self.event_log.emit("drain-initiated", level="warning",
                            **dict(self._drain_fields(),
                                   jobs_open=self._open_jobs))
        self._begin_drain()

    async def wait_closed(self) -> None:
        """Block until a drain has fully completed."""
        await self._closed.wait()

    def uptime(self) -> float:
        return round(time.monotonic() - self._started, 3)

    def _admit(self, client_id: str):
        """``None`` when admission lets a submission in, else its 429."""
        decision = self.admission.admit(client_id, pending=self._open_jobs)
        if decision:
            return None
        self.event_log.emit("admission-rejected", level="warning",
                            client=client_id, reason=decision.reason,
                            retry_after=round(decision.retry_after, 3),
                            pending=self._open_jobs)
        body = protocol.error_payload(
            f"over quota ({decision.reason})", reason=decision.reason,
            retry_after=decision.retry_after)
        return 429, body, {"Retry-After": f"{decision.retry_after:.3f}"}

    def long_poll(self, request: Request) -> float:
        """The request's ``?wait=`` seconds, clamped to ``[0, cap]``."""
        return protocol.numeric_param(request.query, "wait", 0.0,
                                      minimum=0.0, maximum=self.long_poll_cap)

    # ------------------------------------------------------------ HTTP layer

    def _on_connection(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
        task = asyncio.create_task(self._handle_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "unknown"
        try:
            try:
                request = await asyncio.wait_for(read_request(reader, peer),
                                                 READ_TIMEOUT)
                if request is None:
                    return
                self.counters["requests"] += 1
                response = await self._respond(request)
            except protocol.ProtocolError as error:
                # Malformed on the wire (bad request line, oversized or
                # negative Content-Length) or refused by a handler.
                self.counters["bad_requests"] += 1
                response = (error.http_status,
                            protocol.error_payload(str(error)), {})
            await write_response(writer, *response)
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError):
            pass  # client went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _respond(self, request: Request):
        handler, args = self.routes.resolve(request.method, request.path)
        if handler is None:
            return 404, protocol.error_payload(
                f"no such endpoint: {request.method} {request.path}"), {}
        try:
            return await handler(request, *args)
        except protocol.ProtocolError:
            raise  # a 4xx, answered by the connection loop
        except Exception as error:  # never leak a traceback to the wire
            return 500, protocol.error_payload(
                f"internal error: {error!r}"), {}

    # ------------------------------------------------------ shared endpoints

    def _health_fields(self) -> dict:
        """Extra ``/healthz`` fields beyond status, version and uptime."""
        return {}

    def _drain_fields(self) -> dict:
        """Extra ``/v1/admin/drain`` reply fields beyond ``draining``."""
        return {}

    async def _health(self, request: Request):
        from repro import __version__

        return 200, protocol.envelope(
            status="draining" if self._draining else "ok",
            version=__version__, uptime=self.uptime(),
            **self._health_fields()), {}

    async def _routers(self, request: Request):
        return 200, protocol.envelope(
            routers=describe_routers(request.query.get("capability"))), {}

    async def _devices(self, request: Request):
        return 200, protocol.envelope(
            devices=device_records(),
            architectures=sorted(self.architectures)), {}

    async def _events(self, request: Request):
        """``/v1/events``: this process's structured event tail."""
        query = request.query
        limit = int(protocol.numeric_param(query, "limit", 50,
                                           minimum=1, maximum=1000))
        level = query.get("level") or None
        if level is not None and level not in LEVELS:
            raise protocol.ProtocolError(
                f"unknown level {level!r}; pick one of {sorted(LEVELS)}")
        events = self.event_log.tail(limit=limit, level=level,
                                     event=query.get("event") or None)
        return 200, protocol.envelope(
            events=events, counts=self.event_log.counts_by_level(),
            dropped=self.event_log.dropped), {}

    async def _drain(self, request: Request):
        self.initiate_drain()
        return 200, protocol.envelope(draining=True,
                                      **self._drain_fields()), {}


async def serve(server: HttpServer, install_signal_handlers: bool = True,
                on_started=None) -> None:
    """Start ``server`` and block until it has drained and closed.

    With ``install_signal_handlers`` (the default, used by ``repro serve``
    and by fleet workers) SIGTERM and SIGINT trigger
    ``server.initiate_drain``, so a ^C or an orchestrator's stop signal
    finishes in-flight jobs -- best-so-far within their budgets -- before
    the process exits.  ``on_started`` is called with the server once its
    port is bound (the CLI prints its listening line there).
    """
    await server.start()
    if install_signal_handlers:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.initiate_drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-POSIX platforms / non-main threads
    if on_started is not None:
        on_started(server)
    await server.wait_closed()


class ServerThread:
    """Run an :class:`HttpServer` on a daemon thread's own event loop.

    ``factory`` builds the server on that loop.  :meth:`start` waits up to
    ``start_timeout`` seconds for the port to be bound; :meth:`stop` (and
    leaving the ``with`` block) initiates a drain and joins the thread, so
    queued jobs finish before it returns.
    """

    kind = "server"
    start_timeout = 10.0
    stop_timeout = 60.0

    def __init__(self, factory) -> None:
        self._factory = factory
        self.server: HttpServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        finally:
            self._loop.close()

    async def _main(self) -> None:
        try:
            self.server = self._factory()
            await serve(self.server, install_signal_handlers=False,
                        on_started=lambda _: self._ready.set())
        except BaseException as error:
            if not self._ready.is_set():
                self._startup_error = error
                self._ready.set()
            raise

    def start(self):
        self._thread.start()
        self._ready.wait(timeout=self.start_timeout)
        if self._startup_error is not None:
            raise RuntimeError(
                f"{self.kind} failed to start") from self._startup_error
        if self.server is None:
            raise RuntimeError(f"{self.kind} did not start within "
                               f"{self.start_timeout:.0f}s")
        return self

    @property
    def host(self) -> str:
        assert self.server is not None
        return self.server.host

    @property
    def port(self) -> int:
        assert self.server is not None
        return self.server.port

    @property
    def url(self) -> str:
        assert self.server is not None
        return self.server.url

    def stop(self, timeout: float | None = None) -> None:
        """Drain the server and join its thread."""
        if self._loop is not None and self.server is not None \
                and self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self.server.initiate_drain)
            except RuntimeError:
                pass  # the loop closed between is_alive() and the call
        self._thread.join(timeout=self.stop_timeout if timeout is None
                          else timeout)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


async def fetch(host: str, port: int, method: str, path: str,
                body: bytes = b"", headers: dict | None = None,
                timeout: float = 30.0):
    """One client-side request: returns ``(status, headers, body)``.

    Raises ``OSError``/``ConnectionError`` when the peer is unreachable and
    ``asyncio.TimeoutError`` when it stalls -- the dispatcher maps both onto
    a worker-health event.  The response body is framed by Content-Length
    when present, else read to EOF (the gateway always sends a length).
    """

    async def _roundtrip():
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(_frame(f"{method} {path} HTTP/1.1",
                                {"Host": f"{host}:{port}",
                                 "Content-Length": len(body),
                                 "Connection": "close", **(headers or {})},
                                body))
            await writer.drain()
            status_line = await reader.readline()
            parts = status_line.decode("latin-1").split(None, 2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise ConnectionError(f"malformed status line {status_line!r}")
            status = int(parts[1])
            response_headers = await _read_headers(reader)
            length_text = response_headers.get("content-length")
            if length_text is not None:
                payload = await reader.readexactly(int(length_text))
            else:
                payload = await reader.read()
            return status, response_headers, payload
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    return await asyncio.wait_for(_roundtrip(), timeout)
