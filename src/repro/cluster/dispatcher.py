"""The fleet front-end: one listening socket, N shard workers behind it.

:class:`ClusterDispatcher` owns the public address of a sharded serving
fleet.  Every submission is parsed and keyed (the same
:meth:`~repro.service.BatchRoutingService.job_key` content hash the
single-process gateway deduplicates by), consistent-hashed onto one of N
:class:`~repro.cluster.worker.WorkerHandle` gateway processes, and proxied
there over loopback HTTP.  Because equal jobs always map to the same shard,
the per-gateway cross-client dedup of PR 4 holds *fleet-wide*: duplicate
submissions from any number of clients trigger exactly one solve.

Beyond routing, the dispatcher is the fleet's control plane:

* **Admission** -- the PR-4 token-bucket controller runs here, in front of
  the whole fleet (workers keep only a pending-bound safety valve), so 429
  ``Retry-After`` hints reflect fleet capacity.
* **Health** -- a sweep task watches worker processes and restarts crashed
  ones *on the same shard id*; the ring never moves, so a reborn worker
  resumes its key range and re-serves finished work from the shared disk
  cache.  A worker that keeps dying past ``max_restarts`` is cut from the
  ring and its range flows to the survivors.
* **Aggregation** -- ``/v1/stats`` and ``/metrics`` merge every shard's
  view into fleet totals plus per-shard ``{shard="k"}`` labelled series,
  alongside the dispatcher's own ``repro_cluster_*`` instruments.
  Mirrored per-shard counters go through a monotone fold so a worker
  restart (which resets its in-process counters) never makes a scraped
  counter regress.  ``/v1/slo`` merges every shard's windowed CDFs into
  true fleet quantiles, ``/v1/events`` serves the dispatcher's own
  control-plane event stream (restarts, disables, drains), and
  ``POST /v1/admin/profile`` profiles one shard (``?shard=K``) or the
  dispatcher plus every live worker concurrently.
* **Drain** -- ``/v1/admin/drain`` (or SIGTERM via
  :func:`repro.server.serve`)
  fans out to every worker, waits for them to finish their queues
  best-so-far, then closes the listener.
* **Traces** -- ``/v1/jobs/<id>/trace`` is proxied to the owning shard and
  the returned tree is re-rooted under a ``dispatch`` span carrying the
  shard id and proxy latency, so ``repro trace <job>`` shows the full
  fleet path: dispatch -> job -> route -> sat-solve.

Endpoints mirror the gateway's (clients cannot tell a dispatcher from a
single gateway, except for the extra ``/v1/cluster`` topology view and the
``shard`` field stamped into job payloads).  The wire handling -- listener,
connection loop, route table, JSON bodies, ``?wait=`` parsing, the shared
inquiry endpoints and drain -- is the :mod:`repro.server.http` core the
gateway uses too; this module mounts only the fleet's own handlers.
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
import urllib.parse
from collections import OrderedDict
from dataclasses import dataclass

from repro.cluster.config import FleetConfig
from repro.cluster.hashring import HashRing
from repro.cluster.worker import WorkerHandle
from repro.obs import profiler as obs_profiler
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import merge_slo_statuses, mirror_slo
from repro.obs.trace import render_trace
from repro.server import http, protocol
from repro.server.admission import AdmissionController
from repro.server.app import RoutingGateway
from repro.service import BatchRoutingService

#: Most recent job -> shard dispatch records kept for trace re-rooting.
MAX_DISPATCH_RECORDS = 4096
#: Attempts to reach a shard before surfacing 503 (submits are idempotent
#: by content hash, so a blind retry after a connection failure is safe).
PROXY_ATTEMPTS = 3
#: Health sweeps between open-job resyncs feeding admission backpressure.
STATS_SWEEP_EVERY = 4


@dataclass
class DispatchRecord:
    """Where one job went and how long the submit proxy took."""

    shard: int
    start: float  # wall-clock submit arrival, epoch seconds
    duration: float  # submit proxy round trip, seconds
    retries: int = 0


class ClusterDispatcher(http.HttpServer):
    """Front-end dispatcher for a sharded gateway fleet (see module doc)."""

    def __init__(self, config: FleetConfig,
                 admission: AdmissionController | None = None,
                 architectures: dict | None = None) -> None:
        # Long polls are clamped to the workers' own cap, so the proxy
        # timeout always covers the wait a worker will actually honour.
        super().__init__(config.host, config.port, architectures,
                         config.gateway_options.get("long_poll_cap",
                                                    http.LONG_POLL_CAP))
        self.config = config
        self.ring = HashRing(config.shard_ids(),
                             replicas=config.ring_replicas)
        self.workers: dict[int, WorkerHandle] = {
            shard: WorkerHandle(config, shard)
            for shard in config.shard_ids()}
        self.admission = admission if admission is not None else \
            AdmissionController(rate=config.rate, burst=config.burst,
                                max_pending=config.max_pending)
        # Computes job keys exactly as the workers do (same budget default,
        # same portfolio namespace); never solves -- its pool is lazy and
        # route_batch is never called on it.
        self._keyer = BatchRoutingService(
            time_budget=config.time_budget, portfolio=config.portfolio,
            cache=False, tracer=False)
        self.metrics = MetricsRegistry()
        self._dispatched = self.metrics.counter(
            "repro_cluster_dispatched_total",
            "Submissions routed to a shard worker, by shard")
        self._retried = self.metrics.counter(
            "repro_cluster_retried_total",
            "Proxy attempts repeated after a shard connection failure")
        self._restarts_counter = self.metrics.counter(
            "repro_cluster_worker_restarts_total",
            "Crashed shard workers restarted by the health sweep")
        self.counters.update(dict.fromkeys((
            "dispatched", "retried", "rejected", "rejected_draining",
            "proxy_failures", "worker_restarts"), 0))
        self._dispatch_log: OrderedDict[str, DispatchRecord] = OrderedDict()
        #: The dispatcher's own operational narrative: restarts, disables,
        #: drains.  Shares the fleet's events directory when one is set.
        self.event_log = EventLog(directory=config.events_dir,
                                  owner="dispatcher")
        #: Monotone floors for mirrored per-shard counters: (metric, shard)
        #: -> (carried base, last raw reading).  A restarted worker resets
        #: its in-process counters to zero; re-exporting the raw reading
        #: would make a *counter* go backwards, which breaks every
        #: rate()-style consumer.  Instead the pre-restart total is folded
        #: into the base, so the mirrored series never regresses.
        self._monotone: dict[tuple[str, str], tuple[float, float]] = {}
        self._health_task: asyncio.Task | None = None
        self._shutdown_task: asyncio.Task | None = None
        self._restarting: set[int] = set()
        self._disabled: set[int] = set()

    def _mount(self, routes: http.RouteTable) -> None:
        super()._mount(routes)
        routes.add("GET", "/v1/cluster", self._cluster)

    # --------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Spawn the worker fleet, bind the listener, start the health sweep."""
        loop = asyncio.get_running_loop()
        started: list[WorkerHandle] = []
        try:
            for handle in self.workers.values():
                await loop.run_in_executor(None, handle.start)
                started.append(handle)
        except BaseException:
            for handle in started:
                handle.terminate()
            raise
        await self._listen()
        self._health_task = asyncio.create_task(self._health_loop())

    def _begin_drain(self) -> None:
        self._shutdown_task = asyncio.ensure_future(self._shutdown())

    def _health_fields(self) -> dict:
        return {"role": "dispatcher", "workers": len(self.workers),
                "workers_alive": sum(1 for handle in self.workers.values()
                                     if handle.alive())}

    def _drain_fields(self) -> dict:
        return {"workers": len(self.workers)}

    async def _shutdown(self) -> None:
        loop = asyncio.get_running_loop()
        if self._health_task is not None:
            self._health_task.cancel()
        # Fan out the drain; workers finish their queues best-so-far.
        await asyncio.gather(
            *(self._fetch_worker(handle, "POST", "/v1/admin/drain",
                                 body=b"{}", timeout=10.0)
              for handle in self.workers.values() if handle.alive()),
            return_exceptions=True)
        # A drained gateway exits once its queue empties; give each worker
        # its full budget plus slack before escalating to SIGTERM/SIGKILL.
        join_budget = self.config.time_budget + 30.0

        def _reap() -> None:
            deadline = time.monotonic() + join_budget
            for handle in self.workers.values():
                if handle.process is None:
                    continue
                handle.process.join(
                    timeout=max(0.1, deadline - time.monotonic()))
                handle.terminate(join_timeout=5.0)

        await loop.run_in_executor(None, _reap)
        await self._close_listener()
        self._keyer.close()
        self._closed.set()

    # ------------------------------------------------------------ health sweep

    async def _health_loop(self) -> None:
        loop = asyncio.get_running_loop()
        sweep = 0
        while not self._draining:
            await asyncio.sleep(self.config.health_interval)
            sweep += 1
            for shard, handle in self.workers.items():
                if self._draining:
                    return
                if (handle.alive() or shard in self._restarting
                        or shard in self._disabled):
                    continue
                self._restarting.add(shard)
                try:
                    if handle.restarts >= self.config.max_restarts:
                        self._disable_shard(shard)
                        continue
                    await loop.run_in_executor(None, handle.restart)
                    self.counters["worker_restarts"] += 1
                    self._restarts_counter.inc(shard=str(shard))
                    self.event_log.emit("worker-restart", level="warning",
                                        shard=shard, pid=handle.pid,
                                        restarts=handle.restarts)
                except Exception as error:
                    # Startup itself failed; count the attempt and let the
                    # next sweep retry (or give up past max_restarts).
                    self.counters["worker_restarts"] += 1
                    self._restarts_counter.inc(shard=str(shard))
                    self.event_log.emit("worker-restart-failed",
                                        level="error", shard=shard,
                                        error=repr(error))
                finally:
                    self._restarting.discard(shard)
            if sweep % STATS_SWEEP_EVERY == 0:
                await self._resync_open_jobs()

    def _disable_shard(self, shard: int) -> None:
        """Give up on a flapping worker; its range flows to ring successors."""
        if shard in self._disabled or len(self.ring) <= 1:
            return
        self.ring.remove(shard)
        self._disabled.add(shard)
        self.event_log.emit("shard-disabled", level="error", shard=shard,
                            restarts=self.workers[shard].restarts,
                            shards_serving=len(self.ring))

    async def _resync_open_jobs(self) -> None:
        """Refresh the fleet-wide open-job estimate feeding backpressure."""
        per_shard = await self._gather_worker_json("GET", "/v1/stats")
        self._open_jobs = sum(int(stats.get("jobs_open", 0))
                              for stats in per_shard.values()
                              if stats is not None)

    # ----------------------------------------------------------------- proxying

    async def _fetch_worker(self, handle: WorkerHandle, method: str,
                            path: str, body: bytes = b"",
                            headers: dict | None = None,
                            timeout: float = http.READ_TIMEOUT):
        """One attempt against one worker; ``None`` on any transport failure."""
        port = handle.port
        if port is None or not handle.alive():
            return None
        try:
            return await http.fetch(handle.host, port, method, path,
                                    body=body, headers=headers,
                                    timeout=timeout)
        except (OSError, ConnectionError, asyncio.TimeoutError,
                asyncio.IncompleteReadError):
            return None

    async def _proxy(self, shard: int, method: str, path: str,
                     body: bytes = b"", headers: dict | None = None,
                     timeout: float = http.READ_TIMEOUT):
        """Proxy with bounded retry; returns ``(status, payload, extra, tries)``.

        Safe for submissions too: they are idempotent by content hash, so
        replaying one after a connection failure cannot double-solve.
        Returns ``None`` when the shard stays unreachable -- the caller maps
        that to 503 + ``Retry-After`` and the health sweep brings the worker
        back.
        """
        handle = self.workers.get(shard)
        if handle is None:  # pragma: no cover - defensive
            return None
        for attempt in range(PROXY_ATTEMPTS):
            if attempt:
                self.counters["retried"] += 1
                self._retried.inc()
                # Give the health sweep a chance to respawn the worker.
                await asyncio.sleep(
                    min(1.0, self.config.health_interval * (attempt + 0.5)))
            response = await self._fetch_worker(handle, method, path,
                                                body=body, headers=headers,
                                                timeout=timeout)
            if response is not None:
                return (*self._decode_proxied(shard, *response), attempt)
        self.counters["proxy_failures"] += 1
        return None

    @staticmethod
    def _decode_proxied(shard: int, status: int, response_headers: dict,
                        body: bytes):
        """A shard's reply as a local handler result, JSON stamped ``shard``."""
        extra = {}
        if "retry-after" in response_headers:
            extra["Retry-After"] = response_headers["retry-after"]
        if response_headers.get("content-type", "").startswith(
                "application/json"):
            try:
                payload = json.loads(body.decode("utf-8"))
            except ValueError:  # pragma: no cover - worker never sends this
                pass
            else:
                if isinstance(payload, dict):
                    payload["shard"] = shard
                return status, payload, extra
        return status, body.decode("utf-8", errors="replace"), extra

    async def _forward(self, shard: int, method: str, path: str,
                       timeout: float):
        """Proxy one request to ``shard``; 503 while it is unreachable."""
        response = await self._proxy(shard, method, path, timeout=timeout)
        return self._unavailable(shard) if response is None else response[:3]

    def _unavailable(self, shard: int) -> tuple[int, dict, dict]:
        retry_after = max(1.0, self.config.health_interval * 2)
        return 503, protocol.error_payload(
            f"shard {shard} is restarting", shard=shard,
            retry_after=retry_after), {"Retry-After": f"{retry_after:.3f}"}

    def _record_dispatch(self, job_id: str, record: DispatchRecord) -> None:
        log = self._dispatch_log
        existing = log.get(job_id)
        if existing is not None:
            existing.shard = record.shard
            existing.duration = record.duration
            existing.retries += record.retries
            log.move_to_end(job_id)
            return
        log[job_id] = record
        while len(log) > MAX_DISPATCH_RECORDS:
            log.popitem(last=False)

    # ---------------------------------------------------------------- endpoints

    async def _submit(self, request: http.Request):
        payload = request.json()
        client_id = request.headers.get("x-client-id") or request.peer
        arrived = time.time()
        if self._draining:
            self.counters["rejected_draining"] += 1
            return 503, protocol.error_payload("fleet is draining"), {}
        refusal = self._admit(client_id)
        if refusal is not None:
            self.counters["rejected"] += 1
            return refusal

        def parse_and_key() -> str:
            job = protocol.parse_submit(payload, self.architectures)
            return self._keyer.job_key(job)

        loop = asyncio.get_running_loop()
        job_key = await loop.run_in_executor(None, parse_and_key)
        shard = self.ring.shard_for(job_key)
        forwarded = {"Content-Type": "application/json"}
        if "x-client-id" in request.headers:
            forwarded["X-Client-Id"] = request.headers["x-client-id"]
        response = await self._proxy(shard, "POST", "/v1/jobs",
                                     body=request.body, headers=forwarded)
        if response is None:
            return self._unavailable(shard)
        status, decoded, extra, tries = response
        self._record_dispatch(job_key, DispatchRecord(
            shard=shard, start=arrived, duration=time.time() - arrived,
            retries=tries))
        if status == 202:
            # Only an accepted job opens work on the shard: a deduplicated
            # answer (200) or a worker-side refusal (429/503) adds none, and
            # counting it would trip fleet backpressure on idle shards.
            self.counters["dispatched"] += 1
            self._open_jobs += 1
            self._dispatched.inc(shard=str(shard))
        return status, decoded, extra

    async def _job_request(self, request: http.Request, job_id: str,
                           suffix: str) -> tuple[int, object, dict]:
        """Status/result/trace lookups, proxied to the owning shard."""
        shard = self.ring.shard_for(job_id)
        path = f"/v1/jobs/{job_id}{suffix}"
        timeout = http.READ_TIMEOUT
        if suffix == "":
            timeout += self.long_poll(request)
        if request.query:
            path += "?" + urllib.parse.urlencode(request.query)
        status, decoded, extra = await self._forward(shard, "GET", path,
                                                     timeout)
        if suffix == "/trace" and status == 200 and isinstance(decoded, dict):
            self._reroot_trace(job_id, shard, decoded)
        return status, decoded, extra

    _job_status = functools.partialmethod(_job_request, suffix="")
    _job_result = functools.partialmethod(_job_request, suffix="/result")
    _job_trace = functools.partialmethod(_job_request, suffix="/trace")

    def _reroot_trace(self, job_id: str, shard: int, payload: dict) -> None:
        """Wrap the worker's span tree under the dispatcher's dispatch span.

        The worker's gateway owns the ``job`` root in its own process; the
        dispatcher cannot graft into that tracer, so the fleet view is
        synthesised at read time from the dispatch record taken when the
        submission was proxied.  ``repro trace <job>`` then shows
        dispatch -> job -> route -> ... in one tree.
        """
        tree = payload.get("trace")
        record = self._dispatch_log.get(job_id)
        if not isinstance(tree, dict) or record is None:
            return
        tree_end = float(tree.get("start", record.start)) + float(
            tree.get("duration") or 0.0)
        duration = max(record.duration, tree_end - record.start)
        dispatch_span = {
            "name": "dispatch",
            "trace_id": tree.get("trace_id", job_id[:16]),
            "span_id": f"dispatch-{job_id[:16]}",
            "start": record.start,
            "duration": duration,
            "attributes": {"shard": record.shard, "job": job_id,
                           "proxy_seconds": round(record.duration, 6),
                           "retries": record.retries},
            "children": [tree],
        }
        payload["trace"] = dispatch_span
        payload["rendered"] = render_trace(dispatch_span)

    async def _list_jobs(self, request: http.Request):
        """Fan out ``GET /v1/jobs`` and merge, tagging each job's shard."""
        per_shard = await self._gather_worker_json("GET", "/v1/jobs",
                                                   timeout=10.0)
        merged = [dict(job, shard=shard)
                  for shard, listing in per_shard.items() if listing is not None
                  for job in listing.get("jobs", [])]
        return 200, protocol.envelope(jobs=merged), {}

    # -------------------------------------------------------------- aggregation

    async def _gather_worker_json(self, method: str, path: str,
                                  timeout: float = 5.0,
                                  ) -> dict[int, dict | None]:
        """Fan ``method path`` out to every worker; ``None`` per failure."""
        async def one(shard: int, handle: WorkerHandle):
            response = await self._fetch_worker(handle, method, path,
                                                timeout=timeout)
            if response is None:
                return shard, None
            status, _, body = response
            if status != 200:
                return shard, None
            try:
                return shard, json.loads(body)
            except ValueError:  # pragma: no cover - defensive
                return shard, None

        pairs = await asyncio.gather(*(one(shard, handle) for shard, handle
                                       in sorted(self.workers.items())))
        return dict(pairs)

    async def _slo(self, request: http.Request):
        """``/v1/slo``: per-shard statuses plus the true fleet merge.

        Shard trackers ship their raw windowed bucket counts, so the fleet
        quantiles come from summed CDFs -- not averaged shard quantiles.
        """
        per_shard = await self._gather_worker_json("GET", "/v1/slo")
        merged = merge_slo_statuses(
            [status for status in per_shard.values() if status is not None])
        return 200, protocol.envelope(
            fleet=merged,
            shards={str(shard): status
                    for shard, status in per_shard.items()}), {}

    async def _profile(self, request: http.Request):
        """``POST /v1/admin/profile``: one shard (``?shard=K``) or the fleet.

        The fleet form profiles every live worker *and* the dispatcher
        process concurrently for the same window, so one call answers
        "where is the whole deployment spending its seconds?".
        """
        query = request.query
        seconds = protocol.numeric_param(
            query, "seconds", 1.0, minimum=0.05,
            maximum=obs_profiler.MAX_PROFILE_SECONDS)
        qs = urllib.parse.urlencode(
            {key: query[key] for key in ("seconds", "interval")
             if key in query})
        path = "/v1/admin/profile" + (f"?{qs}" if qs else "")
        fetch_timeout = seconds + 30.0
        if "shard" in query:
            try:
                shard = int(query["shard"])
            except ValueError:
                raise protocol.ProtocolError("shard must be an integer") \
                    from None
            if shard not in self.workers:
                return 404, protocol.error_payload(
                    f"unknown shard {shard}"), {}
            return await self._forward(shard, "POST", path, fetch_timeout)
        loop = asyncio.get_running_loop()
        self.event_log.emit("profile-start", seconds=seconds, shard="*")
        own, per_shard = await asyncio.gather(
            loop.run_in_executor(
                None, lambda: obs_profiler.profile(seconds)),
            self._gather_worker_json("POST", path, timeout=fetch_timeout))
        return 200, protocol.envelope(
            seconds=seconds, dispatcher=own,
            shards={str(shard): report
                    for shard, report in per_shard.items()}), {}

    def _monotone_total(self, metric: str, shard: str,
                        reported: float) -> float:
        """Fold per-shard counter readings into a never-regressing total."""
        base, last = self._monotone.get((metric, shard), (0.0, 0.0))
        if reported < last:
            # The worker restarted and its in-process counter reset; carry
            # everything it had reported before the reset as a base.
            base += last
        self._monotone[(metric, shard)] = (base, reported)
        return base + reported

    def _fleet_section(self) -> dict:
        workers = [handle.describe() for _, handle
                   in sorted(self.workers.items())]
        return {
            "uptime": self.uptime(),
            "draining": self._draining,
            "workers": len(self.workers),
            "workers_alive": sum(1 for worker in workers if worker["alive"]),
            "shards_serving": self.ring.shards,
            "dispatcher": dict(self.counters),
            "admission": self.admission.stats(),
            "events": self.event_log.counts_by_level(),
            "worker_detail": workers,
        }

    async def _cluster(self, request: http.Request):
        return 200, protocol.envelope(
            fleet=self._fleet_section(),
            ring={"replicas": self.config.ring_replicas,
                  "shards": self.ring.shards}), {}

    async def _stats(self, request: http.Request):
        per_shard = await self._gather_worker_json("GET", "/v1/stats")
        totals = {"jobs_open": 0, "jobs_known": 0, "throughput": 0.0,
                  "gateway": {}, "telemetry": {}, "cache": {}}
        cache_totals: dict[str, float] = {}
        cache_shared_max: dict[str, float] = {}
        for stats in per_shard.values():
            if stats is None:
                continue
            totals["jobs_open"] += int(stats.get("jobs_open", 0))
            totals["jobs_known"] += int(stats.get("jobs_known", 0))
            totals["throughput"] += float(stats.get("throughput", 0.0))
            for name, value in stats.get("gateway", {}).items():
                totals["gateway"][name] = totals["gateway"].get(name, 0) + value
            for kind, count in stats.get("telemetry", {}).items():
                totals["telemetry"][kind] = (totals["telemetry"].get(kind, 0)
                                             + count)
            for name, value in stats.get("cache", {}).items():
                cache_totals[name] = cache_totals.get(name, 0) + value
                cache_shared_max[name] = max(cache_shared_max.get(name, 0),
                                             value)
        if cache_totals:
            # Counters (hits/stores/...) sum across shards; entries and
            # bytes describe the one shared directory, so take the freshest
            # (max) view instead of multiply counting it.
            totals["cache"] = {
                name: (cache_shared_max[name]
                       if name in ("entries", "total_bytes", "max_bytes")
                       else value)
                for name, value in cache_totals.items() if name != "hit_rate"}
        totals["throughput"] = round(totals["throughput"], 4)
        return 200, protocol.envelope(
            fleet=self._fleet_section(), totals=totals,
            shards={str(shard): stats
                    for shard, stats in per_shard.items()}), {}

    _FLEET_COUNTER_HELP = {
        **RoutingGateway.COUNTER_HELP,
        "requests": "HTTP requests handled by this shard",
        "submitted": "Jobs accepted for solving on this shard",
    }

    async def _metrics(self, request: http.Request):
        """The fleet ``/metrics``: dispatcher instruments + per-shard mirrors."""
        from repro import __version__

        registry = self.metrics
        registry.gauge("repro_cluster_info",
                       "Fleet identity and topology.").set(
            1, version=__version__,
            wire_version=str(protocol.WIRE_VERSION),
            workers=str(len(self.workers)))
        registry.gauge("repro_cluster_uptime_seconds",
                       "Seconds since the dispatcher started").set(
            self.uptime())
        registry.gauge("repro_cluster_draining",
                       "Whether a fleet drain is in progress").set(
            int(self._draining))
        registry.gauge("repro_cluster_workers",
                       "Configured shard workers").set(len(self.workers))
        registry.gauge("repro_cluster_workers_alive",
                       "Shard worker processes currently alive").set(
            sum(1 for handle in self.workers.values() if handle.alive()))
        registry.gauge("repro_cluster_jobs_open",
                       "Fleet-wide open jobs (health-sweep estimate)").set(
            self._open_jobs)
        for name in ("requests", "rejected", "rejected_draining",
                     "bad_requests", "proxy_failures"):
            registry.counter(f"repro_cluster_{name}_total",
                             f"Dispatcher {name.replace('_', ' ')}"
                             ).set_total(self.counters[name])
        admission = self.admission.stats()
        registry.counter("repro_cluster_admission_admitted_total",
                         "Submissions admitted by the fleet controller"
                         ).set_total(admission["admitted"])
        rejected = registry.counter(
            "repro_cluster_admission_rejected_total",
            "Submissions rejected by the fleet controller, by reason")
        for reason in ("quota", "backpressure"):
            rejected.set_total(admission[f"rejected_{reason}"], reason=reason)
        per_shard, slo_statuses = await asyncio.gather(
            self._gather_worker_json("GET", "/v1/stats"),
            self._gather_worker_json("GET", "/v1/slo"))
        alive_gauge = registry.gauge("repro_fleet_worker_up",
                                     "Whether each shard answered /v1/stats")
        open_gauge = registry.gauge("repro_fleet_jobs_open",
                                    "Open jobs per shard")
        for shard, stats in per_shard.items():
            label = str(shard)
            alive_gauge.set(int(stats is not None), shard=label)
            if stats is None:
                continue
            open_gauge.set(int(stats.get("jobs_open", 0)), shard=label)
            # Counters are mirrored through a monotone fold: a restarted
            # worker reports from zero again, and a scrape must never see a
            # counter regress (promcheck and rate() both assume it).
            for name, value in stats.get("gateway", {}).items():
                registry.counter(
                    f"repro_fleet_{name}_total",
                    self._FLEET_COUNTER_HELP.get(name, name)).set_total(
                    self._monotone_total(f"gateway.{name}", label,
                                         float(value)), shard=label)
            cache = stats.get("cache")
            if cache:
                for key in ("hits", "misses", "stores", "rejected",
                            "evictions"):
                    registry.counter(
                        f"repro_fleet_cache_{key}_total",
                        f"Shared-cache {key} observed by each shard"
                        ).set_total(self._monotone_total(
                            f"cache.{key}", label, float(cache[key])),
                            shard=label)
        merged = merge_slo_statuses(
            [status for status in slo_statuses.values() if status is not None])
        if merged is not None:
            mirror_slo(registry, merged)
        emitted = registry.counter(
            "repro_events_total",
            "Dispatcher operational events emitted, by level")
        for level, count in sorted(self.event_log.counts_by_level().items()):
            emitted.set_total(count, level=level)
        return 200, registry.render(first=("repro_cluster_info",)), {}


class FleetThread(http.ServerThread):
    """Run a dispatcher fleet on a daemon thread: tests, examples, benches.

    Usage::

        with FleetThread(FleetConfig(workers=4, cache_dir=...)) as fleet:
            client = RoutingClient(port=fleet.port)
            ...

    Exiting the context drains the fleet (workers finish their queues) and
    joins the thread.  Start waits for all N worker handshakes.
    """

    kind = "fleet"
    start_timeout = 120.0
    stop_timeout = 120.0

    def __init__(self, config: FleetConfig, **dispatcher_kwargs) -> None:
        super().__init__(lambda: ClusterDispatcher(config, **dispatcher_kwargs))

    @property
    def dispatcher(self) -> ClusterDispatcher | None:
        return self.server
