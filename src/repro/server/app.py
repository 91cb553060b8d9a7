"""The asyncio JSON-over-HTTP routing gateway.

:class:`RoutingGateway` puts a network front on
:class:`~repro.service.BatchRoutingService`: many concurrent clients submit
routing jobs, identical submissions deduplicate into one solve, admission
control sheds overload with 429s, and a metrics endpoint exposes the
service's telemetry.  The wire handling -- listener, connection loop,
route table, JSON bodies, the shared inquiry endpoints, drain, :func:`serve`
and the thread runner -- is the :mod:`repro.server.http` core it shares with
the cluster dispatcher; this module holds only what is the gateway's own.

Endpoints (wire schemas in :mod:`repro.server.protocol`):

==========  =========================  ==========================================
method      path                       purpose
==========  =========================  ==========================================
GET         ``/healthz``               liveness + drain state
POST        ``/v1/jobs``               submit a routing job (dedups by content)
GET         ``/v1/jobs``               list known jobs
GET         ``/v1/jobs/<id>``          job status; ``?wait=SECS`` long-polls
GET         ``/v1/jobs/<id>/result``   the full result (routed circuit as QASM)
GET         ``/v1/jobs/<id>/trace``    the job's span tree + rendered form
GET         ``/v1/routers``            registry listing (``?capability=`` filter)
GET         ``/v1/devices``            device catalogue + addressable arch names
GET         ``/v1/stats``              JSON counters (telemetry/cache/admission)
GET         ``/v1/slo``                rolling-window SLO evaluation + burn rate
GET         ``/v1/events``             structured event tail (``?level=&limit=``)
GET         ``/metrics``               Prometheus-style text metrics
POST        ``/v1/admin/drain``        begin graceful shutdown
POST        ``/v1/admin/profile``      sample all stacks for ``?seconds=N``
==========  =========================  ==========================================

Execution model: submissions land in an asyncio queue; a single dispatcher
task collects whatever is queued (up to ``max_batch``) and runs it as *one*
``route_batch`` call in a worker thread.  Parallelism across jobs comes from
the service's own worker pool; the gateway never calls the service from two
threads at once.  Dedup happens at two levels: the gateway maps equal
:meth:`~repro.service.BatchRoutingService.job_key` hashes onto one job
record before anything is queued, and the service's verified result cache
answers repeats across batches and restarts.

Graceful shutdown (`SIGTERM`, ``/v1/admin/drain``, or
:meth:`RoutingGateway.initiate_drain`): new submissions get 503, the
dispatcher finishes every queued job -- each bounded by its time budget,
with the pool's best-so-far fallback -- status/result requests keep being
served while that happens, and only then does the server close.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.core.result import RoutingResult
from repro.obs import render_trace
from repro.obs import profiler as obs_profiler
from repro.obs.events import EventLog
from repro.obs.export import JsonlTraceWriter
from repro.obs.sampling import TailSampler
from repro.obs.slo import SloTracker, mirror_slo
from repro.server import http, protocol
from repro.server.admission import AdmissionController
from repro.service import BatchRoutingService
from repro.service.jobs import RoutingJob


@dataclass
class JobRecord:
    """One deduplicated unit of work and its lifecycle state."""

    job_id: str
    job: RoutingJob
    status: str = "queued"  # queued | running | done
    submissions: int = 1
    submitted_at: float = field(default_factory=time.monotonic)
    finished_at: float | None = None
    result: RoutingResult | None = None
    error: str | None = None
    done: asyncio.Event = field(default_factory=asyncio.Event)
    #: Root span id of this job's trace tree in the gateway's tracer.
    trace_id: str | None = None

    def status_payload(self, include_result: bool = False) -> dict:
        payload = {
            "job_id": self.job_id,
            "status": self.status,
            "name": self.job.name,
            "spec": self.job.spec().to_dict(),
            "architecture": self.job.arch_name,
            "submissions": self.submissions,
        }
        if self.status == "done":
            payload["elapsed"] = round(
                (self.finished_at or time.monotonic()) - self.submitted_at, 6)
            if self.error is not None:
                payload["solved"] = False
                payload["error"] = self.error
            elif self.result is not None:
                payload["solved"] = self.result.solved
                payload["cache_hit"] = "cache-hit" in self.result.notes
                if include_result:
                    payload["result"] = protocol.result_to_wire(self.result)
        return protocol.envelope(payload)


class RoutingGateway(http.HttpServer):
    """Serve :class:`BatchRoutingService` over HTTP to concurrent clients.

    Parameters
    ----------
    service:
        The backing service; a default one (auto pool mode, memory cache) is
        created when omitted and closed with the gateway.
    host / port:
        Bind address; port 0 picks a free port (see :attr:`port` after
        :meth:`start`).
    admission:
        The :class:`AdmissionController`; a permissive default is created
        when omitted.
    time_budget:
        Default per-job budget; ``None`` uses the service's own default.
    max_batch:
        Most queued jobs folded into one ``route_batch`` call.
    long_poll_cap:
        Upper bound on ``?wait=`` long-poll durations, seconds.
    max_records:
        Most finished job records kept in memory; past it the oldest
        finished ones are dropped (their results stay reachable through the
        service's result cache -- a resubmission is a fast cache hit, not a
        re-solve).  Queued/running jobs are never dropped.
    trace_dir:
        When set, every finished job's trace tree is appended as JSONL
        under this directory (size-rotated files), so production traces
        survive process restarts.
    trace_owner:
        Per-writer tag for shared ``trace_dir``/``events_dir`` directories
        (fleet workers pass ``shard-N``); also stamps this gateway's
        events.  ``None`` is fine for a single process.
    slo:
        SLO tracking: an :class:`~repro.obs.slo.SloTracker`, a sequence of
        :class:`~repro.obs.slo.SloObjective` (or their dict form) to build
        one from, ``None`` for a tracker with the default objective, or
        ``False`` to disable ``/v1/slo``.
    sampler:
        A :class:`~repro.obs.sampling.TailSampler` deciding which finished
        traces are retained (store + JSONL).  ``None`` keeps every trace.
    event_log:
        The structured :class:`~repro.obs.events.EventLog`; created from
        ``events_dir``/``trace_owner`` when omitted.  The gateway attaches
        it to the service so telemetry-level events (failures, fallbacks,
        cache churn) land in the same stream as admission and lifecycle
        events.
    events_dir:
        Directory for the event log's rotating JSONL sink (``None`` keeps
        events in memory only); ignored when ``event_log`` is supplied.
    """

    def __init__(self, service: BatchRoutingService | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 admission: AdmissionController | None = None,
                 time_budget: float | None = None,
                 max_batch: int = 32,
                 long_poll_cap: float = http.LONG_POLL_CAP,
                 max_records: int = 4096,
                 architectures: dict | None = None,
                 trace_dir=None, trace_owner: str | None = None,
                 slo=None, sampler: TailSampler | None = None,
                 event_log: EventLog | None = None,
                 events_dir=None) -> None:
        super().__init__(host, port, architectures, long_poll_cap)
        self.service = service if service is not None else BatchRoutingService()
        self._owns_service = service is None
        self.admission = admission if admission is not None else AdmissionController()
        self.time_budget = time_budget
        self.max_batch = max(1, max_batch)
        self.max_records = max(1, max_records)
        #: Shared with the service so the worker-pool subtrees graft into
        #: the same trees the gateway's root spans live in.  ``None`` when
        #: the service was built with ``tracer=False``.
        self.tracer = self.service.tracer
        self._trace_writer = (JsonlTraceWriter(trace_dir, owner=trace_owner)
                              if trace_dir is not None else None)
        if isinstance(slo, SloTracker):
            self.slo: SloTracker | None = slo
        elif slo is False:
            self.slo = None
        else:
            self.slo = SloTracker(objectives=slo or ())
        self.sampler = sampler
        self.event_log = (event_log if event_log is not None
                          else EventLog(directory=events_dir,
                                        owner=trace_owner))
        self.service.attach_event_log(self.event_log)
        #: One registry backs /metrics: the telemetry histograms are already
        #: on it, and every gateway family is mirrored into it at scrape time.
        self.metrics = self.service.telemetry.metrics
        self._gateway_seconds = self.metrics.histogram(
            "repro_gateway_job_seconds",
            "Submission-to-finish seconds per gateway job")
        self.jobs: dict[str, JobRecord] = {}
        self.counters.update(dict.fromkeys((
            "submitted", "deduplicated", "completed", "failed",
            "rejected_draining", "records_pruned"), 0))
        self._queue: asyncio.Queue = asyncio.Queue()
        self._dispatcher: asyncio.Task | None = None

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Bind the listening socket and start the dispatcher."""
        await self._listen()
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    def _begin_drain(self) -> None:
        # Queued and running jobs complete (best-so-far within their
        # budgets) and stay fetchable until the queue is empty; then the
        # dispatcher loop shuts the server down.
        self._queue.put_nowait(None)  # wake the dispatcher

    def _drain_fields(self) -> dict:
        return {"jobs_open": self._open_jobs}

    async def _shutdown(self) -> None:
        """Close the listener, let in-flight responses finish, release workers."""
        await self._close_listener()
        if self._owns_service:
            self.service.close()
        self._closed.set()

    # ------------------------------------------------------------ dispatcher

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = await self._queue.get()
            batch: list[JobRecord] = [] if item is None else [item]
            while len(batch) < self.max_batch:
                try:
                    extra = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is not None:
                    batch.append(extra)
            if batch:
                for record in batch:
                    record.status = "running"
                jobs = [record.job for record in batch]
                try:
                    results = await loop.run_in_executor(
                        None, self._route_batch_sync, jobs)
                except Exception as error:  # worker-side crash: fail the batch
                    for record in batch:
                        self._finish(record, None, error=repr(error))
                else:
                    for record, result in zip(batch, results):
                        self._finish(record, result)
            if self._draining and self._queue.empty():
                break
        await self._shutdown()

    def _route_batch_sync(self, jobs: list[RoutingJob]) -> list[RoutingResult]:
        return self.service.route_batch(jobs, time_budget=self.time_budget)

    def _finish(self, record: JobRecord, result: RoutingResult | None,
                error: str | None = None) -> None:
        record.job.release()  # the record keeps the text; the memo is spent
        record.result = result
        record.error = error
        record.status = "done"
        record.finished_at = time.monotonic()
        self._open_jobs -= 1
        if error is None and result is not None:
            self.counters["completed"] += 1
        else:
            self.counters["failed"] += 1
        elapsed = record.finished_at - record.submitted_at
        self._gateway_seconds.observe(elapsed)
        ok = error is None and result is not None and result.solved
        if self.slo is not None:
            self.slo.observe(record.job.router, elapsed, ok=ok)
        if error is not None:
            # Service-level failures already flow through telemetry into the
            # event log; a batch-level crash never reaches telemetry, so the
            # gateway narrates it itself.
            self.event_log.emit("job-error", level="error",
                                job_id=record.job_id,
                                job_name=record.job.name, error=error)
        if self.tracer is not None and record.trace_id is not None:
            root = self.tracer.get(record.trace_id)
            if root is not None:
                attrs = {"submissions": record.submissions}
                if result is not None:
                    attrs["status"] = result.status.value
                    attrs["swaps"] = result.swap_count
                if error is not None:
                    attrs["error"] = error
                root.finish(**attrs)
                keep = (self.sampler is None
                        or self.sampler.decide(root).keep)
                if not keep:
                    self.tracer.discard(root.trace_id)
                if keep and self._trace_writer is not None:
                    self._trace_writer.write(root)
        record.done.set()
        self._prune_records()

    def _prune_records(self) -> None:
        """Bound the in-memory job history (the cache still has the results)."""
        excess = len(self.jobs) - self.max_records
        if excess <= 0:
            return
        finished = sorted(
            (record for record in self.jobs.values()
             if record.status == "done"),
            key=lambda record: record.finished_at or 0.0)
        for record in finished[:excess]:
            del self.jobs[record.job_id]
            self.counters["records_pruned"] += 1

    # ------------------------------------------------------------- endpoints

    async def _submit(self, request: http.Request):
        payload = request.json()
        client_id = request.headers.get("x-client-id") or request.peer
        submit_started = time.time()
        if self._draining:
            self.counters["rejected_draining"] += 1
            return 503, protocol.error_payload("server is draining"), {}
        refusal = self._admit(client_id)
        if refusal is not None:
            return refusal

        def parse_and_key():
            # QASM parsing, canonicalisation, and the SHA-256 content hash
            # can burn real CPU on large circuits -- off the loop thread.
            job = protocol.parse_submit(payload, self.architectures)
            return job, self.service.job_key(job, self.time_budget)

        loop = asyncio.get_running_loop()
        job, job_id = await loop.run_in_executor(None, parse_and_key)
        record = self.jobs.get(job_id)
        if record is not None and record.status == "done" and (
                record.error is not None
                or record.result is None or not record.result.solved):
            # A crashed or unsolved (timed-out) attempt must not poison this
            # content hash forever: forget the record and solve afresh.
            # Successful results stay deduplicated indefinitely -- they are
            # verified and content-addressed, so they cannot go stale.
            del self.jobs[job_id]
            record = None
        if record is not None:
            # Content-identical to a known job: answer with the same record,
            # whatever its state -- this is the cross-client single-solve
            # dedup path.
            record.submissions += 1
            self.counters["deduplicated"] += 1
            body = record.status_payload()
            body["deduplicated"] = True
            return 200, body, {}
        record = JobRecord(job_id=job_id, job=job)
        if self.tracer is not None:
            # The gateway owns the job's root span; admission + parsing is
            # its first (closed) child, and the job's trace context rides on
            # the job so service and pool spans graft under the same root.
            now = time.time()
            root = self.tracer.start_trace(
                "job", start=submit_started, job=job_id,
                job_name=job.name, router=job.router)
            self.tracer.record("admit", root, start=submit_started,
                               duration=now - submit_started,
                               client=client_id)
            job.trace_context = dict(root.context(), enqueued_at=now)
            record.trace_id = root.trace_id
        self.jobs[job_id] = record
        self._open_jobs += 1
        self.counters["submitted"] += 1
        self._queue.put_nowait(record)
        body = record.status_payload()
        body["deduplicated"] = False
        return 202, body, {}

    async def _list_jobs(self, request: http.Request):
        summaries = [record.status_payload() for record in self.jobs.values()]
        return 200, protocol.envelope(jobs=summaries), {}

    async def _job_status(self, request: http.Request, job_id: str):
        record = self.jobs.get(job_id)
        if record is None:
            return 404, protocol.error_payload(f"unknown job {job_id!r}"), {}
        wait = self.long_poll(request)
        if wait > 0.0 and not record.done.is_set():
            try:
                await asyncio.wait_for(record.done.wait(), wait)
            except asyncio.TimeoutError:
                pass
        # ``include_result`` lets a long-poll carry the result home on the
        # same connection -- essential during a drain, when the listener may
        # close before a follow-up fetch could connect.
        include_result = request.query.get("include_result", "") in (
            "1", "true", "yes")
        return 200, record.status_payload(include_result=include_result), {}

    async def _job_trace(self, request: http.Request, job_id: str):
        """The job's span tree (finished or in flight) plus a rendered form."""
        record = self.jobs.get(job_id)
        if record is None:
            return 404, protocol.error_payload(f"unknown job {job_id!r}"), {}
        if self.tracer is None or record.trace_id is None:
            return 404, protocol.error_payload(
                "tracing is disabled for this job"), {}
        root = self.tracer.get(record.trace_id)
        if root is None:
            return 404, protocol.error_payload(
                "trace evicted from the in-memory store"), {}
        tree = root.to_dict()
        return 200, protocol.envelope(job_id=job_id, status=record.status,
                                      trace=tree,
                                      rendered=render_trace(tree)), {}

    async def _job_result(self, request: http.Request, job_id: str):
        record = self.jobs.get(job_id)
        if record is None:
            return 404, protocol.error_payload(f"unknown job {job_id!r}"), {}
        if record.status != "done":
            return 409, protocol.error_payload(
                "job not finished", status=record.status), {}
        return 200, record.status_payload(include_result=True), {}

    async def _stats(self, request: http.Request):
        telemetry = self.service.telemetry
        # dict() snapshots are atomic under the GIL; the executor thread
        # mutates these counters while we serialise them.
        telemetry_counters = dict(telemetry.counters)
        stats = {
            "uptime": self.uptime(),
            "draining": self._draining,
            "jobs_open": self._open_jobs,
            "jobs_known": len(self.jobs),
            "gateway": dict(self.counters),
            "admission": self.admission.stats(),
            "telemetry": {kind: count
                          for kind, count in sorted(telemetry_counters.items())
                          if count},
            "throughput": round(telemetry.throughput(), 4),
        }
        if self.service.cache is not None:
            stats["cache"] = self.service.cache.stats()
        stats["events"] = self.event_log.counts_by_level()
        return 200, protocol.envelope(stats), {}

    async def _slo(self, request: http.Request):
        if self.slo is None:
            return 404, protocol.error_payload(
                "SLO tracking is disabled on this server"), {}
        return 200, protocol.envelope(self.slo.status()), {}

    async def _profile(self, request: http.Request):
        """``POST /v1/admin/profile?seconds=N``: sample every thread's stack.

        The profiler blocks for the sampling window, so it runs on an
        executor thread; the event loop keeps serving.  The loaded worker
        threads it observes are exactly the ones solving, so the collapsed
        stacks name SAT-core frames directly.
        """
        query = request.query
        seconds = protocol.numeric_param(
            query, "seconds", 1.0, minimum=0.05,
            maximum=obs_profiler.MAX_PROFILE_SECONDS)
        interval = protocol.numeric_param(query, "interval", 0.005,
                                          minimum=0.001, maximum=0.1)
        self.event_log.emit("profile-start", seconds=seconds,
                            interval=interval)
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(
            None, lambda: obs_profiler.profile(seconds, interval=interval))
        return 200, protocol.envelope(report), {}

    COUNTER_HELP = {
        "requests": "HTTP requests handled",
        "submitted": "Jobs accepted for solving",
        "deduplicated": "Submissions answered by an existing job record",
        "completed": "Jobs finished with a result",
        "failed": "Jobs finished with an error",
        "rejected_draining": "Submissions refused during drain",
        "bad_requests": "Requests rejected as malformed",
        "records_pruned": "Finished job records evicted from memory",
    }

    async def _metrics(self, request: http.Request):
        """The /metrics scrape: registry-driven Prometheus text exposition.

        Gateway counters, admission stats, telemetry event counts, and cache
        state are mirrored into the shared :class:`MetricsRegistry` at scrape
        time, then the whole registry -- including the latency/queue/stage/
        conflict histograms the telemetry log feeds -- renders as one
        document through a single formatter.
        """
        from repro import __version__

        registry = self.metrics
        info = registry.gauge("repro_server_info",
                              "Build and wire-protocol identity.")
        info.set(1, version=__version__,
                 wire_version=str(protocol.WIRE_VERSION))
        registry.gauge("repro_server_uptime_seconds",
                       "Seconds since the gateway started").set(self.uptime())
        registry.gauge("repro_server_draining",
                       "Whether a graceful drain is in progress").set(
            int(self._draining))
        registry.gauge("repro_server_jobs_open",
                       "Jobs queued or running").set(self._open_jobs)
        registry.gauge("repro_server_jobs_known",
                       "Job records held in memory").set(len(self.jobs))
        for name, value in sorted(self.counters.items()):
            registry.counter(f"repro_server_{name}_total",
                             self.COUNTER_HELP.get(name, name)).set_total(value)
        admission = self.admission.stats()
        registry.counter("repro_server_admission_admitted_total",
                         "Submissions admitted by the controller").set_total(
            admission["admitted"])
        rejected = registry.counter(
            "repro_server_admission_rejected_total",
            "Submissions rejected by the controller, by reason")
        for reason in ("quota", "backpressure"):
            rejected.set_total(admission[f"rejected_{reason}"], reason=reason)
        events = registry.counter("repro_telemetry_events_total",
                                  "Service telemetry events, by kind")
        for kind, count in sorted(dict(self.service.telemetry.counters).items()):
            events.set_total(count, kind=kind)
        if self.service.cache is not None:
            cache = self.service.cache.stats()
            cache_help = {
                "hits": "Cache lookups answered",
                "misses": "Cache lookups that missed",
                "stores": "Results stored in the cache",
                "rejected": "Results the verifier refused to cache",
                "evictions": "Entries evicted by the size bound",
            }
            for key, help_text in cache_help.items():
                registry.counter(f"repro_cache_{key}_total",
                                 help_text).set_total(int(cache[key]))
            registry.gauge("repro_cache_entries",
                           "Entries currently cached").set(int(cache["entries"]))
            registry.gauge("repro_cache_bytes",
                           "Bytes currently cached").set(
                int(cache["total_bytes"]))
        if self.slo is not None:
            mirror_slo(registry, self.slo.status())
        if self.sampler is not None:
            sampled = registry.counter(
                "repro_trace_sampled_total",
                "Tail-sampling decisions on finished traces, by reason")
            for reason, count in sorted(dict(self.sampler.counts).items()):
                sampled.set_total(count, reason=reason)
        emitted = registry.counter(
            "repro_events_total",
            "Structured operational events emitted, by level")
        for level, count in sorted(self.event_log.counts_by_level().items()):
            emitted.set_total(count, level=level)
        return 200, registry.render(first=("repro_server_info",)), {}


class GatewayThread(http.ServerThread):
    """Run a gateway on a daemon thread: tests, examples, and benchmarks.

    Usage::

        with GatewayThread(service=BatchRoutingService(mode="thread")) as gw:
            client = RoutingClient(port=gw.port)
            ...

    Exiting the context initiates a drain and joins the thread, so queued
    jobs finish before the block returns.
    """

    kind = "gateway"

    def __init__(self, **gateway_kwargs) -> None:
        super().__init__(lambda: RoutingGateway(**gateway_kwargs))

    @property
    def gateway(self) -> RoutingGateway | None:
        return self.server
