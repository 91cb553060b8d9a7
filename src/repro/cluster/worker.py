"""Shard worker processes: a full gateway per shard, managed by a handle.

Each fleet worker is an ordinary :class:`~repro.server.app.RoutingGateway`
(the whole PR-4 serving stack: dedup, long-poll, metrics, drain) bound to a
loopback port, running in its own OS process so N workers really use N
cores.  The worker builds its own :class:`~repro.service.BatchRoutingService`
from the :class:`~repro.cluster.config.FleetConfig`; all workers share one
disk :class:`~repro.service.ResultCache` directory, with entries stamped by
shard id and writers serialised through the cache's file lock.

:class:`WorkerHandle` is the dispatcher-side view of one worker: it spawns
the process, performs the port handshake over a pipe, answers liveness
checks, and restarts the process after a crash -- on the *same shard id*,
so the consistent-hash ring assignment is stable across restarts and the
reborn worker re-serves its key range from the shared cache.
"""

from __future__ import annotations

import multiprocessing
import os
import time

from repro.cluster.config import FleetConfig

#: Seconds the parent waits for a freshly spawned worker to report its port.
STARTUP_TIMEOUT = 60.0


def _start_context():
    """The multiprocessing context workers are spawned with.

    Fork is preferred where available (it skips the interpreter+import tax
    on every restart); ``REPRO_CLUSTER_START_METHOD`` overrides for
    debugging or platforms where forking a threaded parent misbehaves.
    """
    method = os.environ.get("REPRO_CLUSTER_START_METHOD")
    if not method:
        method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                  else "spawn")
    return multiprocessing.get_context(method)


def build_worker_service(config: FleetConfig, shard_id: int):
    """The shard's :class:`BatchRoutingService`, sharing the fleet cache.

    Every worker must key jobs identically (same budget default, same
    portfolio namespace) or fleet-wide dedup breaks; that is why this is
    derived from the one :class:`FleetConfig` rather than per-worker knobs.
    """
    from repro.service import BatchRoutingService, ResultCache

    if config.cache_dir is not None:
        cache = ResultCache(directory=config.cache_dir,
                            max_bytes=config.cache_max_bytes,
                            owner=f"shard-{shard_id}")
    else:
        cache = False
    return BatchRoutingService(
        max_workers=config.pool_workers,
        mode=config.pool_mode,
        time_budget=config.time_budget,
        cache=cache,
        portfolio=config.portfolio,
    )


def build_worker_gateway(config: FleetConfig, shard_id: int, port: int = 0):
    """The shard's gateway on a loopback port.

    Admission is effectively open here: the *dispatcher* is the fleet's
    admission point, and double-throttling behind it would turn its
    carefully computed ``Retry-After`` hints into lies.  The worker keeps
    only the global pending bound as a local safety valve.
    """
    from repro.obs.sampling import TailSampler
    from repro.obs.slo import SloTracker
    from repro.server import AdmissionController, RoutingGateway

    service = build_worker_service(config, shard_id)
    admission = AdmissionController(rate=1e9, burst=1e9,
                                    max_pending=config.max_pending)
    options = dict(config.gateway_options)
    # Observability wiring: every worker tracks the same objectives (the
    # dispatcher merges the raw CDFs into fleet quantiles), tags its trace
    # and event files with its shard id so the shared directories stay
    # multi-process safe, and applies the fleet's tail-sampling policy.
    options.setdefault("slo", SloTracker(objectives=config.slos))
    options.setdefault("trace_owner", f"shard-{shard_id}")
    options.setdefault("events_dir", config.events_dir)
    if config.trace_sample_rate is not None or config.slow_trace_seconds is not None:
        options.setdefault("sampler", TailSampler(
            rate=(config.trace_sample_rate
                  if config.trace_sample_rate is not None else 1.0),
            slow_threshold=config.slow_trace_seconds))
    return RoutingGateway(service=service, host="127.0.0.1", port=port,
                          admission=admission,
                          time_budget=config.time_budget,
                          trace_dir=config.trace_dir,
                          **options)


def worker_main(config: FleetConfig, shard_id: int, conn) -> None:
    """Process target: serve one shard gateway until drained.

    Reports ``("ready", port)`` through ``conn`` once the port is bound, or
    ``("error", repr)`` if startup fails.  SIGTERM drains gracefully (the
    gateway's own handler), so an orchestrator-initiated stop finishes
    in-flight jobs best-so-far.
    """
    import asyncio
    import os

    from repro.server import serve

    # Fleet-wide backend choice: exported before any session is built so the
    # worker's whole solve stack (including its own pool workers, which
    # inherit the environment) resolves the same SAT core.
    if config.solver_backend:
        os.environ["REPRO_SAT_BACKEND"] = config.solver_backend

    try:
        gateway = build_worker_gateway(config, shard_id)
    except BaseException as error:  # report, then die visibly
        conn.send(("error", repr(error)))
        conn.close()
        raise

    def announce(started) -> None:
        conn.send(("ready", started.port))
        conn.close()

    service = gateway.service
    try:
        asyncio.run(serve(gateway, on_started=announce))
    finally:
        service.close()


class WorkerHandle:
    """Dispatcher-side lifecycle manager for one shard worker process."""

    def __init__(self, config: FleetConfig, shard_id: int) -> None:
        self.config = config
        self.shard_id = shard_id
        self.host = "127.0.0.1"
        self.port: int | None = None
        self.process = None
        self.restarts = 0
        self.started_at: float | None = None
        self._context = _start_context()

    # -------------------------------------------------------------- lifecycle

    def start(self) -> "WorkerHandle":
        """Spawn the process and wait for its port handshake (blocking)."""
        parent_conn, child_conn = self._context.Pipe(duplex=False)
        self.process = self._context.Process(
            target=worker_main, args=(self.config, self.shard_id, child_conn),
            name=f"repro-shard-{self.shard_id}", daemon=True)
        self.process.start()
        child_conn.close()
        try:
            if not parent_conn.poll(STARTUP_TIMEOUT):
                raise RuntimeError(
                    f"shard {self.shard_id} did not report a port within "
                    f"{STARTUP_TIMEOUT:.0f}s")
            kind, value = parent_conn.recv()
        except EOFError:
            raise RuntimeError(
                f"shard {self.shard_id} died during startup") from None
        finally:
            parent_conn.close()
        if kind != "ready":
            raise RuntimeError(f"shard {self.shard_id} failed to start: {value}")
        self.port = int(value)
        self.started_at = time.monotonic()
        return self

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    def restart(self) -> "WorkerHandle":
        """Reap the dead process and spawn a fresh one on the same shard id.

        The new process gets a new loopback port (the old one may linger in
        TIME_WAIT); ring assignment is untouched because the ring hashes
        shard ids, never ports.
        """
        if self.process is not None:
            self.process.join(timeout=5.0)
            if self.process.is_alive():  # pragma: no cover - hung worker
                self.process.kill()
                self.process.join(timeout=5.0)
        self.port = None
        self.restarts += 1
        return self.start()

    def terminate(self, join_timeout: float = 10.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL if the worker hangs."""
        if self.process is None:
            return
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=join_timeout)
        if self.process.is_alive():  # pragma: no cover - hung worker
            self.process.kill()
            self.process.join(timeout=5.0)

    def describe(self) -> dict:
        return {
            "shard": self.shard_id,
            "port": self.port,
            "pid": self.pid,
            "alive": self.alive(),
            "restarts": self.restarts,
            "uptime": (round(time.monotonic() - self.started_at, 3)
                       if self.started_at is not None and self.alive() else 0.0),
        }
