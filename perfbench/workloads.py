"""The three workloads: seeded inputs, the runs that time them, their metrics.

* ``route-sliced``: ``satmap:slice_size=10`` on IBM Tokyo, on random
  circuits of 12-16 qubits and 36-45 two-qubit gates (4-5 slices each: a
  run sums about three times as many independent circuits as it would at
  120-150 gates, so its cost varies less from seed to seed).
* ``route-optimal``: ``nl-satmap`` on random circuits of 5-8 qubits and 20-30
  gates, plus ``cyclic:cycles=4`` on degree-3 QAOA blocks of 6, 8, 10 and 12
  qubits.

  Both routing workloads run each job start to end in one process, on
  :data:`ROUTING_WORKERS` worker processes untraced and in this process
  traced.
* ``serve-mixed``: ``repro serve`` as a subprocess and two closed-loop client
  threads submitting ``sabre:seed=0`` jobs (8 qubits, 40 gates) through
  ``RoutingClient.route``; one request in four resubmits a job the same
  client already finished.

The program only ever receives OpenQASM text.  Every routing is pinned to
the native solve core.  Outputs are checked by :mod:`check`, not by
``repro.verify_routing``.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time, sleep, thread_time

from repro.api.registry import get_router
from repro.api.routing import route as repro_route
from repro.circuits import qasm as qasm_module
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.qaoa import qaoa_repeated_block
from repro.circuits.random_circuits import random_circuit
from repro.core.result import RoutingStatus
from repro.hardware.topologies import tokyo_architecture
from repro.server.client import RoutingClient

import check
import layers

BUDGET = "time_budget=120,solver_backend=native"
SLICED_SPEC = f"satmap:slice_size=10,{BUDGET}"
NL_SPEC = f"nl-satmap:{BUDGET}"
CYCLES = 4
CYCLIC_SPEC = f"cyclic:cycles={CYCLES},{BUDGET}"
SERVE_SPEC = "sabre:seed=0"
FALLBACK_SPEC = "sabre:seed=0"
QAOA_SIZES = (6, 8, 10, 12)
SERVE_CLIENTS = 2

#: Rough cost per job in one of two busy worker processes on a 2-CPU x86
#: host, used only to size a job set so a run lasts about ``--seconds``; the
#: job set is then fixed by the seed.
SLICED_JOB_S = 1.4
NL_JOB_S = 1.3
CYCLIC_SET_S = 7.5
SERVE_JOBS_PER_S = 50.0


@dataclass(frozen=True)
class Job:
    qasm: str
    spec: str
    cycles: int = 1
    label: str = ""
    #: Qubits x two-qubit gates x cycles: the order in which a run hands
    #: jobs to its workers (largest first), nothing else.
    weight: int = 0


def _stratum(index: int, count: int, low: int, high: int) -> int:
    """The middle value of the ``index``-th of ``count`` equal strata of ``[low, high]``."""
    width = high - low + 1
    return low + (2 * index * width + width) // (2 * count)


def _random_jobs(rng: random.Random, count: int, qubits: tuple[int, int],
                 gates: tuple[int, int], spec: str) -> list[Job]:
    """Random circuits of a fixed size schedule, in seeded order.

    The sizes cover both ranges evenly and pair qubit and gate strata the
    same way for every seed: solve time grows steeply with width times
    depth, so a seeded pairing moved a run's cost more than the circuits
    themselves did.  Only the circuits and their order follow ``rng``.
    """
    gate_strata = list(range(count))
    random.Random(f"sizes/{count}").shuffle(gate_strata)
    sizes = [(_stratum(index, count, *qubits), _stratum(gate_strata[index], count, *gates))
             for index in range(count)]
    rng.shuffle(sizes)
    jobs = []
    for width, size in sizes:
        circuit = random_circuit(width, size, seed=rng.randrange(2 ** 31))
        jobs.append(Job(qasm_module.circuit_to_qasm(circuit), spec,
                        label=f"q{width}g{size}", weight=width * size))
    return jobs


def sliced_jobs(seed: int, count: int, qubits=(12, 16), gates=(36, 45)) -> list[Job]:
    rng = random.Random(f"route-sliced/{seed}")
    return _random_jobs(rng, count, qubits, gates, SLICED_SPEC)


def optimal_jobs(seed: int, count: int, qubits=(5, 8), gates=(20, 30),
                 qaoa_sizes=QAOA_SIZES) -> list[Job]:
    """The QAOA blocks are ``qaoa_repeated_block``'s own (its default graph
    seed), so only the ``nl-satmap`` circuits vary with ``seed``."""
    rng = random.Random(f"route-optimal/{seed}")
    blocks = [qaoa_repeated_block(width, degree=3) for width in qaoa_sizes]
    jobs = [Job(qasm_module.circuit_to_qasm(block), CYCLIC_SPEC, CYCLES,
                label=f"qaoa{block.num_qubits}x{CYCLES}",
                weight=block.num_qubits * block.num_two_qubit_gates * CYCLES)
            for block in blocks]
    return jobs + _random_jobs(rng, count, qubits, gates, NL_SPEC)


def serve_plan(seed: int, count: int, clients: int = SERVE_CLIENTS,
               qubits: int = 8, gates: int = 40) -> list[list[tuple[Job, bool]]]:
    """Per client, its requests in order as ``(job, is_repeat)``.

    Every fourth request of a client resubmits one of its own earlier jobs,
    which has finished by then because the loop is closed.
    """
    rng = random.Random(f"serve-mixed/{seed}")
    plans = []
    for _ in range(clients):
        plan: list[tuple[Job, bool]] = []
        fresh: list[Job] = []
        for index in range(max(1, count // clients)):
            if index % 4 == 3:
                plan.append((rng.choice(fresh), True))
                continue
            circuit = random_circuit(qubits, gates, seed=rng.randrange(2 ** 31))
            job = Job(qasm_module.circuit_to_qasm(circuit), SERVE_SPEC, label=f"q{qubits}g{gates}")
            fresh.append(job)
            plan.append((job, False))
        plans.append(plan)
    return plans


# ---------------------------------------------------------------- outcomes


@dataclass
class Outcome:
    """One job's fate: timing, result, and what the independent check found."""

    job: Job
    seconds: float
    result: object = None
    error: str = ""
    problems: list[str] = field(default_factory=list)
    repeat: bool = False
    job_id: str = ""
    done_at: float = 0.0

    @property
    def ok(self) -> bool:
        return (not self.error and not self.problems and self.result is not None
                and self.result.solved)


def check_outcome(outcome: Outcome, edges) -> None:
    result = outcome.result
    if outcome.error or result is None or not result.solved:
        return
    if result.routed_circuit is None:
        outcome.problems.append("solved result without a routed circuit")
        return
    outcome.problems = check.check_routing(
        outcome.job.qasm, outcome.job.cycles, result.routed_circuit.iter_ops(),
        result.initial_mapping, edges, result.swap_count)


def fallback_swaps(job: Job, architecture) -> int:
    """SWAPs ``sabre:seed=0`` inserts on the job's whole input (0 if it fails)."""
    try:
        block = qasm_module.parse_qasm(job.qasm)
        circuit = QuantumCircuit(block.num_qubits)
        for _ in range(job.cycles):
            circuit.extend(block)
        result = repro_route(circuit, architecture, FALLBACK_SPEC)
    except Exception:  # an input no router can take (e.g. wider than the device)
        return 0
    return result.swap_count if result.solved else 0


def quality(outcomes: list[Outcome], architecture) -> dict:
    """Failures and ``swaps_total`` (failed jobs charged the SABRE count)."""
    failed = [o for o in outcomes if not o.ok]
    fallback: dict[str, int] = {}
    swaps = 0
    for outcome in outcomes:
        if outcome.ok:
            swaps += outcome.result.swap_count
        else:
            key = outcome.job.qasm + outcome.job.spec
            if key not in fallback:
                fallback[key] = fallback_swaps(outcome.job, architecture)
            swaps += fallback[key]
    return {"attempted": len(outcomes), "failed": len(failed), "swaps": swaps,
            "mismatches": [f"{o.job.label}: {p}" for o in outcomes for p in o.problems]}


def percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def untraced_metrics(outcomes: list[Outcome], wall: float, tally: dict) -> dict:
    """Wall-clock figures and failure share of the traced run's untraced pass."""
    times = [o.seconds * 1000.0 for o in outcomes]
    return {
        "wall_s": (wall, "s"),
        "jobs_per_s": (len(outcomes) / wall, "1/s"),
        "job_ms_p50": (median(times), "ms"),
        "job_ms_p90": (percentile(times, 90), "ms"),
        "repeat_ms_p50": (median([o.seconds * 1000.0 for o in outcomes if o.repeat]), "ms"),
        "error_rate": (tally["failed"] / tally["attempted"], "share"),
    }


class HostSpeed:
    """CPU time of a fixed reference task, sampled all through a run.

    On a shared virtual machine the CPU time of one job set moved by up to
    30% between runs a few minutes apart, with the load of other tenants.
    Sorting a fixed list of floats is C code that walks memory as the SAT
    core does; over 16 passes of one route-optimal job set its CPU time
    followed the routing CPU time with a log-log slope of 0.98 (correlation
    0.92), and dividing by it cut the spread of the passes from 0.069 to
    0.024 of their median.

    The probe runs between the pieces of work, and :meth:`add` rescales each
    piece by the mean of the probes just before and just after it, to a host
    on which one sort takes :data:`REFERENCE_S`: the load of other tenants
    changes within a run too.  The probe is independent of ``repro``, so a
    change to the program moves the normalized time as much as the raw one.
    """

    #: CPU seconds of one reference sort on the nominal host.
    REFERENCE_S = 0.010
    #: Sorts per probe; the probe reads their median.
    REPEATS = 5

    def __init__(self) -> None:
        rng = random.Random(0)
        self._data = [rng.random() for _ in range(60_000)]
        self.samples: list[float] = []
        #: CPU seconds the probe itself has used (in the calling thread).
        self.probe_s = 0.0
        self.cpu_s = 0.0
        self.norm_cpu_s = 0.0
        self._last = 0.0

    def _probe(self) -> float:
        times = []
        for _ in range(self.REPEATS):
            start = thread_time()
            sorted(self._data)
            times.append(thread_time() - start)
        self.samples.extend(times)
        self.probe_s += sum(times)
        return statistics.median(times)

    def start(self) -> None:
        self._last = self._probe()

    def add(self, cpu_s: float) -> None:
        """Count ``cpu_s`` spent since the last probe, then probe again."""
        before, self._last = self._last, self._probe()
        self.cpu_s += cpu_s
        self.norm_cpu_s += cpu_s * self.REFERENCE_S * 2.0 / (before + self._last)

    def metrics(self) -> dict:
        """``norm_cpu_s`` plus, for the record, the raw time and the probe."""
        return {"norm_cpu_s": (self.norm_cpu_s, "s"), "cpu_s": (self.cpu_s, "s"),
                "host.sort_ms_p50": (statistics.median(self.samples) * 1000.0, "ms")}


def peak_rss_self_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------- routing workloads


def route_job(job: Job, architecture, clock=None, install=None) -> Outcome:
    """Parse and route one job in-process; only this is inside the timer."""
    with clock.installed(install) if clock is not None else nullcontext():
        start = perf_counter()
        try:
            circuit = qasm_module.parse_qasm(job.qasm)
            result = get_router(job.spec).route(circuit, architecture)
        except Exception as error:  # the run goes on; the job counts as failed
            return Outcome(job, perf_counter() - start, error=repr(error))
        seconds = perf_counter() - start
    outcome = Outcome(job, seconds, result)
    if result.status in (RoutingStatus.ERROR, RoutingStatus.TIMEOUT,
                         RoutingStatus.UNSATISFIABLE):
        outcome.error = f"{result.status.value}: {result.notes[:160]}"
    return outcome


#: Worker processes of an untraced routing run.  Each job still runs
#: start to end in one process; two at a time sum twice the jobs in the
#: same wall time, which halves the variance that the jobs' own spread of
#: solve times puts into a run's total.
ROUTING_WORKERS = 2

#: One pool worker's device and probe (see :func:`_route_in_worker`).
_worker: dict = {}


def _start_worker() -> None:
    _worker["architecture"] = tokyo_architecture()
    _worker["speed"] = HostSpeed()
    _worker["speed"].start()


def _route_in_worker(job: Job) -> tuple[Outcome, float, float, list[float], float]:
    """Route one job in a pool worker; the probe runs after each job.

    Returns the outcome, its raw and normalized CPU seconds, the probe's
    samples and the worker's peak RSS so far.
    """
    speed = _worker["speed"]
    start = process_time()
    outcome = route_job(job, _worker["architecture"])
    spent = process_time() - start
    before, samples = speed.norm_cpu_s, len(speed.samples)
    speed.add(spent)
    return (outcome, spent, speed.norm_cpu_s - before, speed.samples[samples:],
            peak_rss_self_mb())


def run_routing(jobs: list[Job]) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics.

    :data:`ROUTING_WORKERS` forked processes take the jobs one at a time,
    largest first.  The CPU time is the sum over jobs, each normalized by
    the probes its own worker ran just before and just after it, so the
    workers' contention with each other and with other tenants is seen by
    both.  ``peak_rss_mb`` is the largest worker's.
    """
    architecture = tokyo_architecture()
    context = multiprocessing.get_context("fork")
    pool = context.Pool(ROUTING_WORKERS, initializer=_start_worker)
    outcomes, cpu, norm, samples, rss = [], 0.0, 0.0, [], 0.0
    try:
        for outcome, spent, scaled, probes, peak in pool.imap_unordered(
                _route_in_worker, sorted(jobs, key=lambda job: -job.weight)):
            outcomes.append(outcome)
            cpu, norm, rss = cpu + spent, norm + scaled, max(rss, peak)
            samples.extend(probes)
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
    for outcome in outcomes:
        check_outcome(outcome, architecture.edges)
    tally = quality(outcomes, architecture)
    metrics = {
        "swaps_total": (tally["swaps"], "count"),
        "peak_rss_mb": (rss, "MB"),
        "norm_cpu_s": (norm, "s"),
        "cpu_s": (cpu, "s"),
        "host.sort_ms_p50": (statistics.median(samples) * 1000.0, "ms"),
    }
    return metrics, tally


def traced_share(jobs: list[Job]) -> list[Job]:
    """The jobs a traced run routes: every cyclic block (the same for every
    seed, one of them the job that always fails) and every second other job,
    about one worker's share, so that routing them twice stays well inside
    a run's time limit."""
    return [job for job in jobs if job.cycles > 1] + [job for job in jobs if job.cycles == 1][::2]


def run_routing_traced(jobs: list[Job]) -> tuple[dict, dict]:
    """Traced run: each job routed untraced and traced, alternating order."""
    architecture = tokyo_architecture()
    counted, traced = layers.LayerClock(), layers.LayerClock()
    plain, timed = [], []
    for index, job in enumerate(jobs):
        passes = [(counted, layers.count_encodes, plain),
                  (traced, layers.trace_routing, timed)]
        for clock, install, sink in (passes if index % 2 == 0 else passes[::-1]):
            sink.append(route_job(job, architecture, clock, install))
    for outcome in plain + timed:
        check_outcome(outcome, architecture.edges)
    tally = quality(plain, architecture)
    traced_tally = quality(timed, architecture)
    mismatches = tally["mismatches"] + traced_tally["mismatches"]
    per_job = [[o.result.swap_count if o.ok else None for o in run] for run in (plain, timed)]
    if per_job[0] != per_job[1]:
        mismatches.append("swaps_total differs between the untraced and traced passes")
    if counted.tally["core.encode_clauses"] != traced.tally["core.encode_clauses"]:
        mismatches.append("core.encode_clauses differs between the untraced and traced passes")
    tally["mismatches"] = mismatches

    plain_wall = sum(o.seconds for o in plain)
    wall = sum(o.seconds for o in timed)
    layer_s = {layer: traced.total(layer) for layer in layers.ROUTING_LAYERS}
    attempts = traced.count("core.slice_attempts")
    encodes = traced.count("core.encode_calls")
    solved = [o.result for o in timed if o.ok]
    kept = sum(max(1, result.num_slices) for result in solved)
    stage = {name: sum(r.stage_timings.get(name, 0.0) for r in solved)
             for name in ("encode", "solve")}
    metrics = {f"{layer}_s": (seconds, "s") for layer, seconds in layer_s.items()}
    metrics.update({
        "core.encode_calls": (encodes, "count"),
        "core.encode_clauses": (traced.count("core.encode_clauses"), "count"),
        "maxsat.sat_calls": (traced.count("maxsat.sat_calls"), "count"),
        "sat.conflicts": (traced.count("sat.conflicts"), "count"),
        "core.slice_attempts": (attempts, "count"),
        "core.slice_useful_share": (kept / attempts if attempts else 0.0, "share"),
        "core.context_reuse_share": (1.0 - encodes / attempts if attempts else 0.0, "share"),
        "core.cyclic_fallbacks": (sum(
            1 for r in solved if r.status is RoutingStatus.OPTIMAL and not r.optimal
            and "token-swap reset" in r.notes), "count"),
        "result.stage_encode_s": (stage["encode"], "s"),
        "result.stage_solve_s": (stage["solve"], "s"),
        "unattributed_s": (wall - sum(layer_s.values()), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_share": (wall / plain_wall - 1.0, "share"),
    })
    metrics.update(untraced_metrics(plain, plain_wall, tally))
    return metrics, tally


# ------------------------------------------------------------- serve-mixed


class Server:
    """``repro serve`` in its own process group, from spawn to drained exit."""

    LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")

    def __init__(self, src: Path, cache_dir: Path) -> None:
        self.cache_dir = cache_dir
        self.env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1")
        self.process: subprocess.Popen | None = None
        self.lines: list[str] = []
        self.port = 0
        self.ready_s = 0.0
        self._listening = threading.Event()
        self._reader: threading.Thread | None = None

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.append(line)
            if self.LISTENING.search(line):
                self.port = int(self.LISTENING.search(line).group(2))
                self._listening.set()
        self._listening.set()

    def start(self, timeout: float = 60.0) -> "Server":
        """Spawn and wait for the first answered health request."""
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--mode", "process", "--cache-dir", str(self.cache_dir),
                   "--rate", "1e9", "--burst", "1e9", "--max-pending", "1000000",
                   "--solver-backend", "native"]
        start = perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=self.env, start_new_session=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            if not self._listening.wait(timeout) or not self.port:
                raise RuntimeError("repro serve did not start: "
                                   + "".join(self.lines)[-2000:])
            probe = RoutingClient(port=self.port, retry_quota=0, timeout=5.0)
            while True:
                try:
                    probe.health()
                    break
                except OSError:
                    if perf_counter() - start > timeout:
                        raise RuntimeError("repro serve never answered /healthz") from None
                    sleep(0.002)
        except BaseException:
            self.stop()
            raise
        self.ready_s = perf_counter() - start
        return self

    def _group(self):
        """``(pid, stat fields after the command name)`` of each live process
        in the server's process group: the server and every process it started."""
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                fields = Path(f"/proc/{entry}/stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue  # the process ended while we looked
            if int(fields[2]) == self.process.pid:
                yield entry, fields

    def cpu_seconds(self) -> float:
        """User + system CPU time the server's processes have used so far."""
        ticks = sum(int(fields[11]) + int(fields[12]) for _, fields in self._group())
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """Sum of peak RSS over the server's processes."""
        total_kb = 0
        for pid, _ in self._group():
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)  # stragglers, if any
        except (ProcessLookupError, PermissionError):
            pass
        self.process.wait()
        if self._reader is not None:
            self._reader.join(timeout=10)
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.process = None

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def _client_loop(port: int, index: int, plan, sink: list[Outcome], clock) -> None:
    client = RoutingClient(port=port, client_id=f"perfbench-{index}", timeout=60.0)
    for job, repeat in plan:
        start = perf_counter()
        try:
            result = client.route(job.qasm, "tokyo", router=SERVE_SPEC, timeout=120.0)
        except Exception as error:  # HTTP error, 429/503 after retries, timeout
            sink.append(Outcome(job, perf_counter() - start, error=repr(error),
                                repeat=repeat))
            continue
        done = perf_counter()
        outcome = Outcome(job, done - start, result, repeat=repeat, done_at=done)
        if clock is not None:
            outcome.job_id = clock.local.ticket["job_id"]
        if not result.solved:
            outcome.error = f"{result.status.value}: {result.notes[:160]}"
        sink.append(outcome)


#: While the clients run, the main thread probes :class:`HostSpeed` this often.
PROBE_EVERY_S = 1.0


def serve_pass(server: Server, plans, clock=None,
               speed: HostSpeed | None = None) -> tuple[list[Outcome], float]:
    """Run every client's plan concurrently; return the outcomes and wall time.

    With ``speed``, every :data:`PROBE_EVERY_S` the CPU time that the
    clients, the server and its pool workers spent meanwhile (the probe's
    own excluded) goes to :meth:`HostSpeed.add`.
    """
    sinks: list[list[Outcome]] = [[] for _ in plans]
    threads = [threading.Thread(target=_client_loop, daemon=True,
                                args=(server.port, index, plan, sinks[index], clock))
               for index, plan in enumerate(plans)]

    def cpu_now() -> float:
        return process_time() + server.cpu_seconds() - speed.probe_s

    with clock.installed(layers.trace_client) if clock is not None else nullcontext():
        if speed is not None:
            speed.start()
            mark = cpu_now()
        start = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            while thread.is_alive():
                thread.join(PROBE_EVERY_S)
                if speed is not None:
                    now = cpu_now()
                    speed.add(now - mark)
                    mark = now
        wall = perf_counter() - start
    return [o for sink in sinks for o in sink], wall


def run_serve(plans, work: Path, src: Path, setup_repeats: int) -> tuple[dict, dict, list[float]]:
    """Untraced run; set-up is timed ``setup_repeats`` times, the last server serves."""
    architecture = tokyo_architecture()
    ready = []
    for attempt in range(setup_repeats):
        server = Server(src, work / f"cache-{attempt}").start()
        ready.append(server.ready_s)
        if attempt < setup_repeats - 1:
            server.stop()
    speed = HostSpeed()
    try:
        outcomes, _ = serve_pass(server, plans, speed=speed)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    for outcome in outcomes:
        check_outcome(outcome, architecture.edges)
    tally = quality(outcomes, architecture)
    metrics = {
        "swaps_total": (tally["swaps"], "count"),
        "peak_rss_mb": (rss, "MB"),
        **speed.metrics(),
    }
    return metrics, tally, ready


#: Traces fetched for the server-side layers: the most recent fresh jobs
#: (the gateway keeps the last 512 traces).
TRACES = 300


def run_serve_traced(plans, work: Path, src: Path) -> tuple[dict, dict]:
    """Traced run: an untraced pass and a traced pass, each on a fresh server."""
    architecture = tokyo_architecture()
    with Server(src, work / "cache-plain") as server:
        plain, plain_wall = serve_pass(server, plans)
    clock = layers.LayerClock()
    with Server(src, work / "cache-traced") as server:
        timed, wall = serve_pass(server, plans, clock)
        client = RoutingClient(port=server.port)
        stats = client.stats()
        fresh = sorted((o for o in timed if o.job_id and not o.repeat),
                       key=lambda o: o.done_at)[-TRACES:]
        spans = [layers.server_spans(client.trace(o.job_id)["trace"]) for o in fresh]
    for outcome in plain + timed:
        check_outcome(outcome, architecture.edges)
    tally = quality(plain, architecture)
    traced_tally = quality(timed, architecture)
    mismatches = tally["mismatches"] + traced_tally["mismatches"]
    if tally["swaps"] != traced_tally["swaps"]:
        mismatches.append("swaps_total differs between the untraced and traced passes")
    tally["mismatches"] = mismatches

    def ms(values):
        return [v * 1000.0 for v in values]

    def span_ms(name):
        return ms([s[name] for s in spans])

    gateway, cache, admission = stats["gateway"], stats["cache"], stats["admission"]
    submissions = gateway["submitted"] + gateway["deduplicated"]
    metrics = {
        "client.submit_ms_p50": (median(ms(clock.samples["client.submit"])), "ms"),
        "client.wait_ms_p50": (median(ms(clock.samples["client.wait"])), "ms"),
        "server.admit_ms_p50": (median(span_ms("admit")), "ms"),
        "service.queue_wait_ms_p50": (median(span_ms("queue-wait")), "ms"),
        "service.queue_wait_ms_p90": (percentile(span_ms("queue-wait"), 90), "ms"),
        "baselines.route_ms_p50": (median(span_ms("route")), "ms"),
        "core.verify_ms_p50": (median(span_ms("verify")), "ms"),
        "server.unattributed_ms_p50": (median(span_ms("job.self")), "ms"),
        "transport_ms_p50": (median(ms([o.seconds - s["job"]
                                        for o, s in zip(fresh, spans)])), "ms"),
        "server.dedup_share": (gateway["deduplicated"] / submissions if submissions else 0.0,
                               "share"),
        "service.cache_hit_rate": (cache["hit_rate"], "share"),
        "service.cache_stores": (cache["stores"], "count"),
        "server.rejected": (admission["rejected_backpressure"] + admission["rejected_quota"]
                            + gateway["rejected_draining"], "count"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_share": (wall / plain_wall - 1.0, "share"),
    }
    metrics.update(untraced_metrics(plain, plain_wall, tally))
    return metrics, tally
