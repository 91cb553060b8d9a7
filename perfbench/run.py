#!/usr/bin/env python3
"""SATMAP benchmark: one command for every workload and metric.

Run from the repository root::

    python3 perfbench/run.py --workload route-sliced --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off). Their time is
``norm_cpu_s``: the CPU seconds of every process that does the work (the
routing workers, or the server and its pool workers), because on a shared
virtual machine the wall time of the same job set moved by up to 40% with
the host's CPU steal, each piece rescaled by a reference task timed just
before and after it (``workloads.HostSpeed``), because the CPU time moved
by up to 30% with the load of other tenants. The raw ``cpu_s`` and the
probe's median go to the record line. The routing workloads route their job
set on two worker processes (``workloads.ROUTING_WORKERS``), each job start
to end in one of them. ``--trace 1`` prints the per-layer metrics of a
traced run in this process, which routes about one worker's share of the
same job set (``workloads.traced_share``) untraced and traced: the untraced
pass gives the wall-clock figures (``wall_s``, ``jobs_per_s``, latency
percentiles), and the two passes give the tracing overhead and the check
that SWAP counts and encoded clause counts do not change under tracing. The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the host, backend,
revision and seed. Metric names and units are declared in
``BENCHMARK.json``.

Set-up builds the native solve core (``setup.py build_ext --inplace``) when
it is not importable and stops with an error if it still is not: the
benchmark never measures the pure-Python core.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
#: Set-up is timed this many times per run and reported as the median.
SETUP_REPEATS = {"route-sliced": 7, "route-optimal": 7, "serve-mixed": 5}
#: Undeclared figures of an untraced run that go to the record line.
RECORDED = ("cpu_s", "host.sort_ms_p50")
#: A run that has not finished by now is stopped (the limit is 180 s).
RUN_LIMIT_S = 170

READY_PROBE = (
    "import repro\n"
    "from repro.sat.backends import resolve_backend\n"
    "repro.tokyo_architecture()\n"
    "assert resolve_backend('native') == 'native'\n"
    "print('ready', flush=True)\n"
)


class BenchmarkError(RuntimeError):
    """Set-up failed; the run ends without a result."""


def _native_built() -> bool:
    """Whether a compiled core at least as new as its C source is in place."""
    native = SRC / "repro" / "sat" / "_native"
    source = native / "core.c"
    return any(built.stat().st_mtime >= source.stat().st_mtime
               for built in native.glob("core*.so"))


def ensure_native() -> None:
    """Build the C extension when it is missing; fail rather than fall back."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro sources under {SRC}")
    if not _native_built():
        build = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace",
             "--build-temp", str(BUILD / "ext-temp"), "--build-lib", str(BUILD / "ext-lib")],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        print(build.stdout[-2000:], file=sys.stderr)
    sys.path.insert(0, str(SRC))
    from repro.sat.backends import resolve_backend

    try:
        resolve_backend("native")
    except RuntimeError as error:
        raise BenchmarkError(f"native solve core unavailable: {error}") from None


def setup_seconds(repeats: int) -> list[float]:
    """Spawn-to-ready times of a fresh routing process (import, device, core)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        start = perf_counter()
        probe = subprocess.Popen([sys.executable, "-c", READY_PROBE],
                                 stdout=subprocess.PIPE, text=True, env=env)
        line = probe.stdout.readline().strip()
        times.append(perf_counter() - start)
        probe.stdout.close()
        if probe.wait() != 0 or line != "ready":
            raise BenchmarkError("routing process did not get ready")
    return times


def cpu_ticks() -> tuple[int, int]:
    """(stolen, total) CPU ticks since boot; steal is time a VM host withheld."""
    fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    return fields[7], sum(fields)


def host_record(args: argparse.Namespace) -> dict:
    import repro
    from repro.sat.backends import resolve_backend

    try:
        revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                  capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = None  # not a git checkout
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".c"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": resolve_backend("native"),
        "cpus": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "git_revision": revision,
        "source_sha256": digest.hexdigest()[:16], "repro_version": repro.__version__,
    }


def job_count(workload: str, seconds: int) -> int:
    import workloads as w

    if workload == "route-sliced":
        return max(1, round(seconds * w.ROUTING_WORKERS / w.SLICED_JOB_S))
    if workload == "route-optimal":
        return max(1, round((seconds * w.ROUTING_WORKERS - w.CYCLIC_SET_S) / w.NL_JOB_S))
    return max(8, round(seconds * w.SERVE_JOBS_PER_S))


def measure(args: argparse.Namespace) -> tuple[dict, dict]:
    import workloads as w

    count = job_count(args.workload, args.seconds)
    work = BUILD / "perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "serve-mixed":
            plans = w.serve_plan(args.seed, count)
            if args.trace:
                return w.run_serve_traced(plans, work, SRC)
            metrics, tally, ready = w.run_serve(plans, work, SRC,
                                                SETUP_REPEATS[args.workload])
        else:
            jobs = (w.sliced_jobs(args.seed, count) if args.workload == "route-sliced"
                    else w.optimal_jobs(args.seed, count))
            if args.trace:
                return w.run_routing_traced(w.traced_share(jobs))
            ready = setup_seconds(SETUP_REPEATS[args.workload])
            metrics, tally = w.run_routing(jobs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics["setup_s"] = (statistics.median(ready), "s")
    return metrics, tally


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(metrics: dict, tally: dict, trace: int) -> dict:
    """The result object: every declared metric of the run's kind, by name.

    A layer the workload does not use (the server's spans on an in-process
    workload, the encoder on ``serve-mixed``) reads 0.
    """
    spec = load_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for metric in declared:
        value, unit = metrics.get(metric["name"], (0, metric["unit"]))
        if unit != metric["unit"]:
            raise BenchmarkError(f"{metric['name']} measured in {unit}, "
                                 f"declared in {metric['unit']}")
        out[metric["name"]] = {"value": value, "unit": unit}
    for problem in tally["mismatches"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {"correct": not tally["mismatches"], "attempted": tally["attempted"],
            "failed": tally["failed"], "metrics": out}


def _over_time(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def _terminated(signum, frame):
    """Unwind on SIGTERM, so the server and worker processes are stopped."""
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in load_spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _over_time)
    signal.signal(signal.SIGTERM, _terminated)
    signal.alarm(RUN_LIMIT_S)
    try:
        ensure_native()
        record = host_record(args)
        stolen, total = cpu_ticks()
        metrics, tally = measure(args)
        record.update({name: metrics[name][0] for name in RECORDED if name in metrics})
        now_stolen, now_total = cpu_ticks()
        record["cpu_steal_share"] = (now_stolen - stolen) / max(1, now_total - total)
        result = report(metrics, tally, args.trace)
    except (BenchmarkError, TimeoutError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
