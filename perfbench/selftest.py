#!/usr/bin/env python3
"""Self-test of the benchmark on tiny sizes of every workload.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py

It checks that every declared metric prints with its unit, that a seed fixes
the inputs and ``swaps_total``, that another seed changes the inputs, that a
job no router can take is counted as a failure instead of ending the run,
and that the command fails without printing a result when the program's
sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.ensure_native()

import workloads as w  # noqa: E402

TINY_SLICED = dict(qubits=(4, 5), gates=(14, 16))
TINY_OPTIMAL = dict(qubits=(3, 4), gates=(4, 6), qaoa_sizes=(4,))
TINY_SERVE = 8


def _tiny_inputs(seed: int):
    return (w.sliced_jobs(seed, 2, **TINY_SLICED), w.optimal_jobs(seed, 2, **TINY_OPTIMAL),
            w.serve_plan(seed, TINY_SERVE))


def _work(name: str) -> Path:
    path = run.BUILD / "perfbench" / f"selftest-{name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _assert_reported(metrics: dict, tally: dict, trace: int) -> dict:
    result = run.report(metrics, tally, trace)
    spec = run.load_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], tally["mismatches"]
    assert [m["name"] for m in declared] == list(result["metrics"])
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric
        assert isinstance(printed["value"], (int, float)), metric
    json.dumps(result)
    return result


def test_every_metric_prints_with_its_unit():
    sliced, optimal, plans = _tiny_inputs(1)
    for jobs in (sliced, optimal):
        metrics, tally = w.run_routing(jobs)
        metrics["setup_s"] = (0.5, "s")
        _assert_reported(metrics, tally, 0)
        _assert_reported(*w.run_routing_traced(jobs), 1)
    work = _work("serve")
    try:
        metrics, tally, ready = w.run_serve(plans, work, run.SRC, 1)
        metrics["setup_s"] = (ready[0], "s")
        _assert_reported(metrics, tally, 0)
        _assert_reported(*w.run_serve_traced(plans, work, run.SRC), 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_same_seed_same_inputs_and_swaps():
    assert _tiny_inputs(3) == _tiny_inputs(3)
    jobs = w.sliced_jobs(3, 2, **TINY_SLICED) + w.optimal_jobs(3, 1, **TINY_OPTIMAL)
    first, second = w.run_routing(jobs), w.run_routing(jobs)
    assert first[0]["swaps_total"] == second[0]["swaps_total"]
    assert first[1]["failed"] == second[1]["failed"]
    # the worker processes route exactly as this process does
    architecture = w.tokyo_architecture()
    in_process = w.quality([w.route_job(job, architecture) for job in jobs], architecture)
    assert first[0]["swaps_total"] == (in_process["swaps"], "count")
    assert first[1]["failed"] == in_process["failed"]


def test_other_seed_other_inputs():
    one, other = _tiny_inputs(3), _tiny_inputs(4)
    for mine, theirs in zip(one, other):
        assert mine != theirs


def test_unroutable_job_counts_as_failure():
    too_wide = ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[21];\n'
                "cx q[0],q[20];\ncx q[3],q[17];\n")
    jobs = [w.Job(too_wide, w.SLICED_SPEC)] + w.sliced_jobs(5, 1, **TINY_SLICED)
    metrics, tally = w.run_routing(jobs)
    assert tally["attempted"] == 2 and tally["failed"] == 1
    assert not tally["mismatches"]
    metrics["setup_s"] = (0.5, "s")
    _assert_reported(metrics, tally, 0)


def test_fails_without_the_program():
    bare = _work("bare")
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "route-sliced",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def main() -> int:
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    failures = 0
    for test in tests:
        try:
            test()
        except Exception as error:  # report every test, then fail
            failures += 1
            print(f"FAIL {test.__name__}: {error!r}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
