"""Circuits cross the serving path as flat IR: parse once, render once.

The gateway parses a submission once; the job memoises that circuit (and
its architecture) for the pool worker and the cache's re-verification; the
worker ships the routed circuit back as IR columns; and the gateway renders
each routed circuit to QASM once for the disk entry and every response.
None of it may change a byte of what leaves the process: the goldens below
were captured before circuits travelled this way.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import re
from pathlib import Path

import pytest

from repro.api.registry import register_router, unregister_router
from repro.circuits import qasm as qasm_module
from repro.circuits.qasm import circuit_to_qasm
from repro.circuits.random_circuits import random_circuit
from repro.hardware.devices import named_architectures
from repro.hardware.topologies import line_architecture
from repro.server import protocol
from repro.server.client import RoutingClient
from repro.service import BatchRoutingService, ResultCache, RoutingJob, build_router
from repro.service import cache as cache_module
from repro.service import jobs as jobs_module
from repro.service.pool import execute_job, outcome_to_result

TOFFOLI = """OPENQASM 2.0;
include "qelib1.inc";
qreg a[3];
qreg b[2];
h a[0];
ccx a[0],a[1],b[1];
rz( 0.25 ) b[0];
cx b[0],a[2];
u3(0.1, 0.2,pi/2) a[1];
measure a[0] -> c[0];
"""

#: ``name -> (qasm, router spec, catalogue architecture)``.
CASES = {
    "sabre-q8g40": (circuit_to_qasm(random_circuit(8, 40, seed=7)),
                    "sabre:seed=0", "tokyo"),
    "satmap-q4g6": (circuit_to_qasm(random_circuit(4, 6, seed=5)),
                    "satmap:solver_backend=python", "line8"),
    "sabre-toffoli": (TOFFOLI, "sabre:seed=0", "line8"),
}

#: SHA-256 of each disk entry and each ``result_to_wire`` body (JSON with
#: sorted keys, as the gateway sends it), wall-clock figures masked.
#: Captured with the QASM-text transport the IR transport replaced.
GOLDEN = {
    "sabre-q8g40": {
        "key": "11079ddc25771e07d4b1d0431625b517f28951d1cde3b2ab582e59d587cd26cc",
        "cache": "218f668afa9da06b936b6e772fce6f380ea29b6d7be42fda2adcb1f37a972bcf",
        "wire": "b1a817871419c3bf464e2145e4108447ba8970a0060c04a8d073ed765fcbd3b7",
    },
    "satmap-q4g6": {
        "key": "521a9460ef9f06639cae96cb7a23ac2d323906f8492419eb685d9fbea9a5ce4d",
        "cache": "85bb9500a9fe6604f24af66826e6b2745bca380b6acdacab06a267227ca58805",
        "wire": "3e2553d551d255f4f077f3c250298549d2ebcc92e0e1bd0667288fc9cc8ce284",
    },
    "sabre-toffoli": {
        "key": "e2e4266094260860a8d6a0c89091ad8a8248986aaff3dcc1ce899f27ba03d9dc",
        "cache": "3fb67035d71fcbf371652ccb6b45583563375da2b57ef4b9630260c4b80b6283",
        "wire": "7b0ca9adcc4681569b6d70443b8137642191a0faa6c6ee793cc1942dd221f773",
    },
}

_WALL_CLOCK = re.compile(
    r'("(?:solve_time|encode|solve|extract|slice|verify)": )-?[0-9][0-9.e+-]*')


def masked_digest(text: str) -> str:
    return hashlib.sha256(_WALL_CLOCK.sub(r"\g<1>0", text).encode()).hexdigest()


def submit(name: str, catalog) -> RoutingJob:
    text, spec, arch = CASES[name]
    return protocol.parse_submit({"wire_version": 1, "qasm": text, "router": spec,
                                  "architecture": arch, "name": name}, catalog)


class TestGoldenBytes:
    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_wire_and_disk_bytes_match_the_text_transport(self, tmp_path, mode):
        catalog = named_architectures()
        jobs = [submit(name, catalog) for name in CASES]
        with BatchRoutingService(max_workers=2, mode=mode, cache_dir=tmp_path,
                                 time_budget=20.0) as service:
            results = service.route_batch(jobs)
            keys = [service.job_key(job) for job in jobs]
        for job, key, result in zip(jobs, keys, results):
            golden = GOLDEN[job.name]
            assert key == golden["key"]
            entry = (tmp_path / f"{key}.json").read_text()
            assert masked_digest(entry) == golden["cache"], job.name
            wire = json.dumps(protocol.result_to_wire(result), sort_keys=True)
            assert masked_digest(wire) == golden["wire"], job.name

    def test_result_from_wire_rebuilds_the_same_circuit(self):
        catalog = named_architectures()
        with BatchRoutingService(mode="serial", cache=False) as service:
            result = service.route_one(submit("sabre-toffoli", catalog))
        wire = json.loads(json.dumps(protocol.result_to_wire(result)))
        rebuilt = protocol.result_from_wire(wire)
        assert rebuilt.routed_circuit == result.routed_circuit
        assert rebuilt.routed_circuit.name == result.routed_circuit.name


class TestJobMemo:
    def test_memo_stays_out_of_identity(self):
        memo_job = submit("sabre-q8g40", named_architectures())
        plain = RoutingJob(qasm=memo_job.qasm, arch_num_qubits=memo_job.arch_num_qubits,
                           arch_edges=memo_job.arch_edges, arch_name=memo_job.arch_name,
                           router=memo_job.router, options=dict(memo_job.options),
                           name=memo_job.name)
        assert memo_job._memo is not None and plain._memo is None
        assert memo_job.content_payload() == plain.content_payload()
        assert memo_job.content_hash() == plain.content_hash()
        assert memo_job == plain
        assert repr(memo_job) == repr(plain)
        assert memo_job.circuit() == plain.circuit()
        assert memo_job.circuit().name == plain.circuit().name
        assert memo_job.architecture().edges == plain.architecture().edges

    def test_memo_travels_with_the_job(self):
        job = submit("sabre-q8g40", named_architectures())
        assert job.with_router("sabre", {"seed": 1})._memo is job._memo
        copied = pickle.loads(pickle.dumps(job))
        assert copied._memo is not None
        assert copied.circuit() == job.circuit()
        assert copied.content_hash() == job.content_hash()
        job.release()
        assert job._memo is None
        assert job.circuit() == copied.circuit()

    def test_circuit_is_a_fresh_copy_each_call(self):
        job = submit("sabre-q8g40", named_architectures())
        first = job.circuit()
        first.append_op("h", (0,))
        assert len(job.circuit()) == len(first) - 1
        assert job.circuit().ir.op is not job.circuit().ir.op

    def test_memo_only_for_circuits_the_text_gives_back(self):
        circuit = random_circuit(4, 6, seed=2)
        assert RoutingJob.from_circuit(circuit, line_architecture(5))._memo is not None
        circuit.append_op("barrier", (0, 1))
        job = RoutingJob.from_circuit(circuit, line_architecture(5))
        assert job._memo is None
        assert "barrier" not in [gate.name for gate in job.circuit()]

    def test_caller_mutation_does_not_reach_the_memo(self):
        circuit = random_circuit(4, 6, seed=2)
        job = RoutingJob.from_circuit(circuit, line_architecture(5))
        circuit.append_op("x", (1,))
        assert job.circuit() == qasm_module.parse_qasm(job.qasm, name=job.name)

    def test_memo_never_reaches_the_disk_payload(self, tmp_path):
        job = submit("sabre-q8g40", named_architectures())
        with BatchRoutingService(mode="serial", cache_dir=tmp_path) as service:
            service.route_one(job)
        entries = list(Path(tmp_path).glob("*.json"))
        assert len(entries) == 1
        assert set(json.loads(entries[0].read_text())) == {
            "version", "status", "router_name", "circuit_name", "initial_mapping",
            "final_mapping", "routed_qasm", "routed_num_qubits", "swap_count",
            "solve_time", "sat_calls", "optimal", "num_slices", "objective_value",
            "notes", "stage_timings", "clauses_streamed",
            "learnt_clauses_retained", "solver_stats"}


class TestCacheTrust:
    def test_put_rejects_a_tampered_routed_circuit(self, tmp_path):
        job = submit("sabre-q8g40", named_architectures())
        result = build_router("sabre", time_budget=5.0).route(job.circuit(),
                                                           job.architecture())
        result.routed_circuit.append_op("cx", (0, 1))
        cache = ResultCache(directory=tmp_path)
        assert not cache.put(job, result)
        assert cache.rejected == 1
        assert not list(Path(tmp_path).glob("*.json"))

    def test_render_memo_follows_appends(self):
        circuit = random_circuit(4, 6, seed=2)
        before = circuit_to_qasm(circuit)
        assert circuit_to_qasm(circuit) is before
        circuit.append_op("x", (1,))
        assert circuit_to_qasm(circuit) == before + "x q[1];\n"


class _BarrierRouter:
    """A plug-in router whose routed circuit holds what QASM text drops."""

    def __init__(self, **_options) -> None:
        self.inner = build_router("sabre", time_budget=5.0)

    def route(self, circuit, architecture):
        result = self.inner.route(circuit, architecture)
        result.routed_circuit.append_op("barrier", (0, 1))
        return result


def test_routed_circuit_the_text_would_change_travels_as_text():
    register_router("barrier-sabre", _BarrierRouter)
    try:
        job = RoutingJob.from_circuit(random_circuit(4, 8, seed=3),
                                      line_architecture(5), router="barrier-sabre")
        with BatchRoutingService(mode="serial", cache=False) as service:
            result = service.route_one(job)
    finally:
        unregister_router("barrier-sabre")
    assert result.solved
    assert "barrier" not in [gate.name for gate in result.routed_circuit]


class Counter:
    """Counts parses per importing module and renders per circuit."""

    def __init__(self, monkeypatch) -> None:
        self.parses: dict[str, int] = {}
        self.rendered: list = []
        original_parse = qasm_module.parse_qasm
        for module in (protocol, jobs_module, cache_module):
            def counted(*args, _site=module.__name__, **kwargs):
                self.parses[_site] = self.parses.get(_site, 0) + 1
                return original_parse(*args, **kwargs)
            monkeypatch.setattr(module, "parse_qasm", counted)
        original_render = qasm_module._render

        def render(circuit, register_name):
            self.rendered.append(circuit)
            return original_render(circuit, register_name)
        monkeypatch.setattr(qasm_module, "_render", render)


class TestParseOnceRenderOnce:
    def test_worker_neither_parses_nor_renders(self, monkeypatch):
        job = submit("sabre-q8g40", named_architectures())
        count = Counter(monkeypatch)
        outcome = pickle.loads(pickle.dumps(execute_job(job, time_budget=5.0)))
        assert count.parses == {} and count.rendered == []
        assert outcome["payload"]["routed_qasm"] is None
        result = outcome_to_result(job, outcome)
        assert result.solved and count.parses == {}

    def test_gateway_counts_per_fresh_job(self, monkeypatch, gateway):
        text, spec, arch = CASES["sabre-q8g40"]
        client = RoutingClient(port=gateway.port, client_id="counter")
        count = Counter(monkeypatch)
        ticket = client.submit(text, arch, router=spec)
        result = client.wait(ticket["job_id"], timeout=30)
        for _ in range(2):
            assert client.result(ticket["job_id"]) == result
        assert count.parses.get("repro.server.protocol") == 1  # the submission
        assert count.parses.get("repro.service.jobs", 0) == 0  # worker, verify
        # the client parses each result it receives, here three times
        assert count.parses.get("repro.service.cache") == 3
        routed = [c for c in count.rendered if c.num_swaps]
        assert len(routed) == 1
        assert len(count.rendered) == 2  # plus the canonical submission text
