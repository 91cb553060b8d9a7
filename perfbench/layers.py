"""Per-layer attribution from the benchmark's own files.

:class:`LayerClock` wraps public functions of the ``repro`` modules while it
is installed and restores them afterwards, so nothing inside ``src/`` is
instrumented.  Each wrapped call is a span: its *self* time is its duration
minus the time spent in wrapped calls nested inside it, so the layer self
times of one job never double count and add up to at most its wall time.

Server-side layers come from the span tree the gateway serves at
``GET /v1/jobs/<id>/trace`` (see :func:`server_spans`).
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter


class LayerClock:
    """Self-time samples and counts per layer, collected from wrapped calls."""

    def __init__(self) -> None:
        #: layer -> self time of every call, seconds
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: counter -> values recorded after calls
        self.tally: dict[str, list[float]] = defaultdict(list)
        #: per-thread stack of open frames and the last value a hook kept
        self.local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def total(self, layer: str) -> float:
        return sum(self.samples.get(layer, ()))

    def count(self, counter: str) -> float:
        return sum(self.tally.get(counter, ()))

    def _timed(self, layer: str, fn, after=None):
        clock = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(clock.local, "stack", None)
            if stack is None:
                stack = clock.local.stack = []
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = perf_counter() - frame[0]
                clock.samples[layer].append(elapsed - frame[1])
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(clock, out)
            return out

        return wrapper

    def _counted(self, fn, after):
        clock = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            after(clock, out)
            return out

        return wrapper

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def wrap_method(self, cls, name: str, layer: str | None, after=None) -> None:
        """Time ``cls.name`` as ``layer`` (``None``: only run ``after``)."""
        original = cls.__dict__[name]
        self._set(cls, name, self._timed(layer, original, after) if layer
                  else self._counted(original, after))

    def wrap_function(self, module, name: str, layer: str) -> None:
        """Time ``module.name`` everywhere a ``repro`` module imported it."""
        original = getattr(module, name)
        wrapper = self._timed(layer, original)
        for loaded in list(sys.modules.values()):
            if (getattr(loaded, "__name__", "").startswith("repro")
                    and vars(loaded).get(name) is original):
                self._set(loaded, name, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self, install):
        """Run the body with ``install(self)``'s wrappers in place."""
        try:
            install(self)
            yield self
        finally:
            self.restore()


def _keep_encoding(clock: LayerClock, encoding) -> None:
    clock.tally["core.encode_calls"].append(1)
    clock.tally["core.encode_clauses"].append(
        encoding.num_hard_clauses + encoding.num_soft_clauses)


def count_encodes(clock: LayerClock) -> None:
    """The only hook of an untraced pass: encode clause counts, no timers."""
    from repro.core.encoder import QmrEncoder

    clock.wrap_method(QmrEncoder, "encode", None, _keep_encoding)


def trace_routing(clock: LayerClock) -> None:
    """Timers around every in-process routing layer."""
    from repro.circuits import qasm
    from repro.core import extraction, verifier
    from repro.core.encoder import QmrEncoder
    from repro.core.satmap import SatMapRouter
    from repro.maxsat.solver import MaxSatSolver
    from repro.sat.native import NativeSatSolver
    from repro.sat.solver import SatSolver

    def keep_maxsat(clock, result):
        clock.tally["maxsat.sat_calls"].append(result.sat_calls)

    def keep_sat(clock, result):
        clock.tally["sat.conflicts"].append(result.conflicts)

    def keep_attempt(clock, outcome):
        clock.tally["core.slice_attempts"].append(1)

    clock.wrap_function(qasm, "parse_qasm", "circuits.parse")
    clock.wrap_method(QmrEncoder, "encode", "core.encode", _keep_encoding)
    clock.wrap_method(MaxSatSolver, "solve", "maxsat.solve", keep_maxsat)
    clock.wrap_method(NativeSatSolver, "solve", "sat.search", keep_sat)
    clock.wrap_method(SatSolver, "solve", "sat.search", keep_sat)
    clock.wrap_function(extraction, "extract_solution", "core.extract")
    clock.wrap_function(extraction, "build_routed_circuit", "core.extract")
    clock.wrap_function(verifier, "verify_routing", "core.verify")
    clock.wrap_method(SatMapRouter, "solve_monolithic", None, keep_attempt)


#: In-process routing layers whose self times partition a job's wall time.
ROUTING_LAYERS = ("circuits.parse", "core.encode", "maxsat.solve",
                  "sat.search", "core.extract", "core.verify")


def trace_client(clock: LayerClock) -> None:
    """Timers around the two halves of ``RoutingClient.route``."""
    from repro.server.client import RoutingClient

    def keep_ticket(clock, ticket):
        clock.local.ticket = ticket

    clock.wrap_method(RoutingClient, "submit", "client.submit", keep_ticket)
    clock.wrap_method(RoutingClient, "wait", "client.wait")


def server_spans(tree: dict) -> dict[str, float]:
    """Seconds per server layer in one gateway job trace.

    ``route`` and ``job`` are reported as self time: their duration minus
    their direct children's.
    """
    def children(span):
        return span.get("children", ())

    def child_time(span):
        return sum(child["duration"] for child in children(span))

    out = {"job": tree["duration"], "admit": 0.0, "queue-wait": 0.0,
           "route": 0.0, "verify": 0.0, "job.self": tree["duration"] - child_time(tree)}
    for span in children(tree):
        if span["name"] == "admit":
            out["admit"] += span["duration"]
        elif span["name"] == "route":
            out["route"] += span["duration"] - child_time(span)
            for child in children(span):
                if child["name"] in ("queue-wait", "verify"):
                    out[child["name"]] += child["duration"]
    return out
