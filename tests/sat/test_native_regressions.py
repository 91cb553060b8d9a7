"""Regression tests for the compiled CDCL core.

* Assumption depth (both backends): every assumption opens a decision
  level, even a repeated or already-true one, so a solve can open more
  levels than the formula has variables.  The level-indexed arrays must be
  sized for that; an undersized core corrupts its heap, which can take the
  interpreter down with it, so the probe runs in a subprocess.
* Learnt-clause minimisation (known open defect, ROADMAP.md "Certified
  optimality"): pinned as a strict xfail so the fix shows up as an
  unexpected pass.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api.routing import route
from repro.circuits.random_circuits import random_circuit
from repro.core.result import RoutingStatus
from repro.hardware.topologies import tokyo_architecture
from repro.sat.backends import BACKEND_ENV, available_backends, native_available

needs_native = pytest.mark.skipif(
    not native_available(), reason="compiled SAT core not built")

DEEP_ASSUMPTIONS = """
import sys
from repro.sat.backends import create_solver

solver = create_solver(sys.argv[1])
solver.add_clause([1])
solver.add_clause([-2, 3])
for _ in range(3):
    result = solver.solve(assumptions=[1] * 5000 + [2] + [3] * 3000)
    assert result.is_sat and result.model[3], result.status
result = solver.solve(assumptions=[1] * 5000 + [-3, 2])
assert not result.is_sat, result.status
solver.add_clause([4, 5])
result = solver.solve(assumptions=[4] * 9000 + [-5] * 9000)
assert result.is_sat and result.model[4] and not result.model[5], result.status
print("ok")
"""


@pytest.mark.parametrize("backend", available_backends())
def test_repeated_and_true_assumptions_open_levels_safely(backend):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop(BACKEND_ENV, None)
    probe = subprocess.run([sys.executable, "-c", DEEP_ASSUMPTIONS, backend],
                           env=env, capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr[-2000:]
    assert probe.stdout.strip() == "ok"


@needs_native
@pytest.mark.xfail(strict=True, reason=(
    "core.c analyze() clears minimisation marks over the compacted learnt "
    "clause, so marks of dropped literals leak into later minimisations and "
    "the native core proves a 2-SWAP routing optimal"))
def test_native_core_finds_the_one_swap_optimum():
    circuit = random_circuit(5, 29, seed=495746891)
    result = route(circuit, tokyo_architecture(),
                   "nl-satmap:solver_backend=native")
    assert result.status is RoutingStatus.OPTIMAL
    assert result.swap_count == 1
