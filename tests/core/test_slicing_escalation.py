"""Deterministic coverage of the slicing escalation ladder (Section V).

A scripted router stands in for the SAT solve so the tests pin the exact
order of recovery attempts: backtracking until the budget is spent, then
leading-slot doubling up to the graph diameter, then per-gate escalation.
"""

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import cx
from repro.core.result import RoutingResult, RoutingStatus
from repro.core.satmap import MonolithicOutcome
from repro.core.slicing import route_sliced
from repro.hardware.topologies import line_architecture


def two_slice_circuit(num_qubits: int = 5) -> QuantumCircuit:
    return QuantumCircuit(num_qubits, [cx(0, 1), cx(1, 2)], name="two_slice")


class ScriptedRouter:
    """Mimics SatMapRouter's surface; solves per a scripted UNSAT policy."""

    def __init__(self, architecture, backtrack_limit: int,
                 unsat_while) -> None:
        self.architecture = architecture
        self.slice_size = 1
        self.swaps_per_gate = 1
        self.time_budget = 60.0
        self.backtrack_limit = backtrack_limit
        self.incremental = False
        self.pipeline_slices = False
        self.cube_workers = None
        self.noise_model = None
        self.name = "scripted"
        self.unsat_while = unsat_while
        self.calls: list[dict] = []
        #: Stage timings every scripted attempt reports.
        self.timings: dict[str, float] = {}

    def solve_monolithic(self, circuit, architecture, time_budget,
                         fixed_initial_mapping=None,
                         excluded_final_mappings=None, leading_slots=None,
                         swaps_per_gate=None, context=None):
        call = dict(
            slice_gates=circuit.num_two_qubit_gates,
            fixed=fixed_initial_mapping,
            excluded=len(excluded_final_mappings or []),
            leading_slots=leading_slots,
            swaps_per_gate=swaps_per_gate,
        )
        self.calls.append(call)
        if fixed_initial_mapping is not None and self.unsat_while(call):
            return MonolithicOutcome(RoutingResult(
                status=RoutingStatus.UNSATISFIABLE, router_name=self.name,
                circuit_name=circuit.name, stage_timings=dict(self.timings)))
        identity = {q: q for q in range(architecture.num_qubits)}
        return MonolithicOutcome(RoutingResult(
            status=RoutingStatus.OPTIMAL, router_name=self.name,
            circuit_name=circuit.name, optimal=True,
            initial_mapping=dict(fixed_initial_mapping or identity),
            final_mapping=dict(fixed_initial_mapping or identity),
            routed_circuit=QuantumCircuit(architecture.num_qubits),
            stage_timings=dict(self.timings),
        ))


class TestBacktrackBudget:
    def test_budget_exhausts_before_escalation_begins(self):
        """With backtrack_limit=2, exactly two backtracks precede escalation."""
        arch = line_architecture(5)
        attempts = {"n": 0}

        def unsat_while(call):
            attempts["n"] += 1
            return attempts["n"] <= 3  # survive 2 backtracks + 1 more failure

        router = ScriptedRouter(arch, backtrack_limit=2,
                                unsat_while=unsat_while)
        result = route_sliced(two_slice_circuit(), arch, router)
        assert result.solved
        assert result.backtracks == 2
        # Slice 0 re-solved once per backtrack, accumulating exclusions.
        slice0_calls = [c for c in router.calls if c["fixed"] is None]
        assert [c["excluded"] for c in slice0_calls] == [0, 1, 2]
        # Escalation only started after the budget was spent: the first
        # retry beyond the backtracks doubles the leading slots.
        slice1_calls = [c for c in router.calls if c["fixed"] is not None]
        assert [c["leading_slots"] for c in slice1_calls] == [1, 1, 1, 2]

    def test_zero_budget_escalates_immediately(self):
        arch = line_architecture(5)
        router = ScriptedRouter(
            arch, backtrack_limit=0,
            unsat_while=lambda call: call["leading_slots"] < 2)
        result = route_sliced(two_slice_circuit(), arch, router)
        assert result.solved
        assert result.backtracks == 0
        slice1_calls = [c for c in router.calls if c["fixed"] is not None]
        assert [c["leading_slots"] for c in slice1_calls] == [1, 2]


class TestLeadingSlotEscalation:
    def test_leading_slots_double_up_to_the_graph_diameter(self):
        """1 -> 2 -> 4 on a diameter-4 line, then per-gate slots grow."""
        arch = line_architecture(5)
        assert arch.diameter() == 4
        router = ScriptedRouter(
            arch, backtrack_limit=0,
            unsat_while=lambda call: call["swaps_per_gate"] is None)
        result = route_sliced(two_slice_circuit(), arch, router)
        assert result.solved
        slice1_calls = [c for c in router.calls if c["fixed"] is not None]
        assert [c["leading_slots"] for c in slice1_calls] == [1, 2, 4, 4]
        # Once the diameter is reached, escalation falls through to the
        # per-gate slot count (the last resort that keeps slicing complete).
        assert [c["swaps_per_gate"] for c in slice1_calls] == [None, None,
                                                               None, 2]

    def test_real_router_survives_zero_backtracks_on_a_line(self):
        """End-to-end: escalation alone repairs hard handoffs."""
        from repro.core import SatMapRouter, verify_routing

        circuit = QuantumCircuit(
            5, [cx(0, 1), cx(3, 4), cx(0, 4), cx(1, 3), cx(0, 3), cx(2, 4)],
            name="hard_handoffs")
        arch = line_architecture(5)
        router = SatMapRouter(slice_size=2, time_budget=120, backtrack_limit=0)
        result = router.route(circuit, arch)
        assert result.solved
        assert result.backtracks == 0
        verify_routing(circuit, result.routed_circuit, result.initial_mapping,
                       arch)


class TestStageTimingsCoverEveryAttempt:
    def test_backtracked_and_escalated_attempts_are_charged(self):
        arch = line_architecture(5)
        attempts = {"n": 0}

        def unsat_while(call):
            attempts["n"] += 1
            return attempts["n"] <= 3

        router = ScriptedRouter(arch, backtrack_limit=2,
                                unsat_while=unsat_while)
        router.timings = {"encode": 0.25, "solve": 1.0}
        result = route_sliced(two_slice_circuit(), arch, router)
        assert result.solved and result.backtracks == 2
        assert len(router.calls) > result.num_slices
        assert result.stage_timings["encode"] == pytest.approx(
            0.25 * len(router.calls))
        assert result.stage_timings["solve"] == pytest.approx(
            1.0 * len(router.calls))

    def test_real_router_reports_encode_of_all_attempts(self, monkeypatch):
        from repro.core import SatMapRouter

        circuit = QuantumCircuit(
            5, [cx(0, 1), cx(3, 4), cx(0, 4), cx(1, 3), cx(0, 3), cx(2, 4)],
            name="hard_handoffs")
        arch = line_architecture(5)
        router = SatMapRouter(slice_size=2, time_budget=120, backtrack_limit=0)
        encode_seconds: list[float] = []
        solve_monolithic = SatMapRouter.solve_monolithic

        def recording(self, *args, **kwargs):
            outcome = solve_monolithic(self, *args, **kwargs)
            encode_seconds.append(outcome.result.stage_timings["encode"])
            return outcome

        monkeypatch.setattr(SatMapRouter, "solve_monolithic", recording)
        result = router.route(circuit, arch)
        assert result.solved
        assert len(encode_seconds) > result.num_slices  # escalation retried
        assert result.stage_timings["encode"] >= sum(encode_seconds) * (1 - 1e-9)
