"""The locally optimal relaxation (Section V): circuit slicing with backtracking.

The circuit is cut into consecutive slices of ``slice_size`` two-qubit gates.
Slice 0 is solved exactly as in the monolithic encoding.  Every later slice is
solved with its initial map pinned to the previous slice's final map (the
paper's step 2), and with a SWAP slot before its first gate so it can still
move qubits if the inherited map does not suit its first gate.  If a slice's
constraints are unsatisfiable -- possible whenever ``swaps_per_gate`` is below
the graph diameter -- we *backtrack*: the previous slice's final mapping is
excluded by a new hard clause (the negation of its assignment) and the
previous slice is re-solved, exactly as described in Section V.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.circuits.circuit import QuantumCircuit
from repro.core.result import RoutingResult, RoutingStatus
from repro.core.satmap import MonolithicOutcome, SliceContext
from repro.hardware.architecture import Architecture
from repro.obs import trace as obs_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.satmap import SatMapRouter


@dataclass
class SliceState:
    """Bookkeeping for one slice during the iterative solve."""

    index: int
    circuit: QuantumCircuit
    outcome: MonolithicOutcome | None = None
    #: Final mappings excluded by backtracking (the negation of each becomes a
    #: hard clause when the slice is re-solved).
    excluded_final_mappings: list[dict[int, int]] = field(default_factory=list)
    #: SWAP slots granted to the leading transition (escalated on failure).
    leading_slots: int = 1
    #: SWAP slots per gate inside the slice (escalated as a last resort).
    swaps_per_gate: int | None = None
    #: Persistent solve context (incremental mode): one live session per
    #: slice, so backtracking re-solves stream only the new exclusion clause
    #: and swap the initial-map assumptions instead of re-encoding.
    context: SliceContext | None = None
    #: Stage seconds summed over *every* attempt at this slice, including
    #: the ones later undone by backtracking or escalation.
    stage_timings: dict[str, float] = field(default_factory=dict)

    def record_attempt(self, outcome: MonolithicOutcome) -> None:
        """Charge one solve attempt's stage timings to this slice."""
        for stage, seconds in outcome.result.stage_timings.items():
            self.stage_timings[stage] = self.stage_timings.get(stage, 0.0) + seconds


def route_sliced(circuit: QuantumCircuit, architecture: Architecture,
                 router: "SatMapRouter") -> RoutingResult:
    """Apply the locally optimal relaxation with the router's configuration.

    The solve order follows Section V: solve slices left to right, pinning
    each slice's initial map to its predecessor's final map, and backtrack
    (exclude the predecessor's mapping and re-solve it) when a slice is
    unsatisfiable.  Once the backtracking budget is spent we escalate instead
    of failing: first the unsatisfiable slice's leading transition is granted
    more SWAP slots (up to the graph diameter, which always suffices to repair
    its first gate), then its per-gate slot count is raised.  Escalation keeps
    the relaxation complete without changing its locally-optimal character.
    """
    start = time.monotonic()
    diameter = max(1, architecture.diameter())
    slices = [SliceState(index, sub, leading_slots=router.swaps_per_gate,
                         swaps_per_gate=None)
              for index, sub
              in enumerate(circuit.sliced_by_two_qubit_gates(router.slice_size))]
    pipeline = None
    if router.pipeline_slices and router.incremental and len(slices) > 1:
        from repro.parallel.pipeline import SlicePipeline

        pipeline = SlicePipeline(router, architecture)
    try:
        backtracks = 0
        index = 0
        while index < len(slices):
            remaining = router.time_budget - (time.monotonic() - start)
            if remaining <= 0:
                return _timeout_result(router, circuit, slices, backtracks)
            state = slices[index]
            if pipeline is not None and index + 1 < len(slices):
                # Overlap: the successor's encoding streams in a worker while
                # this slice runs its SAT search.
                pipeline.prefetch(slices[index + 1])
            if pipeline is not None and index > 0 and state.context is None:
                state.context = pipeline.take(
                    state, timeout=min(remaining, SlicePipeline.TAKE_TIMEOUT))
            fixed = None
            if index > 0:
                previous = slices[index - 1].outcome
                assert previous is not None and previous.result.solved
                fixed = previous.result.final_mapping
            cubed = (index == 0 and router.cube_workers
                     and state.circuit.num_two_qubit_gates > 0)
            with obs_trace.span("slice", slice=state.index,
                                backtracks=backtracks) as slice_span:
                if cubed:
                    from repro.parallel.cubes import solve_cubed

                    outcome = solve_cubed(
                        router, state.circuit, architecture, remaining,
                        excluded_final_mappings=state.excluded_final_mappings,
                        swaps_per_gate=state.swaps_per_gate,
                    )
                else:
                    outcome = router.solve_monolithic(
                        state.circuit, architecture, remaining,
                        fixed_initial_mapping=fixed,
                        excluded_final_mappings=state.excluded_final_mappings,
                        leading_slots=state.leading_slots if index > 0 else None,
                        swaps_per_gate=state.swaps_per_gate,
                        context=state.context,
                    )
                slice_span.set(status=outcome.result.status.value,
                               swaps=outcome.result.swap_count)
            state.record_attempt(outcome)
            state.context = outcome.context
            if outcome.result.solved:
                state.outcome = outcome
                index += 1
                continue
            if outcome.result.status is RoutingStatus.TIMEOUT:
                return _timeout_result(router, circuit, slices, backtracks)

            # UNSAT.  Prefer the paper's backtracking; escalate once spent.
            # Backtracking leaves pre-built successor encodings valid (they
            # are map-independent); only the escalations below change a
            # slice's encoding shape and must invalidate its prefetch.
            if index > 0 and backtracks < router.backtrack_limit:
                backtracks += 1
                previous_state = slices[index - 1]
                previous_outcome = previous_state.outcome
                assert previous_outcome is not None
                previous_state.excluded_final_mappings.append(
                    dict(previous_outcome.result.final_mapping))
                previous_state.outcome = None
                state.outcome = None
                index -= 1
                continue
            if index > 0 and state.leading_slots < diameter:
                state.leading_slots = min(diameter, state.leading_slots * 2)
                if pipeline is not None:
                    pipeline.invalidate(state.index)
                continue
            current_swaps = state.swaps_per_gate or router.swaps_per_gate
            if current_swaps < diameter:
                state.swaps_per_gate = min(diameter, current_swaps + 1)
                if pipeline is not None:
                    pipeline.invalidate(state.index)
                continue
            result = outcome.result
            result.backtracks = backtracks
            result.num_slices = len(slices)
            return result

        result = _stitch(router, circuit, architecture, slices, backtracks,
                         time.monotonic() - start)
        if pipeline is not None:
            result.solver_stats = dict(result.solver_stats)
            result.solver_stats["pipeline_prebuilt"] = pipeline.prebuilt_used
            result.solver_stats["pipeline_invalidated"] = pipeline.invalidated
            result.notes += (
                f"; pipeline: {pipeline.prebuilt_used} slices pre-encoded, "
                f"{pipeline.invalidated} invalidated"
                if pipeline.enabled else "; pipeline unavailable (no process pool)")
        return result
    finally:
        if pipeline is not None:
            pipeline.close()


def _stitch(router: "SatMapRouter", circuit: QuantumCircuit,
            architecture: Architecture, slices: list[SliceState],
            backtracks: int, elapsed: float) -> RoutingResult:
    """Concatenate per-slice routed circuits into the full solution.

    Stage timings cover every attempt at every slice, so they account for
    the work backtracking and escalation threw away, not just the
    surviving solves.
    """
    routed = QuantumCircuit(architecture.num_qubits,
                            name=f"{circuit.name}@{architecture.name}")
    total_swaps = 0
    total_sat_calls = 0
    total_vars = 0
    total_hard = 0
    total_soft = 0
    all_optimal = True
    stage_timings: dict[str, float] = {}
    clauses_streamed = 0
    learnt_retained = 0
    solver_stats: dict[str, int] = {}
    for state in slices:
        outcome = state.outcome
        assert outcome is not None and outcome.result.routed_circuit is not None
        routed.extend(outcome.result.routed_circuit)  # array-level bulk copy
        total_swaps += outcome.result.swap_count
        total_sat_calls += outcome.result.sat_calls
        total_vars += outcome.result.num_variables
        total_hard += outcome.result.num_hard_clauses
        total_soft += outcome.result.num_soft_clauses
        all_optimal = all_optimal and outcome.result.optimal
        for stage, seconds in state.stage_timings.items():
            stage_timings[stage] = stage_timings.get(stage, 0.0) + seconds
        clauses_streamed += outcome.result.clauses_streamed
        learnt_retained += outcome.result.learnt_clauses_retained
        for counter, value in outcome.result.solver_stats.items():
            if counter == "backend":
                previous = solver_stats.get("backend")
                solver_stats["backend"] = (value if previous in (None, value)
                                           else "mixed")
            else:
                solver_stats[counter] = solver_stats.get(counter, 0) + int(value)

    first = slices[0].outcome
    last = slices[-1].outcome
    assert first is not None and last is not None
    objective_value = None
    if router.noise_model is not None:
        from repro.core.satmap import _routed_fidelity

        objective_value = _routed_fidelity(routed, router.noise_model)
    return RoutingResult(
        objective_value=objective_value,
        status=RoutingStatus.FEASIBLE,
        router_name=router.name,
        circuit_name=circuit.name,
        initial_mapping=first.result.initial_mapping,
        final_mapping=last.result.final_mapping,
        routed_circuit=routed,
        swap_count=total_swaps,
        solve_time=elapsed,
        sat_calls=total_sat_calls,
        optimal=False,  # local optimality only; never claim global optimality
        num_variables=total_vars,
        num_hard_clauses=total_hard,
        num_soft_clauses=total_soft,
        num_slices=len(slices),
        backtracks=backtracks,
        notes="locally optimal (sliced)" if all_optimal else "sliced, some slices anytime",
        stage_timings=stage_timings,
        clauses_streamed=clauses_streamed,
        learnt_clauses_retained=learnt_retained,
        solver_stats=solver_stats,
    )


def _timeout_result(router: "SatMapRouter", circuit: QuantumCircuit,
                    slices: list[SliceState], backtracks: int) -> RoutingResult:
    return RoutingResult(
        status=RoutingStatus.TIMEOUT,
        router_name=router.name,
        circuit_name=circuit.name,
        num_slices=len(slices),
        backtracks=backtracks,
        notes="time budget exhausted before all slices were solved",
    )
