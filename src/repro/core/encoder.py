"""The MaxSAT encoding of the QMR problem (Fig. 5 of the paper).

Given a circuit's two-qubit interaction sequence and a connectivity graph, the
encoder produces a weighted partial MaxSAT instance whose optimal models are
optimal QMR solutions:

* **Hard A** -- maps are injective partial functions (at-most-one physical
  qubit per logical qubit and vice versa), plus at-least-one placement for
  every logical qubit at the first step so the extracted map is total.
* **Hard B** -- the two logical qubits of every two-qubit gate are mapped to
  adjacent physical qubits at that gate's step.
* **Hard C** -- each SWAP slot selects exactly one element of
  ``Edges ∪ {no-op}``.
* **Hard D** -- the effect of the selected SWAP: the map at step ``k`` is the
  map at step ``k-1`` with the swapped qubits exchanged.
* **Soft** -- one clause per slot asserting the no-op, so the MaxSAT optimum
  minimises the number of real SWAPs.  In noise-aware mode the soft clauses
  instead penalise each edge by its log-infidelity (Section "Q6").

The clause count is O(|Phys| x |Logic| x |C|): at-most-one constraints use a
commander encoding beyond a small threshold, and the SWAP-effect constraints
are expressed as forward propagation clauses rather than enumerating SWAP
sequences, matching the size the paper reports for its "only-one" encoding.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.circuits.circuit import QuantumCircuit
from repro.core.variables import NOOP, VariableRegistry
from repro.hardware.architecture import Architecture
from repro.hardware.noise import NoiseModel
from repro.maxsat.cardinality import at_most_one_commander, at_most_one_pairwise
from repro.maxsat.wcnf import WcnfBuilder


@dataclass
class EncodingOptions:
    """Knobs of the encoding.

    ``swaps_per_gate`` is the paper's ``n``; 1 is what the evaluation uses.
    ``collapse_repeated_pairs`` merges consecutive two-qubit gates acting on
    the same logical pair into one step, which preserves optimality and
    shrinks the encoding (no SWAP is ever useful between them).
    """

    swaps_per_gate: int = 1
    collapse_repeated_pairs: bool = True
    commander_threshold: int = 7
    leading_swap_slot: bool = False
    #: Number of SWAP slots in the leading transition (before the first gate)
    #: when ``leading_swap_slot`` is enabled; defaults to ``swaps_per_gate``.
    #: The local relaxation escalates this when a slice with a pinned initial
    #: map turns out unsatisfiable.
    leading_slots: int | None = None
    trailing_swap_slot: bool = False
    cyclic: bool = False
    fixed_initial_mapping: dict[int, int] | None = None
    #: When true, ``fixed_initial_mapping`` is *not* baked in as hard unit
    #: clauses; callers pin it per solve call via
    #: :meth:`QmrEncoding.initial_mapping_assumptions`.  This is what lets a
    #: live session re-solve one encoding under a different inherited map.
    pin_initial_via_assumptions: bool = False
    noise_model: NoiseModel | None = None

    def __post_init__(self) -> None:
        if self.swaps_per_gate < 1:
            raise ValueError("swaps_per_gate must be at least 1")
        if self.leading_slots is not None and self.leading_slots < 1:
            raise ValueError("leading_slots must be at least 1")
        if self.commander_threshold < 3:
            raise ValueError("commander_threshold must be at least 3")


@dataclass
class QmrEncoding:
    """A built encoding: the WCNF plus everything needed to read models back."""

    builder: WcnfBuilder
    registry: VariableRegistry
    architecture: Architecture
    num_logical: int
    steps: list[tuple[int, int]]
    step_of_gate: list[int]
    options: EncodingOptions
    #: SWAP slots, in circuit order: (step, slot) pairs that carry swap variables.
    swap_slots: list[tuple[int, int]] = field(default_factory=list)

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def num_hard_clauses(self) -> int:
        return self.builder.num_hard

    @property
    def num_soft_clauses(self) -> int:
        return self.builder.num_soft

    @property
    def num_variables(self) -> int:
        return self.builder.num_vars

    @property
    def root_step(self) -> int:
        """Step index holding the initial map (-1 with a leading SWAP slot)."""
        if not self.steps:
            return 0
        return -1 if self.options.leading_swap_slot else 0

    @property
    def final_step(self) -> int:
        """Step index holding the final map."""
        if not self.steps:
            return 0
        if self.options.trailing_swap_slot or self.options.cyclic:
            return len(self.steps)
        return len(self.steps) - 1

    def initial_mapping_assumptions(self, mapping: dict[int, int]) -> list[int]:
        """Assumption literals pinning the initial map for one solve call.

        Used with :attr:`EncodingOptions.pin_initial_via_assumptions`: the
        same encoding (and the same live solver) can then be re-solved under
        a different inherited map by swapping the assumption set, which is
        how slicing backtracks without re-encoding.
        """
        root = self.root_step
        return [self.registry.map_var(logical, physical, root)
                for logical, physical in sorted(mapping.items())
                if logical < self.num_logical]

    def final_mapping_exclusion(self, mapping: dict[int, int]) -> list[int]:
        """Hard clause (as literals) forbidding ``mapping`` as the final map.

        Only variables the encoding already knows are used; an empty list
        means the mapping cannot be excluded (nothing to negate).
        """
        final = self.final_step
        return [-variable for logical, physical in mapping.items()
                if (variable := self.registry.map_vars.get(
                    (logical, physical, final))) is not None]


class QmrEncoder:
    """Builds the MaxSAT instance of Fig. 5 for a circuit and an architecture."""

    def __init__(self, architecture: Architecture,
                 options: EncodingOptions | None = None) -> None:
        self.architecture = architecture
        self.options = options or EncodingOptions()

    # ------------------------------------------------------------------ API

    def encode(self, circuit: QuantumCircuit, sink=None) -> QmrEncoding:
        """Encode ``circuit`` (its two-qubit interaction sequence) as MaxSAT.

        With a ``sink`` (a :class:`~repro.sat.session.ClauseSink`, typically a
        live :class:`~repro.sat.session.SatSession`), each component's hard
        clauses are streamed into it as one clause buffer as soon as the
        component is encoded, so by the time this method returns the
        attached solver already holds the formula.

        Interaction extraction reads the circuit IR's two-qubit columns
        directly (O(#interactions), no gate-list rescans), so slice views
        encode without ever materialising their gates.
        """
        interactions = circuit.interaction_sequence()
        return self.encode_interactions(interactions, circuit.num_qubits, sink=sink)

    def encode_interactions(self, interactions: list[tuple[int, int]],
                            num_logical: int, sink=None) -> QmrEncoding:
        """Encode an explicit interaction sequence over ``num_logical`` qubits."""
        architecture = self.architecture
        options = self.options
        if num_logical > architecture.num_qubits:
            raise ValueError(
                f"circuit uses {num_logical} logical qubits but the architecture "
                f"only has {architecture.num_qubits} physical qubits"
            )

        steps, step_of_gate = self._build_steps(interactions)
        builder = WcnfBuilder()
        if sink is not None:
            builder.attach_sink(sink)
        registry = VariableRegistry(builder)
        encoding = QmrEncoding(
            builder=builder,
            registry=registry,
            architecture=architecture,
            num_logical=num_logical,
            steps=steps,
            step_of_gate=step_of_gate,
            options=options,
        )

        if not steps:
            # A circuit with no two-qubit gates: any injective map works.
            self._encode_single_free_map(encoding)
            return encoding

        # With a leading SWAP slot the map *before* any gate lives at virtual
        # step -1, and the slot transforms it into the step-0 map; otherwise
        # step 0 itself is the initial map.
        root_step = -1 if options.leading_swap_slot else 0
        if root_step == -1:
            self._encode_injectivity(encoding, -1)
        for step in range(len(steps)):
            self._encode_injectivity(encoding, step)
        self._encode_totality(encoding, step=root_step)
        for step, (first, second) in enumerate(steps):
            self._encode_gate_adjacency(encoding, step, first, second)
        self._encode_swap_slots(encoding)
        self._encode_initial_mapping(encoding, root_step)
        if options.cyclic:
            self._encode_cyclic_closure(encoding)
        self._encode_soft(encoding)
        return encoding

    # ------------------------------------------------------------ step setup

    def _build_steps(self, interactions: list[tuple[int, int]]
                     ) -> tuple[list[tuple[int, int]], list[int]]:
        """Collapse consecutive same-pair gates into steps (if enabled)."""
        steps: list[tuple[int, int]] = []
        step_of_gate: list[int] = []
        for first, second in interactions:
            pair = (min(first, second), max(first, second))
            if (self.options.collapse_repeated_pairs and steps
                    and steps[-1] == pair):
                step_of_gate.append(len(steps) - 1)
                continue
            steps.append(pair)
            step_of_gate.append(len(steps) - 1)
        return steps, step_of_gate

    # ------------------------------------------------------------ components
    #
    # Every component appends its clauses to one word list in clause-buffer
    # layout ([n, l1 .. ln, ...], see repro.sat.clausebuf) and hands it to
    # the builder -- and through it to an attached session -- in one call.
    # Map variables are read through per-step rows, and the clause order and
    # variable numbering are exactly those of a clause-at-a-time encoder.

    def _encode_single_free_map(self, encoding: QmrEncoding) -> None:
        """Degenerate case: only constrain one injective, total map at step 0."""
        encoding.steps = []
        self._encode_injectivity(encoding, 0, total=True)
        self._encode_initial_mapping(encoding)

    def _encode_injectivity(self, encoding: QmrEncoding, step: int,
                            total: bool = False) -> None:
        """Hard A: the map at ``step`` is an injective partial function.

        With ``total`` every logical qubit must also be placed somewhere.
        Map rows are created logical qubit by logical qubit, each followed by
        its at-most-one constraint, which fixes the variable numbering.
        """
        builder = encoding.builder
        registry = encoding.registry
        num_physical = encoding.architecture.num_qubits
        words: list[int] = []
        rows = []
        for logical in range(encoding.num_logical):
            row = registry.map_row(logical, step, num_physical)
            rows.append(row)
            if total:
                words.append(num_physical)
                words.extend(row)
            self._at_most_one(builder, row, words)
        for physical in range(num_physical):
            self._at_most_one(builder, [row[physical] for row in rows], words)
        builder.add_clause_buffer(array("i", words))

    def _encode_totality(self, encoding: QmrEncoding, step: int) -> None:
        """Every logical qubit is placed somewhere at ``step``.

        Together with the SWAP-effect constraints this makes every map in the
        sequence total, so extraction never has to invent placements for
        qubits that participate in gates.
        """
        registry = encoding.registry
        num_physical = encoding.architecture.num_qubits
        words: list[int] = []
        for logical in range(encoding.num_logical):
            words.append(num_physical)
            words.extend(registry.map_row(logical, step, num_physical))
        encoding.builder.add_clause_buffer(array("i", words))

    def _encode_gate_adjacency(self, encoding: QmrEncoding, step: int,
                               first: int, second: int) -> None:
        """Hard B: the gate's qubits sit on adjacent physical qubits at its step."""
        registry = encoding.registry
        architecture = encoding.architecture
        num_physical = architecture.num_qubits
        words: list[int] = []
        for logical, other in ((first, second), (second, first)):
            row = registry.map_row(logical, step, num_physical)
            other_row = registry.map_row(other, step, num_physical)
            for physical in range(num_physical):
                neighbors = architecture.neighbors_sorted(physical)
                words += (len(neighbors) + 1, -row[physical])
                words.extend([other_row[neighbor] for neighbor in neighbors])
        encoding.builder.add_clause_buffer(array("i", words))

    def _encode_swap_slots(self, encoding: QmrEncoding) -> None:
        """Hard C and Hard D for every SWAP slot between consecutive steps."""
        options = encoding.options
        num_steps = len(encoding.steps)
        for step in range(num_steps):
            if step == 0 and not options.leading_swap_slot:
                continue
            previous = step - 1  # -1 is the virtual pre-circuit step
            slots = options.swaps_per_gate
            if step == 0 and options.leading_slots is not None:
                slots = options.leading_slots
            self._encode_one_transition(encoding, previous_step=previous,
                                        current_step=step, num_slots=slots)
        if options.trailing_swap_slot or options.cyclic:
            # A final slot after the last gate, producing the "final map" step
            # used by the cyclic relaxation (step index == num_steps).
            self._encode_injectivity(encoding, num_steps)
            self._encode_one_transition(encoding, previous_step=num_steps - 1,
                                        current_step=num_steps,
                                        num_slots=options.swaps_per_gate)

    def _encode_one_transition(self, encoding: QmrEncoding, previous_step: int,
                               current_step: int, num_slots: int) -> None:
        """Slots between ``previous_step`` and ``current_step`` (chained if > 1)."""
        # Intermediate maps are represented as fractional pseudo-steps encoded
        # with dedicated step indices only when n > 1; for n == 1 the slot
        # connects the two real steps directly.
        for slot in range(num_slots):
            is_last_slot = slot == num_slots - 1
            source = previous_step if slot == 0 else self._pseudo_step(encoding, current_step, slot - 1)
            target = current_step if is_last_slot else self._pseudo_step(encoding, current_step, slot)
            if not is_last_slot:
                self._encode_injectivity(encoding, target)
            self._encode_slot(encoding, source, target, current_step, slot)

    def _pseudo_step(self, encoding: QmrEncoding, step: int, slot: int) -> int:
        """Step index used for intermediate maps when ``swaps_per_gate > 1``."""
        return (step + 1) * 10_000 + slot

    def _encode_slot(self, encoding: QmrEncoding, source_step: int,
                     target_step: int, real_step: int, slot: int) -> None:
        """One SWAP slot: Hard C (exactly one choice) + Hard D (its effect)."""
        builder = encoding.builder
        registry = encoding.registry
        architecture = encoding.architecture
        num_physical = architecture.num_qubits
        edges = list(architecture.edges)

        noop_var = registry.swap_var(NOOP, real_step, slot)
        edge_vars = [registry.swap_var(edge, real_step, slot) for edge in edges]
        choice_vars = [noop_var] + edge_vars
        # Hard C: exactly one of {no-op} ∪ Edges is selected.
        words: list[int] = [len(choice_vars)]
        words.extend(choice_vars)
        self._at_most_one(builder, choice_vars, words)
        encoding.swap_slots.append((real_step, slot))

        # Hard D: forward propagation of every logical qubit's position.
        # incident[p] lists (swap variable, other endpoint) per edge at p.
        incident: list[list[tuple[int, int]]] = [[] for _ in range(num_physical)]
        for (first, second), swap in zip(edges, edge_vars):
            incident[first].append((swap, second))
            incident[second].append((swap, first))
        stay_swaps = [[swap for swap, _ in edges_here] for edges_here in incident]

        for logical in range(encoding.num_logical):
            source_row = registry.map_row(logical, source_step, num_physical)
            target_row = registry.map_row(logical, target_step, num_physical)
            for physical in range(num_physical):
                not_source = -source_row[physical]
                swaps = stay_swaps[physical]
                words += (len(swaps) + 2, not_source)
                words.extend(swaps)
                words.append(target_row[physical])
                for swap, other in incident[physical]:
                    words += (3, not_source, -swap, target_row[other])
        builder.add_clause_buffer(array("i", words))

    def _encode_initial_mapping(self, encoding: QmrEncoding, root_step: int = 0) -> None:
        """Pin the initial map to a given mapping (used by the local relaxation).

        ``root_step`` is -1 when a leading SWAP slot exists (the inherited map
        applies *before* that slot), 0 otherwise.

        When ``pin_initial_via_assumptions`` is set the mapping is *not*
        encoded as hard clauses; the caller assumes the corresponding map
        variables per solve call instead (see
        :meth:`QmrEncoding.initial_mapping_assumptions`).
        """
        fixed = encoding.options.fixed_initial_mapping
        if not fixed or encoding.options.pin_initial_via_assumptions:
            return
        registry = encoding.registry
        words: list[int] = []
        for logical, physical in fixed.items():
            if logical >= encoding.num_logical:
                continue
            words += (1, registry.map_var(logical, physical, root_step))
        encoding.builder.add_clause_buffer(array("i", words))

    def _encode_cyclic_closure(self, encoding: QmrEncoding) -> None:
        """Section VI: the final map equals the initial map, qubit by qubit."""
        registry = encoding.registry
        num_physical = encoding.architecture.num_qubits
        final_step = len(encoding.steps)
        words: list[int] = []
        for logical in range(encoding.num_logical):
            initial_row = registry.map_row(logical, 0, num_physical)
            final_row = registry.map_row(logical, final_step, num_physical)
            for initial, final in zip(initial_row, final_row):
                words += (2, -initial, final, 2, initial, -final)
        encoding.builder.add_clause_buffer(array("i", words))

    def _encode_soft(self, encoding: QmrEncoding) -> None:
        """Soft constraints: prefer no-ops (unweighted) or high fidelity (weighted)."""
        builder = encoding.builder
        registry = encoding.registry
        noise = encoding.options.noise_model
        for step, slot in encoding.swap_slots:
            if noise is None:
                builder.add_soft([registry.swap_var(NOOP, step, slot)], weight=1)
            else:
                for edge in encoding.architecture.edges:
                    weight = noise.swap_weight(*edge)
                    builder.add_soft([-registry.swap_var(edge, step, slot)],
                                     weight=weight)
        if noise is not None:
            self._encode_noise_aware_gate_costs(encoding)

    def _encode_noise_aware_gate_costs(self, encoding: QmrEncoding) -> None:
        """Penalise executing each gate on a low-fidelity edge (Q6 objective).

        For every step and every edge we introduce an auxiliary "executed on
        this edge" variable implied by the two map placements, and attach a
        soft clause weighted by the edge's CNOT log-infidelity.
        """
        builder = encoding.builder
        registry = encoding.registry
        noise = encoding.options.noise_model
        architecture = encoding.architecture
        num_physical = architecture.num_qubits
        for step, (first, second) in enumerate(encoding.steps):
            first_row = registry.map_row(first, step, num_physical)
            second_row = registry.map_row(second, step, num_physical)
            words: list[int] = []
            for edge in architecture.edges:
                physical_a, physical_b = edge
                executed = builder.new_var()
                words += (3, -first_row[physical_a], -second_row[physical_b], executed,
                          3, -second_row[physical_a], -first_row[physical_b], executed)
                error = noise.edge_error(*edge)
                weight = max(1, round(-noise.weight_scale *
                                      _log_one_minus(error)))
                builder.add_soft([-executed], weight=weight)
            builder.add_clause_buffer(array("i", words))

    # -------------------------------------------------------------- helpers

    def _at_most_one(self, builder: WcnfBuilder, literals: list[int],
                     words: list[int]) -> None:
        if len(literals) <= 1:
            return
        if len(literals) < self.options.commander_threshold:
            at_most_one_pairwise(builder, literals, words)
        else:
            at_most_one_commander(builder, literals, clauses=words)


def _log_one_minus(error: float) -> float:
    """Natural log of (1 - error), guarded against error == 1."""
    import math

    return math.log(max(1e-12, 1.0 - error))
