"""The :class:`QuantumCircuit` container.

A circuit is an ordered sequence of gate applications over logical qubits
``0 .. num_qubits - 1``, exactly the object Section III of the paper calls
``C``.  Convenience methods expose the views the router and the encoders
need: the two-qubit interaction sequence, slices, repetition (for cyclic
circuits), and statistics.

Since the flat-IR refactor the class is a thin facade over
:class:`~repro.circuits.ir.CircuitIR`: gates live in parallel ``array``
columns, statistics are answered from prefix sums in O(1) (no rescans),
``sliced_by_two_qubit_gates`` returns O(1) views sharing the backing arrays,
and ``extend`` with another circuit is an array-level bulk copy.  The public
surface -- :class:`~repro.circuits.gates.Gate` objects out of ``gates`` /
iteration / indexing, the constructor signature, equality -- is unchanged;
``Gate`` objects are materialised lazily and cached.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.circuits.gates import Gate
from repro.circuits.ir import CircuitIR


class QuantumCircuit:
    """An ordered list of gates over ``num_qubits`` logical qubits."""

    __slots__ = ("num_qubits", "name", "_ir", "_gates_cache", "_qasm")

    def __init__(self, num_qubits: int,
                 gates: Iterable[Gate] | None = None,
                 name: str = "circuit") -> None:
        if num_qubits <= 0:
            raise ValueError("a circuit needs at least one qubit")
        self.num_qubits = num_qubits
        self.name = name
        self._ir = CircuitIR()
        self._gates_cache: list[Gate] | None = None
        #: Memoised QASM rendering (see :func:`repro.circuits.qasm.circuit_to_qasm`).
        self._qasm: tuple | None = None
        if gates is not None:
            self.extend(gates)

    # ------------------------------------------------------------- internals

    @classmethod
    def from_ir(cls, num_qubits: int, ir: CircuitIR,
                name: str = "circuit") -> "QuantumCircuit":
        """Wrap an existing IR (or IR view) without copying or validating it."""
        circuit = cls.__new__(cls)
        circuit.num_qubits = num_qubits
        circuit.name = name
        circuit._ir = ir
        circuit._gates_cache = None
        circuit._qasm = None
        return circuit

    @property
    def ir(self) -> CircuitIR:
        """The backing flat IR (a view for sliced circuits)."""
        return self._ir

    def _writable_ir(self) -> CircuitIR:
        if self._ir.is_view:
            self._ir = self._ir.compact()
        self._gates_cache = None
        return self._ir

    def _check_qubits(self, name: str, qubits: tuple[int, ...]) -> None:
        for qubit in qubits:
            if not 0 <= qubit < self.num_qubits:
                raise ValueError(
                    f"gate {name} touches qubit {qubit}, but the circuit "
                    f"only has qubits 0..{self.num_qubits - 1}"
                )

    # ------------------------------------------------------------- mutation

    def append(self, gate: Gate) -> None:
        """Append a gate, validating its qubit indices."""
        self._check_qubits(gate.name, gate.qubits)
        self._writable_ir().append(gate.name, gate.qubits, gate.params)

    def append_op(self, name: str, qubits: tuple[int, ...],
                  params: tuple[str, ...] = ()) -> None:
        """Append a gate given as plain data, skipping ``Gate`` construction.

        This is the streaming path the QASM reader, the circuit passes, and
        the routing builders use; it performs the same validation as
        :meth:`append` (arity, distinct operands, qubit range) but never
        boxes the gate.
        """
        arity = len(qubits)
        if arity == 0:
            raise ValueError("a gate must act on at least one qubit")
        if arity > 2:
            raise ValueError(
                f"gate {name} acts on {arity} qubits; decompose to one- and "
                "two-qubit gates before routing"
            )
        if arity == 2 and qubits[0] == qubits[1]:
            raise ValueError(f"gate {name} repeats a qubit: {qubits}")
        self._check_qubits(name, qubits)
        self._writable_ir().append(name, qubits, params)

    def extend(self, gates: "QuantumCircuit | Iterable[Gate]") -> None:
        """Append gates; another circuit is bulk-copied at the array level."""
        if isinstance(gates, QuantumCircuit):
            other = gates._ir
            if other.max_qubit >= self.num_qubits:
                # The shared root may hold wider gates than this window; fall
                # back to a per-gate check only when the cheap bound trips.
                strict_max = other._window_max_qubit()
                if strict_max >= self.num_qubits:
                    raise ValueError(
                        f"gate touches qubit {strict_max}, but the circuit "
                        f"only has qubits 0..{self.num_qubits - 1}"
                    )
            self._writable_ir().extend_ir(other)
            return
        ir = None
        for gate in gates:
            self._check_qubits(gate.name, gate.qubits)
            if ir is None:
                ir = self._writable_ir()
            ir.append(gate.name, gate.qubits, gate.params)

    # --------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._ir)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.gates[index]
        length = len(self._ir)
        if index < 0:
            index += length
        name, qubits, params = self._ir.gate(index)
        return Gate(name, qubits, params)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return (self.num_qubits == other.num_qubits
                and self.name == other.name
                and self.gates == other.gates)

    @property
    def gates(self) -> list[Gate]:
        """The gates as :class:`Gate` objects (materialised lazily, cached).

        Returns a fresh list each access (sharing the cached ``Gate``
        objects), so mutating it never touches the circuit -- the columns
        are the single source of truth; use :meth:`append`/:meth:`extend`.
        """
        if self._gates_cache is None or len(self._gates_cache) != len(self._ir):
            self._gates_cache = [Gate(name, qubits, params)
                                 for name, qubits, params in self._ir.iter_ops()]
        return list(self._gates_cache)

    def iter_ops(self) -> Iterator[tuple[str, tuple[int, ...], tuple[str, ...]]]:
        """Yield ``(name, qubits, params)`` triples without boxing gates."""
        return self._ir.iter_ops()

    @property
    def two_qubit_gates(self) -> list[Gate]:
        """All gates acting on two qubits (including SWAPs), in order."""
        ir = self._ir
        return [Gate(*ir.gate(index)) for index in ir.two_qubit_indices()]

    @property
    def num_two_qubit_gates(self) -> int:
        return self._ir.num_two_qubit

    @property
    def num_single_qubit_gates(self) -> int:
        return len(self._ir) - self._ir.num_two_qubit

    @property
    def num_swaps(self) -> int:
        return self._ir.num_swaps

    def interaction_sequence(self) -> list[tuple[int, int]]:
        """The ordered list of qubit pairs touched by two-qubit gates.

        This is the only information the QMR encoders need about the circuit.
        """
        return self._ir.interaction_sequence()

    def used_qubits(self) -> set[int]:
        """Logical qubits that appear in at least one gate."""
        return self._ir.used_qubits()

    def depth(self) -> int:
        """Circuit depth: length of the longest gate dependency chain."""
        return self._ir.depth(self.num_qubits)

    # ------------------------------------------------------------ transforms

    def sliced_by_two_qubit_gates(self, slice_size: int) -> list["QuantumCircuit"]:
        """Split into consecutive slices containing ``slice_size`` two-qubit gates.

        Single-qubit gates travel with the two-qubit gate that follows them
        (or the final slice if none follows), matching the paper's definition
        of slice size as "number of two-qubit gates per slice".  Slices are
        O(1) views over this circuit's columns -- no gate is copied.
        """
        bounds = self._ir.slice_bounds_by_two_qubit_gates(slice_size)
        return [QuantumCircuit.from_ir(self.num_qubits,
                                       self._ir.view(start, stop),
                                       name=f"{self.name}[slice {index}]")
                for index, (start, stop) in enumerate(bounds)]

    def repeated(self, times: int) -> "QuantumCircuit":
        """Return this circuit concatenated with itself ``times`` times."""
        if times <= 0:
            raise ValueError("times must be positive")
        repeated = QuantumCircuit(self.num_qubits, name=f"{self.name}x{times}")
        for _ in range(times):
            repeated.extend(self)
        return repeated

    def without_single_qubit_gates(self) -> "QuantumCircuit":
        """Return a copy containing only the two-qubit gates (QMR-relevant part)."""
        filtered = QuantumCircuit(self.num_qubits, name=f"{self.name}(2q)")
        ir = self._ir
        target = filtered._writable_ir()
        for index in ir.two_qubit_indices():
            name, qubits, params = ir.gate(index)
            target.append(name, qubits, params)
        return filtered

    def copy(self) -> "QuantumCircuit":
        """An independent copy (fresh backing arrays)."""
        return QuantumCircuit.from_ir(self.num_qubits, self._ir.compact(),
                                      self.name)

    # --------------------------------------------------------------- pickling

    def __getstate__(self) -> dict:
        return {"num_qubits": self.num_qubits, "name": self.name,
                "ir": self._ir if not self._ir.is_view else self._ir.compact()}

    def __setstate__(self, state: dict) -> None:
        self.num_qubits = state["num_qubits"]
        self.name = state["name"]
        self._ir = state["ir"]
        self._gates_cache = None
        self._qasm = None

    def __repr__(self) -> str:
        return (
            f"QuantumCircuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"gates={len(self)}, two_qubit={self.num_two_qubit_gates})"
        )
