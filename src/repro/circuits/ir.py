"""Flat structure-of-arrays circuit IR.

The object-per-gate representation (:class:`~repro.circuits.gates.Gate`
dataclasses in a Python list) is convenient at the API surface but it is the
allocation-bound bottleneck for large circuits: every property rescan is
O(n) over boxed objects, every slice copies gates one by one, and the
dependency DAG allocates a node with two Python sets per gate.

:class:`CircuitIR` stores the same information as parallel ``array``-backed
columns:

* ``op`` -- per-gate opcode, an index into a process-wide interned name table
  (:func:`opcode` / :func:`opcode_name`);
* ``qa`` / ``qb`` -- qubit operands (``qb`` is ``-1`` for one-qubit gates);
* ``cum2q`` / ``cumswap`` -- prefix counts of two-qubit gates and SWAPs, so
  any contiguous range answers its statistics in O(1);
* ``pos2q`` -- gate indices of the two-qubit gates, which makes interaction
  extraction and slicing-by-two-qubit-gates index arithmetic instead of a
  rescan;
* ``params`` -- a sparse ``{gate index: tuple of strings}`` map (most gates
  carry no parameters, so a dense column would waste a pointer per gate).

Views (:meth:`CircuitIR.view`) share the columns of their base IR and differ
only in a ``[start, stop)`` window, so slicing a circuit is O(1) and carries
the prefix arrays with it.  Views are immutable; the
:class:`~repro.circuits.circuit.QuantumCircuit` facade transparently
compacts a view into a fresh root IR if someone appends to it.  A root IR
only ever *grows*, so views taken earlier stay valid when the root appends.

Opcodes are process-local: pickling translates the ``op`` column back to
names and re-interns on load, so circuits cross process boundaries (the
service worker pool) safely.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import accumulate
from typing import Iterable, Iterator

from repro.circuits.gates import KNOWN_GATES

# --------------------------------------------------------------- opcode table

_OPCODE_OF: dict[str, int] = {}
_OPCODE_NAMES: list[str] = []


def opcode(name: str) -> int:
    """Intern a gate name, returning its process-wide opcode."""
    code = _OPCODE_OF.get(name)
    if code is None:
        code = len(_OPCODE_NAMES)
        _OPCODE_OF[name] = code
        _OPCODE_NAMES.append(name)
    return code


def opcode_name(code: int) -> str:
    """The gate name behind an opcode."""
    return _OPCODE_NAMES[code]


# Seed the table so the common gate set gets small, early codes.
for _name in ("swap", "barrier", "measure", *KNOWN_GATES):
    opcode(_name)

SWAP_OP = opcode("swap")

_EMPTY_PARAMS: tuple[str, ...] = ()


class CircuitIR:
    """Parallel-column gate storage with O(1) windows and cached statistics."""

    __slots__ = ("op", "qa", "qb", "cum2q", "cumswap", "pos2q", "params",
                 "start", "_stop", "max_qubit")

    def __init__(self) -> None:
        self.op = array("i")
        self.qa = array("i")
        self.qb = array("i")
        self.cum2q = array("i", [0])
        self.cumswap = array("i", [0])
        self.pos2q = array("i")
        self.params: dict[int, tuple[str, ...]] = {}
        self.start = 0
        #: ``None`` marks a growable root IR; views pin a concrete stop.
        self._stop: int | None = None
        #: Largest qubit index seen (root-wide); -1 when empty.  Used for the
        #: bulk-extend fast path, which validates once instead of per gate.
        self.max_qubit = -1

    @classmethod
    def from_columns(cls, op: Iterable[int], qa: Iterable[int], qb: Iterable[int],
                     params: dict[int, tuple[str, ...]] | None = None) -> "CircuitIR":
        """A root IR over ready-made columns (opcodes already interned).

        The prefix columns are derived in bulk rather than gate by gate; the
        QASM reader and unpickling build their IRs this way.
        """
        ir = cls.__new__(cls)
        ir.op = array("i", op)
        ir.qa = array("i", qa)
        ir.qb = array("i", qb)
        ir.pos2q = array("i", [index for index, b in enumerate(ir.qb) if b >= 0])
        ir.cum2q = array("i", accumulate((b >= 0 for b in ir.qb), initial=0))
        ir.cumswap = array("i", accumulate((code == SWAP_OP for code in ir.op),
                                           initial=0))
        ir.params = dict(params) if params else {}
        ir.start = 0
        ir._stop = None
        ir.max_qubit = max(max(ir.qa, default=-1), max(ir.qb, default=-1))
        return ir

    # ----------------------------------------------------------------- window

    @property
    def stop(self) -> int:
        return len(self.op) if self._stop is None else self._stop

    @property
    def is_view(self) -> bool:
        return self._stop is not None

    def __len__(self) -> int:
        return self.stop - self.start

    def view(self, start: int, stop: int) -> "CircuitIR":
        """An O(1) immutable window ``[start, stop)`` (relative indices)."""
        absolute_start = self.start + start
        absolute_stop = self.start + stop
        if not (self.start <= absolute_start <= absolute_stop <= self.stop):
            raise IndexError(f"view [{start}:{stop}) outside 0..{len(self)}")
        sub = CircuitIR.__new__(CircuitIR)
        sub.op = self.op
        sub.qa = self.qa
        sub.qb = self.qb
        sub.cum2q = self.cum2q
        sub.cumswap = self.cumswap
        sub.pos2q = self.pos2q
        sub.params = self.params
        sub.start = absolute_start
        sub._stop = absolute_stop
        sub.max_qubit = self.max_qubit
        return sub

    def compact(self) -> "CircuitIR":
        """A fresh root IR holding exactly this window's gates."""
        start, stop = self.start, self.stop
        fresh = CircuitIR.__new__(CircuitIR)
        fresh.op = self.op[start:stop]
        fresh.qa = self.qa[start:stop]
        fresh.qb = self.qb[start:stop]
        lo = bisect_left(self.pos2q, start)
        hi = bisect_left(self.pos2q, stop)
        if start == 0:  # nothing to rebase: plain array copies
            fresh.cum2q = self.cum2q[:stop + 1]
            fresh.cumswap = self.cumswap[:stop + 1]
            fresh.pos2q = self.pos2q[lo:hi]
        else:
            base2q = self.cum2q[start]
            baseswap = self.cumswap[start]
            fresh.cum2q = array("i", [value - base2q
                                      for value in self.cum2q[start:stop + 1]])
            fresh.cumswap = array("i", [value - baseswap
                                        for value in self.cumswap[start:stop + 1]])
            fresh.pos2q = array("i", [position - start
                                      for position in self.pos2q[lo:hi]])
        fresh.params = {index - start: value
                        for index, value in self.params.items()
                        if start <= index < stop}
        fresh.start = 0
        fresh._stop = None
        fresh.max_qubit = self._window_max_qubit()
        return fresh

    def _window_max_qubit(self) -> int:
        if self.start == 0 and self._stop is None:
            return self.max_qubit
        if len(self) == 0:
            return -1
        return max(max(self.qa[self.start:self.stop], default=-1),
                   max(self.qb[self.start:self.stop], default=-1))

    # --------------------------------------------------------------- mutation

    def append(self, name: str, qubits: tuple[int, ...],
               params: tuple[str, ...] = _EMPTY_PARAMS) -> None:
        """Append one gate to a root IR (raises on views)."""
        if self._stop is not None:
            raise TypeError("cannot append to an IR view; compact() it first")
        self.append_coded(opcode(name), qubits, params)

    def append_coded(self, code: int, qubits: tuple[int, ...],
                     params: tuple[str, ...] = _EMPTY_PARAMS) -> None:
        index = len(self.op)
        self.op.append(code)
        qa = qubits[0]
        if len(qubits) == 2:
            qb = qubits[1]
            self.pos2q.append(index)
            self.cum2q.append(self.cum2q[-1] + 1)
        else:
            qb = -1
            self.cum2q.append(self.cum2q[-1])
        self.qa.append(qa)
        self.qb.append(qb)
        self.cumswap.append(self.cumswap[-1] + (1 if code == SWAP_OP else 0))
        if params:
            self.params[index] = params
        if qa > self.max_qubit:
            self.max_qubit = qa
        if qb > self.max_qubit:
            self.max_qubit = qb

    def extend_ir(self, other: "CircuitIR") -> None:
        """Bulk-append another IR's window (array-level, no per-gate boxing)."""
        if self._stop is not None:
            raise TypeError("cannot extend an IR view; compact() it first")
        ostart, ostop = other.start, other.stop
        if ostart == ostop:
            return
        base = len(self.op)
        self.op.extend(other.op[ostart:ostop])
        self.qa.extend(other.qa[ostart:ostop])
        self.qb.extend(other.qb[ostart:ostop])
        shift2q = self.cum2q[-1] - other.cum2q[ostart]
        self.cum2q.extend(array("i", [value + shift2q
                                      for value in other.cum2q[ostart + 1:ostop + 1]]))
        shiftswap = self.cumswap[-1] - other.cumswap[ostart]
        self.cumswap.extend(array("i", [value + shiftswap
                                        for value in other.cumswap[ostart + 1:ostop + 1]]))
        lo = bisect_left(other.pos2q, ostart)
        hi = bisect_left(other.pos2q, ostop)
        offset = base - ostart
        self.pos2q.extend(array("i", [position + offset
                                      for position in other.pos2q[lo:hi]]))
        if other.params:
            # Snapshot first: ``other`` may share this dict (extending a
            # circuit with itself or one of its own slice views).
            window_params = [(index, value) for index, value in other.params.items()
                             if ostart <= index < ostop]
            for index, value in window_params:
                self.params[index + offset] = value
        other_max = other._window_max_qubit()
        if other_max > self.max_qubit:
            self.max_qubit = other_max

    # ---------------------------------------------------------------- queries

    def gate(self, index: int) -> tuple[str, tuple[int, ...], tuple[str, ...]]:
        """The ``(name, qubits, params)`` triple of gate ``index`` (relative)."""
        absolute = self.start + index
        if not self.start <= absolute < self.stop:
            raise IndexError(f"gate index {index} outside 0..{len(self) - 1}")
        qb = self.qb[absolute]
        qubits = (self.qa[absolute],) if qb < 0 else (self.qa[absolute], qb)
        return (opcode_name(self.op[absolute]), qubits,
                self.params.get(absolute, _EMPTY_PARAMS))

    def iter_ops(self) -> Iterator[tuple[str, tuple[int, ...], tuple[str, ...]]]:
        """Yield ``(name, qubits, params)`` per gate without building objects."""
        op, qa, qb, params = self.op, self.qa, self.qb, self.params
        names = _OPCODE_NAMES
        for index in range(self.start, self.stop):
            b = qb[index]
            qubits = (qa[index],) if b < 0 else (qa[index], b)
            yield names[op[index]], qubits, params.get(index, _EMPTY_PARAMS)

    @property
    def num_two_qubit(self) -> int:
        return self.cum2q[self.stop] - self.cum2q[self.start]

    @property
    def num_swaps(self) -> int:
        return self.cumswap[self.stop] - self.cumswap[self.start]

    def two_qubit_indices(self) -> array:
        """Relative indices of this window's two-qubit gates (a fresh array)."""
        lo = bisect_left(self.pos2q, self.start)
        hi = bisect_left(self.pos2q, self.stop)
        if self.start == 0:
            return self.pos2q[lo:hi]
        return array("i", [position - self.start
                           for position in self.pos2q[lo:hi]])

    def interaction_sequence(self) -> list[tuple[int, int]]:
        """Ordered ``(qa, qb)`` pairs of the window's two-qubit gates."""
        lo = bisect_left(self.pos2q, self.start)
        hi = bisect_left(self.pos2q, self.stop)
        qa, qb, pos2q = self.qa, self.qb, self.pos2q
        return [(qa[position], qb[position]) for position in pos2q[lo:hi]]

    def used_qubits(self) -> set[int]:
        used = set(self.qa[self.start:self.stop])
        used.update(self.qb[self.start:self.stop])
        used.discard(-1)
        return used

    def depth(self, num_qubits: int) -> int:
        frontier = [0] * num_qubits
        qa, qb = self.qa, self.qb
        deepest = 0
        for index in range(self.start, self.stop):
            a = qa[index]
            b = qb[index]
            if b < 0:
                level = frontier[a] + 1
                frontier[a] = level
            else:
                level = max(frontier[a], frontier[b]) + 1
                frontier[a] = level
                frontier[b] = level
            if level > deepest:
                deepest = level
        return deepest

    def slice_bounds_by_two_qubit_gates(self, slice_size: int) -> list[tuple[int, int]]:
        """``[start, stop)`` windows each holding ``slice_size`` two-qubit gates.

        Single-qubit gates travel with the two-qubit gate that follows them;
        trailing gates join the final slice.  Index arithmetic over the
        ``pos2q`` column -- no gate is ever copied or even touched.
        """
        if slice_size <= 0:
            raise ValueError("slice_size must be positive")
        total = len(self)
        lo = bisect_left(self.pos2q, self.start)
        hi = bisect_left(self.pos2q, self.stop)
        bounds: list[tuple[int, int]] = []
        cursor = 0
        for cut in range(lo + slice_size - 1, hi, slice_size):
            end = self.pos2q[cut] - self.start + 1
            bounds.append((cursor, end))
            cursor = end
        if cursor < total or not bounds:
            bounds.append((cursor, total))
        return bounds

    # ---------------------------------------------------------------- pickling

    def __getstate__(self) -> dict:
        """Columns plus the names of the opcodes they use.

        Opcodes are process-local, so the ``op`` column travels with its
        own small code -> name table and is re-interned on load.
        """
        source = self.compact() if self.is_view else self
        return {
            "names": {code: opcode_name(code) for code in set(source.op)},
            "op": source.op,
            "qa": source.qa,
            "qb": source.qb,
            "params": source.params,
        }

    def __setstate__(self, state: dict) -> None:
        local = {code: opcode(name) for code, name in state["names"].items()}
        fresh = CircuitIR.from_columns([local[code] for code in state["op"]],
                                       state["qa"], state["qb"], state["params"])
        for slot in CircuitIR.__slots__:
            setattr(self, slot, getattr(fresh, slot))


__all__ = [
    "CircuitIR",
    "SWAP_OP",
    "opcode",
    "opcode_name",
]
