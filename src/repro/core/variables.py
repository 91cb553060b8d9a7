"""Boolean variable bookkeeping for the QMR encoding.

The encoding of Fig. 5 uses two families of variables:

* ``map(q, p, k)`` -- logical qubit ``q`` sits on physical qubit ``p`` right
  before the ``k``-th two-qubit gate (0-based step index here);
* ``swap(p, p', k, i)`` -- the ``i``-th SWAP slot before step ``k`` swaps the
  physical qubits ``p`` and ``p'``, with the synthetic "no-op edge"
  ``(p, p) = NOOP`` meaning no SWAP is performed in that slot.

:class:`VariableRegistry` hands out SAT variable indices for these on demand
and supports reverse lookup, which the extraction step uses to read a model
back into maps and SWAP lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.maxsat.wcnf import WcnfBuilder

#: Marker used as the "edge" of a no-op SWAP (the paper's synthetic edge (p0, p0)).
NOOP: tuple[int, int] = (-1, -1)


@dataclass
class VariableRegistry:
    """Allocates and indexes ``map`` and ``swap`` variables in a WCNF builder."""

    builder: WcnfBuilder
    map_vars: dict[tuple[int, int, int], int] = field(default_factory=dict)
    swap_vars: dict[tuple[tuple[int, int], int, int], int] = field(default_factory=dict)
    _reverse_map: dict[int, tuple[int, int, int]] = field(default_factory=dict)
    _reverse_swap: dict[int, tuple[tuple[int, int], int, int]] = field(default_factory=dict)
    _rows: dict[tuple[int, int], list[int]] = field(default_factory=dict, repr=False)

    def map_var(self, logical: int, physical: int, step: int) -> int:
        """Variable for ``map(logical, physical, step)``, creating it if needed."""
        key = (logical, physical, step)
        if key not in self.map_vars:
            variable = self.builder.new_var()
            self.map_vars[key] = variable
            self._reverse_map[variable] = key
        return self.map_vars[key]

    def map_row(self, logical: int, step: int, num_physical: int) -> list[int]:
        """``map(logical, p, step)`` for ``p = 0 .. num_physical - 1``, in order.

        Missing variables are created in physical-qubit order, exactly as
        ``num_physical`` successive :meth:`map_var` calls would.  The row is
        cached, so an encoder reads a step's variables with one lookup per
        logical qubit instead of one per literal.
        """
        row = self._rows.get((logical, step))
        if row is None:
            row = []
            for physical in range(num_physical):
                key = (logical, physical, step)
                variable = self.map_vars.get(key)
                if variable is None:
                    variable = self.builder.new_var()
                    self.map_vars[key] = variable
                    self._reverse_map[variable] = key
                row.append(variable)
            self._rows[(logical, step)] = row
        return row

    def swap_var(self, edge: tuple[int, int], step: int, slot: int = 0) -> int:
        """Variable for ``swap(edge, step, slot)``; ``edge`` may be :data:`NOOP`."""
        if edge != NOOP:
            edge = (min(edge), max(edge))
        key = (edge, step, slot)
        if key not in self.swap_vars:
            variable = self.builder.new_var()
            self.swap_vars[key] = variable
            self._reverse_swap[variable] = key
        return self.swap_vars[key]

    def lookup_map(self, variable: int) -> tuple[int, int, int] | None:
        """Reverse lookup: which (logical, physical, step) a variable encodes."""
        return self._reverse_map.get(variable)

    def lookup_swap(self, variable: int) -> tuple[tuple[int, int], int, int] | None:
        """Reverse lookup: which (edge, step, slot) a variable encodes."""
        return self._reverse_swap.get(variable)

    @property
    def num_map_vars(self) -> int:
        return len(self.map_vars)

    @property
    def num_swap_vars(self) -> int:
        return len(self.swap_vars)
