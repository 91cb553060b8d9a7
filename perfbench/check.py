"""Independent check of a routed circuit, written without repro's verifier.

The expected interactions come straight from the OpenQASM text the program
was given; the routed circuit is replayed from the reported initial map,
applying every SWAP, and must reproduce, for each logical qubit, the order
of its two-qubit partners in the input (repeated ``cycles`` times for a
cyclic job).  Every two-qubit operation must sit on a device edge.
"""

from __future__ import annotations

import re

_TWO_QUBIT = re.compile(r"^\s*\w+(?:\([^)]*\))?\s+\w+\[(\d+)\]\s*,\s*\w+\[(\d+)\]\s*;")
_QREG = re.compile(r"^\s*qreg\s+\w+\[(\d+)\]\s*;")


def expected_partners(qasm: str, cycles: int = 1) -> tuple[int, dict[int, list[int]]]:
    """Qubit count and each qubit's ordered two-qubit partners in ``qasm``."""
    width = 0
    order: dict[int, list[int]] = {}
    for line in qasm.splitlines():
        match = _QREG.match(line)
        if match:
            width += int(match.group(1))
            continue
        match = _TWO_QUBIT.match(line)
        if match:
            a, b = int(match.group(1)), int(match.group(2))
            order.setdefault(a, []).append(b)
            order.setdefault(b, []).append(a)
    return width, {qubit: partners * cycles for qubit, partners in order.items()}


def check_routing(qasm: str, cycles: int, routed_ops, initial_mapping: dict[int, int],
                  edges, reported_swaps: int) -> list[str]:
    """Problems found in one routed circuit; an empty list means it is correct.

    ``routed_ops`` yields ``(name, physical_qubits, params)`` triples;
    ``edges`` is the device's coupling list.
    """
    width, expected = expected_partners(qasm, cycles)
    coupling = {frozenset(edge) for edge in edges}
    problems: list[str] = []
    logical_at: dict[int, int] = {}
    for logical, physical in initial_mapping.items():
        if physical in logical_at:
            problems.append(f"initial map sends two qubits to physical {physical}")
        logical_at[physical] = logical
    missing = [q for q in range(width) if q not in initial_mapping]
    if missing:
        problems.append(f"initial map omits logical qubits {missing}")
    if problems:
        return problems

    replayed: dict[int, list[int]] = {}
    swaps = 0
    for name, qubits, _params in routed_ops:
        if len(qubits) != 2:
            continue
        p, q = qubits
        if frozenset((p, q)) not in coupling:
            problems.append(f"{name} on ({p}, {q}) is not a device edge")
            return problems
        a, b = logical_at.get(p), logical_at.get(q)
        if name == "swap":
            swaps += 1
            for physical, logical in ((q, a), (p, b)):
                if logical is None:
                    logical_at.pop(physical, None)
                else:
                    logical_at[physical] = logical
            continue
        if a is None or b is None:
            problems.append(f"{name} on ({p}, {q}) touches an unmapped physical qubit")
            return problems
        replayed.setdefault(a, []).append(b)
        replayed.setdefault(b, []).append(a)
    if replayed != expected:
        wrong = sorted(q for q in set(replayed) | set(expected)
                       if replayed.get(q) != expected.get(q))
        problems.append(f"interaction order differs on logical qubits {wrong}")
    if swaps != reported_swaps:
        problems.append(f"{swaps} SWAPs in the circuit, {reported_swaps} reported")
    return problems
