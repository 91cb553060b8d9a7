"""A small OpenQASM 2.0 reader and writer.

The public benchmark circuits the paper uses are distributed as OpenQASM 2.0
files.  This module implements the subset of the language those files use:
``OPENQASM``/``include`` headers, ``qreg``/``creg`` declarations, the standard
gate set from ``qelib1.inc`` (with parameters), ``measure`` and ``barrier``
statements.  Gate definitions (``gate ... { ... }``) are parsed and expanded
only when they are simple (non-recursive) compositions of known gates; the
benchmark files do not need more.

Inside the serving path the text is only the wire and disk format: a
submission is parsed once (in the gateway) and its circuit then travels as
flat IR, and a routed circuit is rendered once (its rendering is memoised
on the circuit).  :func:`qasm_round_trips` says when a circuit and its text
are interchangeable, which is what lets the service skip the text.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import KNOWN_GATES
from repro.circuits.ir import CircuitIR, opcode, opcode_name


class QasmError(ValueError):
    """Raised when a QASM file cannot be parsed."""


#: An expanded statement: ``(name, qubits, params)`` -- plain data, no boxing.
_Op = tuple[str, tuple[int, ...], tuple[str, ...]]


_QREG_RE = re.compile(r"qreg\s+(\w+)\s*\[\s*(\d+)\s*\]")
_CREG_RE = re.compile(r"creg\s+(\w+)\s*\[\s*(\d+)\s*\]")
_APPLICATION_RE = re.compile(r"^\s*(\w+)\s*(\(([^)]*)\))?\s+(.+)$", re.DOTALL)
_OPERAND_RE = re.compile(r"(\w+)\s*(\[\s*(\d+)\s*\])?")
#: The plain statement: ``name[(params)] reg[i]`` or ``name[(params)]
#: reg[i], reg[j]``.  Whatever it matches, ``_APPLICATION_RE`` and
#: ``_OPERAND_RE`` read as the same gate.
_PLAIN_APPLICATION_RE = re.compile(
    r"(\w+)\s*(?:\(([^)]*)\))?\s+(\w+)\s*\[\s*(\d+)\s*\]"
    r"(?:\s*,\s*(\w+)\s*\[\s*(\d+)\s*\])?")
_IGNORED_DECLARATIONS = ("openqasm", "include", "creg", "//")
_IGNORED_STATEMENTS = ("measure", "barrier", "reset", "if")
_NO_PARAMS: tuple[str, ...] = ()
#: Characters (or a comment opener) that the reader would not give back
#: verbatim inside a parameter.
_UNSAFE_PARAM_RE = re.compile(r"[,;(){}]|//")


def parse_qasm(text: str, name: str = "qasm_circuit") -> QuantumCircuit:
    """Parse OpenQASM 2.0 text into a :class:`QuantumCircuit`.

    Multi-register programs are flattened into a single contiguous qubit index
    space in declaration order.  Measurements and barriers are dropped (they
    are irrelevant to mapping and routing).

    One pass over the statements: each one is matched against the plain
    ``name[(params)] reg[i][, reg[j]]`` form that almost every line of a
    benchmark file (and every line :func:`circuit_to_qasm` writes) has, and
    its opcodes and operands go into plain column lists; the flat
    :class:`CircuitIR` is built from those columns in bulk at the end.  A
    statement outside that form, or one naming an unknown register or an
    index out of range, is read by the general path, which raises a
    :class:`QasmError` naming the problem.
    """
    if "//" in text:
        text = _strip_comments(text)
    custom_gates: dict[str, tuple[list[str], list[str], list[str]]] = {}
    if "{" in text:  # a gate definition needs a brace; skip the scan otherwise
        text = _extract_gate_definitions(text, custom_gates)
    registers: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
    total_qubits = 0
    ops: list[int] = []
    column_a: list[int] = []
    column_b: list[int] = []
    params_at: dict[int, tuple[str, ...]] = {}
    plain_match = _PLAIN_APPLICATION_RE.fullmatch

    # Every piece but the last is followed by ';' -- exactly the statements.
    for statement in text.split(";")[:-1]:
        statement = statement.strip()
        if not statement:
            continue
        lowered = statement.lower()
        if lowered.startswith(_IGNORED_DECLARATIONS):
            continue
        if lowered.startswith("qreg"):
            match = _QREG_RE.search(statement)
            if not match:
                raise QasmError(f"malformed qreg statement: {statement!r}")
            size = int(match.group(2))
            registers[match.group(1)] = (total_qubits, size)
            total_qubits += size
            continue
        if lowered.startswith(_IGNORED_STATEMENTS):
            continue
        match = plain_match(statement)
        parsed = _plain_application(match, registers) if match is not None else None
        if parsed is None:
            parsed = _parse_application(statement, registers)
        for op_name, op_qubits, op_params in _expand(*parsed, custom_gates):
            if op_params:
                params_at[len(ops)] = op_params
            ops.append(opcode(op_name))
            column_a.append(op_qubits[0])
            column_b.append(op_qubits[1] if len(op_qubits) == 2 else -1)

    if total_qubits == 0:
        raise QasmError("no qreg declaration found")
    # Register bounds were checked per statement, so every operand already
    # lies inside 0..total_qubits-1; wrap the columns without revalidating.
    return QuantumCircuit.from_ir(
        total_qubits, CircuitIR.from_columns(ops, column_a, column_b, params_at),
        name=name)


def _strip_comments(text: str) -> str:
    lines = []
    for line in text.splitlines():
        if "//" in line:
            line = line.split("//", 1)[0]
        lines.append(line)
    return "\n".join(lines)


def _extract_gate_definitions(
    text: str, custom_gates: dict[str, tuple[list[str], list[str], list[str]]]
) -> str:
    """Pull ``gate name(params) args { body }`` blocks out of the program text."""
    definition_re = re.compile(
        r"gate\s+(\w+)\s*(\(([^)]*)\))?\s*([\w\s,]*)\{([^}]*)\}", re.DOTALL
    )

    def record(match: re.Match) -> str:
        gate_name = match.group(1)
        params = [p.strip() for p in (match.group(3) or "").split(",") if p.strip()]
        args = [a.strip() for a in (match.group(4) or "").split(",") if a.strip()]
        body_statements = [s.strip() for s in match.group(5).split(";") if s.strip()]
        custom_gates[gate_name] = (params, args, body_statements)
        return ""

    return definition_re.sub(record, text)


def _plain_application(
    match: re.Match, registers: dict[str, tuple[int, int]],
) -> tuple[str, tuple[str, ...], list[int]] | None:
    """A statement of the plain form, or ``None`` when an operand names an
    unknown register or an index out of range (the general path raises)."""
    gate_name, param_text, register_a, index_a, register_b, index_b = match.groups()
    first = registers.get(register_a)
    if first is None or int(index_a) >= first[1]:
        return None
    qubits = [first[0] + int(index_a)]
    if register_b is not None:
        second = registers.get(register_b)
        if second is None or int(index_b) >= second[1]:
            return None
        qubits.append(second[0] + int(index_b))
    params = (tuple(p.strip() for p in param_text.split(",") if p.strip())
              if param_text else _NO_PARAMS)
    return gate_name, params, qubits


def _parse_application(
    statement: str, registers: dict[str, tuple[int, int]],
) -> tuple[str, tuple[str, ...], list[int]]:
    """The general form of a gate application; raises on every malformation."""
    match = _APPLICATION_RE.match(statement)
    if not match:
        raise QasmError(f"cannot parse statement: {statement!r}")
    gate_name = match.group(1)
    params = tuple(p.strip() for p in (match.group(3) or "").split(",") if p.strip())
    operand_text = match.group(4)
    qubits: list[int] = []
    for operand_match in _OPERAND_RE.finditer(operand_text):
        register = operand_match.group(1)
        if register not in registers:
            raise QasmError(f"unknown register {register!r} in: {statement!r}")
        if operand_match.group(3) is None:
            raise QasmError(
                f"whole-register application is not supported: {statement!r}"
            )
        index = int(operand_match.group(3))
        offset, size = registers[register]
        if index >= size:
            raise QasmError(f"qubit index out of range in: {statement!r}")
        qubits.append(offset + index)
    if not qubits:
        raise QasmError(f"no qubit operands in: {statement!r}")
    return gate_name, params, qubits


def _expand(
    gate_name: str,
    params: tuple[str, ...],
    qubits: list[int],
    custom_gates: dict[str, tuple[list[str], list[str], list[str]]],
    depth: int = 0,
) -> list[_Op]:
    """Expand a gate application into known primitive gates (as plain tuples)."""
    if depth > 16:
        raise QasmError(f"gate definition nesting too deep at {gate_name!r}")
    if gate_name in KNOWN_GATES:
        expected_arity = KNOWN_GATES[gate_name]
        if len(qubits) != expected_arity:
            raise QasmError(
                f"gate {gate_name} expects {expected_arity} qubits, got {len(qubits)}"
            )
        if len(set(qubits)) != len(qubits):
            raise QasmError(f"gate {gate_name} repeats a qubit: {tuple(qubits)}")
        return [(gate_name, tuple(qubits), params)]
    if gate_name == "ccx" or gate_name == "ccz":
        return _expand_toffoli(qubits)
    if gate_name in custom_gates:
        formal_params, formal_args, body = custom_gates[gate_name]
        if len(formal_args) != len(qubits):
            raise QasmError(
                f"gate {gate_name} expects {len(formal_args)} qubits, got {len(qubits)}"
            )
        binding = dict(zip(formal_args, qubits))
        expanded: list[_Op] = []
        for statement in body:
            parsed = _APPLICATION_RE.match(statement)
            if not parsed:
                raise QasmError(f"cannot parse gate body statement: {statement!r}")
            inner_name = parsed.group(1)
            inner_params = tuple(
                p.strip() for p in (parsed.group(3) or "").split(",") if p.strip()
            )
            inner_qubits = []
            for token in parsed.group(4).split(","):
                token = token.strip()
                if token not in binding:
                    raise QasmError(f"unbound qubit {token!r} in gate {gate_name}")
                inner_qubits.append(binding[token])
            expanded.extend(
                _expand(inner_name, inner_params, inner_qubits, custom_gates, depth + 1)
            )
        return expanded
    raise QasmError(f"unknown gate {gate_name!r}")


def _expand_toffoli(qubits: list[int]) -> list[_Op]:
    """Standard 6-CNOT decomposition of the Toffoli gate.

    RevLib benchmarks use ``ccx`` heavily; QMR only needs the CNOT skeleton,
    but we keep the single-qubit gates so gate counts stay faithful.
    """
    if len(qubits) != 3:
        raise QasmError("ccx expects exactly 3 qubits")
    if len(set(qubits)) != 3:
        raise QasmError(f"ccx repeats a qubit: {tuple(qubits)}")
    a, b, c = qubits
    no_params: tuple[str, ...] = ()
    return [
        ("h", (c,), no_params),
        ("cx", (b, c), no_params),
        ("tdg", (c,), no_params),
        ("cx", (a, c), no_params),
        ("t", (c,), no_params),
        ("cx", (b, c), no_params),
        ("tdg", (c,), no_params),
        ("cx", (a, c), no_params),
        ("t", (b,), no_params),
        ("t", (c,), no_params),
        ("cx", (a, b), no_params),
        ("h", (c,), no_params),
        ("t", (a,), no_params),
        ("tdg", (b,), no_params),
        ("cx", (a, b), no_params),
    ]


def circuit_to_qasm(circuit: QuantumCircuit, register_name: str = "q") -> str:
    """Render a circuit as OpenQASM 2.0 text.

    The default-register rendering is memoised on the circuit: rendering the
    same routed circuit for the disk cache and for every response costs one
    pass.  The memo is keyed on the backing IR object, its length and the
    qubit count; a root IR only ever grows, so an append (or a replaced IR)
    misses the memo instead of serving stale text.
    """
    if register_name != "q":
        return _render(circuit, register_name)
    ir = circuit.ir
    memo = circuit._qasm
    if (memo is not None and memo[0] is ir and memo[1] == len(ir)
            and memo[2] == circuit.num_qubits):
        return memo[3]
    text = _render(circuit, register_name)
    circuit._qasm = (ir, len(ir), circuit.num_qubits, text)
    return text


def _render(circuit: QuantumCircuit, register_name: str) -> str:
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg {register_name}[{circuit.num_qubits}];",
    ]
    for gate_name, qubits, params in circuit.iter_ops():
        operands = ",".join(f"{register_name}[{qubit}]" for qubit in qubits)
        if params:
            lines.append(f"{gate_name}({','.join(params)}) {operands};")
        else:
            lines.append(f"{gate_name} {operands};")
    return "\n".join(lines) + "\n"


def qasm_round_trips(circuit: QuantumCircuit) -> bool:
    """Whether ``parse_qasm(circuit_to_qasm(circuit))`` gives back ``circuit``.

    True when every gate is a known primitive of matching arity on distinct,
    in-range qubits and every parameter survives the reader's comma split
    and strip.  Barriers, measurements, Toffolis, gates the reader does not
    know and such parameters are exactly what the text form changes or
    rejects.  Cheap next to a parse: one pass over the columns.
    """
    ir = circuit.ir
    num_qubits = circuit.num_qubits
    start, stop = ir.start, ir.stop
    op, qa, qb = ir.op, ir.qa, ir.qb
    arity = {code: KNOWN_GATES.get(opcode_name(code)) for code in set(op[start:stop])}
    if num_qubits <= 0 or None in arity.values():
        return False
    for index in range(start, stop):
        a = qa[index]
        b = qb[index]
        if (arity[op[index]] != (1 if b < 0 else 2) or a == b
                or not 0 <= a < num_qubits or b >= num_qubits):
            return False
    return all(isinstance(param, str) and param and param == param.strip()
               and not _UNSAFE_PARAM_RE.search(param)
               for index, params in ir.params.items() if start <= index < stop
               for param in params)


def load_qasm(path: str | Path) -> QuantumCircuit:
    """Load an OpenQASM 2.0 file from disk."""
    path = Path(path)
    return parse_qasm(path.read_text(), name=path.stem)


def save_qasm(circuit: QuantumCircuit, path: str | Path) -> None:
    """Write a circuit to disk as OpenQASM 2.0."""
    Path(path).write_text(circuit_to_qasm(circuit))
