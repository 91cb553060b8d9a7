"""Tests for the OpenQASM 2.0 reader/writer."""

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import cx, h, rz
from repro.circuits.qasm import (
    QasmError,
    circuit_to_qasm,
    load_qasm,
    parse_qasm,
    qasm_round_trips,
    save_qasm,
)

SIMPLE = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
rz(0.25) q[2];
cx q[1],q[2];
measure q[0] -> c[0];
"""

TWO_REGISTERS = """
OPENQASM 2.0;
qreg a[2];
qreg b[2];
cx a[0],b[1];
cx b[0],a[1];
"""

CUSTOM_GATE = """
OPENQASM 2.0;
gate majority a,b,c { cx c,b; cx c,a; ccx a,b,c; }
qreg q[4];
majority q[0],q[1],q[2];
cx q[2],q[3];
"""


class TestParsing:
    def test_qubit_count(self):
        assert parse_qasm(SIMPLE).num_qubits == 3

    def test_gate_names_in_order(self):
        circuit = parse_qasm(SIMPLE)
        assert [gate.name for gate in circuit] == ["h", "cx", "rz", "cx"]

    def test_measure_and_creg_dropped(self):
        circuit = parse_qasm(SIMPLE)
        assert all(gate.name not in ("measure", "creg") for gate in circuit)

    def test_parameters_preserved(self):
        circuit = parse_qasm(SIMPLE)
        assert circuit.gates[2].params == ("0.25",)

    def test_comments_stripped(self):
        circuit = parse_qasm("OPENQASM 2.0;\nqreg q[2];\n// comment\ncx q[0],q[1]; // inline\n")
        assert circuit.num_two_qubit_gates == 1

    def test_two_registers_flattened(self):
        circuit = parse_qasm(TWO_REGISTERS)
        assert circuit.num_qubits == 4
        assert circuit.interaction_sequence() == [(0, 3), (2, 1)]

    def test_custom_gate_expansion(self):
        circuit = parse_qasm(CUSTOM_GATE)
        # majority expands to 2 CX + a decomposed Toffoli (6 CX) + final cx
        assert circuit.num_qubits == 4
        assert circuit.interaction_sequence()[:2] == [(2, 1), (2, 0)]
        assert circuit.num_two_qubit_gates == 2 + 6 + 1

    def test_toffoli_decomposition(self):
        circuit = parse_qasm("OPENQASM 2.0;\nqreg q[3];\nccx q[0],q[1],q[2];\n")
        assert circuit.num_two_qubit_gates == 6

    def test_unknown_gate_rejected(self):
        with pytest.raises(QasmError):
            parse_qasm("OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0],q[1];\n")

    def test_unknown_register_rejected(self):
        with pytest.raises(QasmError):
            parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncx r[0],q[1];\n")

    def test_out_of_range_index_rejected(self):
        with pytest.raises(QasmError):
            parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[5];\n")

    def test_missing_qreg_rejected(self):
        with pytest.raises(QasmError):
            parse_qasm("OPENQASM 2.0;\nh q[0];\n")

    def test_whole_register_application_rejected(self):
        with pytest.raises(QasmError):
            parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q;\n")

    def test_wrong_arity_rejected(self):
        with pytest.raises(QasmError):
            parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncx q[0];\n")


class TestWriting:
    def test_roundtrip_preserves_structure(self):
        circuit = QuantumCircuit(3, [h(0), cx(0, 1), rz(2, "0.5"), cx(1, 2)], name="rt")
        again = parse_qasm(circuit_to_qasm(circuit))
        assert [gate.name for gate in again] == [gate.name for gate in circuit]
        assert again.interaction_sequence() == circuit.interaction_sequence()

    def test_written_text_contains_header(self):
        text = circuit_to_qasm(QuantumCircuit(2, [cx(0, 1)]))
        assert text.startswith("OPENQASM 2.0;")
        assert "qreg q[2];" in text

    def test_file_roundtrip(self, tmp_path):
        circuit = QuantumCircuit(2, [cx(0, 1), cx(1, 0)], name="disk")
        path = tmp_path / "disk.qasm"
        save_qasm(circuit, path)
        loaded = load_qasm(path)
        assert loaded.name == "disk"
        assert loaded.interaction_sequence() == circuit.interaction_sequence()

    def test_swap_gates_survive_roundtrip(self):
        from repro.circuits.gates import swap

        circuit = QuantumCircuit(2, [swap(0, 1)])
        again = parse_qasm(circuit_to_qasm(circuit))
        assert again.gates[0].name == "swap"


HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

#: Malformed programs and the exact error each one raises.  The reader
#: takes a fast path for plain gate statements; every malformation here
#: must still raise the same message it did before that path existed.
READER_ERRORS = {
    "qreg q[2];\ncx r[0],q[1];\n": "unknown register 'r' in: 'cx r[0],q[1]'",
    "qreg q[2];\nh q;\n": "whole-register application is not supported: 'h q'",
    "qreg q[2];\nh q[2];\n": "qubit index out of range in: 'h q[2]'",
    "qreg q[2];\ncx q[0];\n": "gate cx expects 2 qubits, got 1",
    "qreg q[2];\nh q[0],q[1];\n": "gate h expects 1 qubits, got 2",
    "qreg q[2];\ncx q[1],q[1];\n": "gate cx repeats a qubit: (1, 1)",
    "creg c[2];\n": "no qreg declaration found",
    "qreg q[2];\nfoo q[0];\n": "unknown gate 'foo'",
    "qreg q[2];\nH q[0];\n": "unknown gate 'H'",
    "qreg q;\n": "malformed qreg statement: 'qreg q'",
    "qreg q[1];\nh;\n": "cannot parse statement: 'h'",
    "qreg q[1];\nh ,;\n": "no qubit operands in: 'h ,'",
    "qreg q[1];\nh 5;\n": "unknown register '5' in: 'h 5'",
    "qreg q[2];\nu3( 0.1 ,0.2, pi/2 )q[1];\n":
        "cannot parse statement: 'u3( 0.1 ,0.2, pi/2 )q[1]'",
    "qreg q[2];\ncx q[0]; q[1];\n": "gate cx expects 2 qubits, got 1",
    "qreg q[2];\n{ h q[0]; }\n": "cannot parse statement: '{ h q[0]'",
    "qreg q[3];\nccx q[0],q[1];\n": "ccx expects exactly 3 qubits",
    "qreg q[3];\nccx q[0],q[0],q[1];\n": "ccx repeats a qubit: (0, 0, 1)",
    "gate g a,b { cx a,b; h a; }\nqreg q[2];\ng q[0];\n":
        "gate g expects 2 qubits, got 1",
    "gate g a { cx a,c; }\nqreg q[2];\ng q[0];\n": "unbound qubit 'c' in gate g",
    "gate g a { ??? }\nqreg q[2];\ng q[0];\n":
        "cannot parse gate body statement: '???'",
    "gate g a { g a; }\nqreg q[2];\ng q[0];\n":
        "gate definition nesting too deep at 'g'",
    "gate g a { zz a; }\nqreg q[2];\ng q[0];\n": "unknown gate 'zz'",
}

#: Well-formed but unusual programs and the gates they read as.
READER_FORMS = {
    "qreg q[2];\ncx q[0],\n   q[1];\nrz(\n0.5) q[0];\n":
        [("cx", (0, 1), ()), ("rz", (0,), ("0.5",))],
    "qreg q[2];\ncx q[0] q[1];\n": [("cx", (0, 1), ())],
    "qreg q[2];\nrz(,0.5,) q[0];\nh() q[1];\n":
        [("rz", (0,), ("0.5",)), ("h", (1,), ())],
    "// a; b\nqreg q[2]; // cx q[0],q[5];\nh q[0]; // tail\ncx q[0],q[1];\n":
        [("h", (0,), ()), ("cx", (0, 1), ())],
    "gate cx a,b { h a; }\nqreg q[2];\ncx q[0],q[1];\n": [("cx", (0, 1), ())],
    "qreg q[2];\nh q[١];\n": [("h", (1,), ())],
    "qreg a[2];\nqreg b[3];\ncx a[1],b[2];\nh b[0];\nswap b[1],a[0];\n":
        [("cx", (1, 4), ()), ("h", (2,), ()), ("swap", (3, 0), ())],
    "qreg q[2];\ncreg c[2];\nbarrier q[0],q[1];\nmeasure q[0] -> c[0];\n"
    "reset q[1];\nif(c==1) x q[0];\nMEASURE q[1] -> c[1];\n": [],
    "qreg q[2];;;\nh q[0];  ;\ncx q[0],q[1]": [("h", (0,), ())],
}


class TestReaderContract:
    @pytest.mark.parametrize("body", sorted(READER_ERRORS))
    def test_error_messages(self, body):
        with pytest.raises(QasmError) as caught:
            parse_qasm(HEADER + body)
        assert str(caught.value) == READER_ERRORS[body]

    @pytest.mark.parametrize("body", sorted(READER_FORMS))
    def test_unusual_forms(self, body):
        circuit = parse_qasm(HEADER + body)
        assert list(circuit.iter_ops()) == READER_FORMS[body]

    @pytest.mark.parametrize("seed", range(12))
    def test_round_trip_of_written_circuits(self, seed):
        from repro.circuits.random_circuits import random_circuit

        circuit = random_circuit(3 + seed % 6, 5 + 7 * seed, seed=seed, name="rt")
        assert qasm_round_trips(circuit)
        again = parse_qasm(circuit_to_qasm(circuit), name="rt")
        assert again == circuit
        assert again.ir.interaction_sequence() == circuit.ir.interaction_sequence()
        assert again.num_swaps == circuit.num_swaps

    def test_round_trip_predicate_rejects_what_the_text_changes(self):
        def single(name, qubits, params=()):
            circuit = QuantumCircuit(3)
            circuit.append_op(name, qubits, params)
            return circuit

        assert qasm_round_trips(single("rz", (0,), ("pi/2",)))
        for circuit in (single("barrier", (0, 1)), single("measure", (0,)),
                        single("foo", (0,)), single("rz", (0,), ("a,b",)),
                        single("rz", (0,), (" 0.5",)), single("rz", (0,), ("",)),
                        single("rz", (0,), ("f(x)",)), single("rz", (0,), ("1//2",)),
                        single("cx", (0,))):
            assert not qasm_round_trips(circuit)
