"""Golden hashes of the QMR encoder's clause stream.

Each case hashes the decoded hard-clause list, the soft list and the
variable count of one encoding.  The hashes pin variable numbering and
clause order, which is what keeps SAT behaviour -- and therefore SWAP
counts and optima -- identical across refactors of clause transport.  A
change that alters any of these hashes alters the formula the solver
sees; update a hash only together with a deliberate encoding change.
"""

import hashlib
import json

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import h, rz
from repro.circuits.random_circuits import random_circuit
from repro.core.encoder import EncodingOptions, QmrEncoder
from repro.hardware.noise import NoiseModel
from repro.hardware.topologies import line_architecture, tokyo_architecture
from repro.sat import SatSession

PINNED_MAP = {0: 3, 1: 7, 2: 2, 3: 11, 4: 6, 5: 0}


def digest(encoding, extra=None) -> str:
    builder = encoding.builder
    payload = {
        "num_vars": builder.num_vars,
        "hard": [list(clause) for clause in builder.hard],
        "soft": [[list(soft.literals), soft.weight] for soft in builder.soft],
        "extra": extra,
    }
    blob = json.dumps(payload, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def tokyo_case(**options):
    return (tokyo_architecture(), random_circuit(6, 10, seed=4), options)


def build_cases():
    tokyo = tokyo_architecture()
    return {
        "plain": tokyo_case(),
        "leading-pinned": tokyo_case(leading_swap_slot=True,
                                     fixed_initial_mapping=PINNED_MAP,
                                     pin_initial_via_assumptions=True),
        "two-swaps-per-gate": (line_architecture(5),
                               random_circuit(4, 6, seed=9),
                               {"swaps_per_gate": 2}),
        "cyclic": tokyo_case(cyclic=True),
        "noise-aware": tokyo_case(noise_model=NoiseModel.synthetic(tokyo, seed=5)),
        "fixed-initial": tokyo_case(fixed_initial_mapping=PINNED_MAP),
        "no-two-qubit-gates": (tokyo, QuantumCircuit(4, [h(0), rz(1, 0.5), h(3)]), {}),
    }


GOLDEN = {
    "plain":
        "73a13004fd9f1e722553722ce01e975c006faffa982a3ff0c733ff24a36150d9",
    "leading-pinned":
        "4efbe1bb5d64f77ca07be72d7c4003ec65bbe77be4a2b88a6f0a91a7e5b14c32",
    "two-swaps-per-gate":
        "3324916c77704fd3df5c24841329907c26d52727b6f07b141764a0250ea27716",
    "cyclic":
        "00424abbd769b2df3c0b60415e0d5c507f7ea929e623d1b83fe2f9fc37570f9c",
    "noise-aware":
        "ec21cbd99acd5005f7d5883615a7fa99627cca7fc9834ade058996612bbaf1e3",
    "fixed-initial":
        "75e563d6e7da435ee9dcc62dbd06b66eb2d22edca0c367bd903c48a1b56b4583",
    "no-two-qubit-gates":
        "3cf35b48bad78f39dab32aadff0ba9fe2264174605924da5f3fe78231f3080e7",
}


def encode_case(name, sink=None):
    architecture, circuit, options = build_cases()[name]
    encoder = QmrEncoder(architecture, EncodingOptions(**options))
    return encoder.encode(circuit, sink=sink)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_clause_stream_matches_golden_hash(name):
    encoding = encode_case(name)
    extra = None
    if encoding.options.pin_initial_via_assumptions:
        extra = encoding.initial_mapping_assumptions(PINNED_MAP)
    assert digest(encoding, extra) == GOLDEN[name]


@pytest.mark.parametrize("name", ["plain", "cyclic", "no-two-qubit-gates"])
def test_streamed_encoding_counts_every_hard_clause(name):
    session = SatSession()
    encoding = encode_case(name, sink=session)
    assert encoding.num_hard_clauses > 0
    assert session.stats.clauses_streamed == encoding.num_hard_clauses
    # Streaming into a session leaves the recorded formula untouched.
    assert digest(encoding) == digest(encode_case(name))
