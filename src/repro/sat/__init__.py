"""A self-contained CDCL SAT solver.

The paper's tool, SATMAP, delegates MaxSAT solving to Open-WBO-Inc-MCS, which
internally drives a CDCL SAT solver.  This package provides that substrate in
pure Python: a conflict-driven clause-learning solver with two-watched
literals, first-UIP clause learning, VSIDS branching, phase saving, Luby
restarts, assumption-based incremental solving, and DIMACS import/export.

The public entry points are:

* :class:`repro.sat.solver.SatSolver` -- the incremental CDCL solver.
* :class:`repro.sat.solver.SolveResult` -- SAT/UNSAT/UNKNOWN outcome.
* :class:`repro.sat.session.SatSession` -- a persistent solve session that
  keeps one solver (and its learnt clauses) alive across calls.
* :class:`repro.sat.session.ClauseSink` -- the streaming-ingestion protocol
  shared by sessions and the WCNF builder.
* :mod:`repro.sat.clausebuf` -- the length-prefixed ``array('i')`` clause
  buffers that carry clauses in bulk from the encoder to either core.
* :mod:`repro.sat.dimacs` -- reading and writing DIMACS CNF / WCNF files.
* :mod:`repro.sat.preprocessing` -- clause-level simplification.
* :mod:`repro.sat.enumeration` -- blocking-clause model enumeration.
* :mod:`repro.sat.backends` -- the solve-core registry: the pure-Python
  reference solver above, or :class:`repro.sat.native.NativeSatSolver`
  driving the optional C extension :mod:`repro.sat._native.core`
  (``resolve_backend`` / ``create_solver`` / ``native_available``).
"""

from repro.sat.literals import lit, neg, var_of, sign_of
from repro.sat.solver import SatSolver, SolveResult, SolverStatus
from repro.sat.backends import (
    available_backends,
    create_solver,
    describe_backends,
    native_available,
    resolve_backend,
)
from repro.sat.session import ClauseSink, SatSession, SessionStats
from repro.sat.preprocessing import Preprocessor, PreprocessResult, simplify_clauses
from repro.sat.enumeration import ModelEnumerator, all_models, count_models

__all__ = [
    "SatSolver",
    "SolveResult",
    "SolverStatus",
    "SatSession",
    "SessionStats",
    "ClauseSink",
    "available_backends",
    "create_solver",
    "describe_backends",
    "native_available",
    "resolve_backend",
    "lit",
    "neg",
    "var_of",
    "sign_of",
    "Preprocessor",
    "PreprocessResult",
    "simplify_clauses",
    "ModelEnumerator",
    "all_models",
    "count_models",
]
