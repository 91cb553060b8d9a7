"""Python driver for the compiled CDCL core.

:class:`NativeSatSolver` exposes the exact interface of
:class:`repro.sat.solver.SatSolver` — ``new_var`` / ``ensure_vars`` /
``add_clause`` / ``solve(assumptions, time_budget, conflict_budget)`` /
``stats`` / ``ok`` — over the C extension :mod:`repro.sat._native.core`.

The C side only runs one restart *window* at a time
(``core.search(max_conflicts, conflict_budget, time_budget)``); this
wrapper owns the Luby restart schedule, the per-call budget bookkeeping,
:class:`~repro.sat.solver.SolverStatistics`, and the per-solve ``sat-solve``
trace span, so everything the MaxSAT layer and the observability stack rely
on behaves identically to the pure-Python solver.  Returning to Python once
per restart costs nothing measurable (restarts are hundreds of conflicts
apart) and keeps anytime budgets honest even if the C core misbehaves.

Clauses arrive either one at a time (``add_clause``, used for MaxSAT
relaxation scaffolding) or in bulk (``add_clause_buffer``, a length-prefixed
``array('i')`` as described in :mod:`repro.sat.clausebuf`, used for
everything the encoder produces).  Both reach the same simplification
routine in the C core; a buffer crosses the Python/C boundary once.

Cross-checking (``REPRO_SAT_CROSSCHECK=1``) happens here rather than in
:class:`~repro.sat.session.SatSession` because MaxSAT strategies add
relaxation clauses directly through ``session.solver.add_clause``: the
wrapper appends everything it ingests to one clause buffer, evaluates every
logged clause under every SAT model, and replays UNSAT verdicts through a
fresh pure-Python solver loaded from that buffer.  A disagreement raises
:class:`CrossCheckError` — loudly, since it means one of the cores is wrong.

Pickling (needed because pipelined slicing ships prebuilt
:class:`~repro.core.satmap.SliceContext` objects across process
boundaries) round-trips the *formula*, not the solver state: the C core
exports its live problem clauses and root-level units as one clause
buffer, and unpickling replays it into a fresh core with a single
``add_clause_buffer`` call.  Learnt clauses and activity are dropped,
which is fine for the prebuild path (contexts cross the boundary unsolved);
if the extension is missing on the receiving side the replay lands in a
pure-Python solver instead.
"""

from __future__ import annotations

import time
from array import array

from repro.obs import trace as obs_trace
from repro.sat import backends, clausebuf
from repro.sat._native import load_core
from repro.sat.solver import (
    SolverStatistics,
    SolverStatus,
    SolveResult,
    luby,
)


class CrossCheckError(RuntimeError):
    """The native core and the pure-Python core disagreed on an answer."""


def _rebuild_solver(kwargs: dict, clauses: array, num_vars: int,
                    stats: dict):
    """Unpickle helper: replay an exported formula into a fresh solver.

    Falls back to the pure-Python solver when the extension is unavailable
    in the unpickling process, so a pickled context never becomes unusable.
    """
    if load_core() is not None:
        solver = NativeSatSolver(**kwargs)
    else:  # pragma: no cover - needs an env without the extension
        from repro.sat.solver import SatSolver

        solver = SatSolver(
            decay=kwargs.get("decay", 0.95),
            restart_base=kwargs.get("restart_base", 100),
            max_learnt_ratio=kwargs.get("max_learnt_ratio", 0.4),
        )
    solver.add_clause_buffer(clauses)
    solver.ensure_vars(num_vars)
    for key, value in stats.items():
        if key != "backend":
            setattr(solver.stats, key, value)
    return solver


class NativeSatSolver:
    """CDCL solver backed by the compiled core; see module docstring."""

    def __init__(
        self,
        decay: float = 0.95,
        restart_base: int = 100,
        max_learnt_ratio: float = 0.4,
    ) -> None:
        core_module = load_core()
        if core_module is None:
            raise RuntimeError(
                "repro.sat._native.core is not importable; build it with "
                "`python setup.py build_ext --inplace` or use the python "
                "backend"
            )
        self._core = core_module.Core(decay=decay,
                                      max_learnt_ratio=max_learnt_ratio)
        self._kwargs = {
            "decay": decay,
            "restart_base": restart_base,
            "max_learnt_ratio": max_learnt_ratio,
        }
        self.restart_base = restart_base
        self.max_learnt_ratio = max_learnt_ratio
        self.stats = SolverStatistics(backend="native")
        self._counter_base = self._core.counters()
        self._crosscheck = backends.crosscheck_enabled()
        #: Every clause ever ingested as one clause buffer, kept only in
        #: cross-check mode.  An empty clause cannot be stored in a buffer;
        #: it is remembered by the flag below instead.
        self._clause_log = array("i")
        self._empty_clause_logged = False
        self._unsat_crosschecked = False

    # ------------------------------------------------------------------ setup

    @property
    def num_vars(self) -> int:
        return self._core.num_vars

    @property
    def ok(self) -> bool:
        """``False`` once the formula is unsatisfiable at the root."""
        return self._core.ok

    def new_var(self) -> int:
        """Allocate and return a fresh variable index."""
        return self._core.new_var()

    def ensure_vars(self, max_var: int) -> None:
        """Make sure all variables up to ``max_var`` exist (bulk growth)."""
        self._core.ensure_vars(max_var)

    def add_clause(self, literals: list[int]) -> bool:
        """Add a clause; return ``False`` if the formula became trivially UNSAT."""
        if not self._core.ok:
            return False
        ok = self._core.add_clause(literals)
        if self._crosscheck:
            if literals:
                self._clause_log.append(len(literals))
                self._clause_log.extend(literals)
            else:
                self._empty_clause_logged = True
        return ok

    def add_clause_buffer(self, buf) -> bool:
        """Add every clause of a clause buffer in one call into the core.

        The core validates the whole buffer first, so a malformed buffer
        raises and adds nothing.  Returns ``False`` if the formula is
        trivially UNSAT afterwards.
        """
        self._core.add_clause_buffer(buf)
        if self._crosscheck:
            self._clause_log.extend(buf)
        return self._core.ok

    def add_clauses(self, clauses: list[list[int]]) -> bool:
        """Add several clauses; return ``False`` if any made the formula UNSAT."""
        return self.add_clause_buffer(clausebuf.pack(clauses))

    def num_clauses(self) -> int:
        return self._core.num_problem

    def num_learnt(self) -> int:
        """Learnt clauses currently retained in the database."""
        return self._core.num_learnt

    # --------------------------------------------------------------- search

    def solve(
        self,
        assumptions: list[int] | None = None,
        time_budget: float | None = None,
        conflict_budget: int | None = None,
    ) -> SolveResult:
        """Solve the current formula under optional assumptions and budgets."""
        start = time.monotonic()
        wall_start = time.time()
        base = self._counter_base
        assumptions = list(assumptions or [])

        def finish(status: SolverStatus, model=None, core=None) -> SolveResult:
            counters = self._core.counters()
            deltas = [now - before for now, before in zip(counters, base)]
            self._counter_base = counters
            self.stats.conflicts += deltas[0]
            self.stats.decisions += deltas[1]
            self.stats.propagations += deltas[2]
            self.stats.learnt_clauses += deltas[3]
            self.stats.deleted_clauses += deltas[4]
            result = SolveResult(
                status=status,
                model=model or {},
                core=core or [],
                conflicts=deltas[0],
                decisions=deltas[1],
                propagations=deltas[2],
                solve_time=time.monotonic() - start,
            )
            obs_trace.record(
                "sat-solve", start=wall_start, duration=result.solve_time,
                status=status.value, conflicts=result.conflicts,
                decisions=result.decisions, propagations=result.propagations,
                restarts=restarts_this_call,
                assumptions=len(assumptions),
                backend="native",
            )
            if self._crosscheck:
                self._verify(result, assumptions, time_budget,
                             conflict_budget)
            return result

        restarts_this_call = 0
        if not self._core.ok:
            return finish(SolverStatus.UNSAT)
        if self._core.prepare_solve(assumptions) == -1:
            return finish(SolverStatus.UNSAT)

        restart_round = 0
        conflicts_this_call = 0
        while True:
            window = self.restart_base * luby(restart_round + 1)
            if time_budget is None:
                time_remaining = -1.0
            else:
                time_remaining = max(0.0, time_budget
                                     - (time.monotonic() - start))
            if conflict_budget is None:
                conflicts_remaining = -1
            else:
                conflicts_remaining = conflict_budget - conflicts_this_call
            before = self._core.counters()[0]
            status = self._core.search(window, conflicts_remaining,
                                       time_remaining)
            conflicts_this_call += self._core.counters()[0] - before
            if status == 2:
                restart_round += 1
                restarts_this_call += 1
                self.stats.restarts += 1
                continue
            if status == 1:
                model_bytes = self._core.get_model()
                model = {variable: bool(model_bytes[variable])
                         for variable in range(1, self._core.num_vars + 1)}
                return finish(SolverStatus.SAT, model=model)
            if status == -1:
                return finish(SolverStatus.UNSAT)
            if status == -2:
                return finish(SolverStatus.UNSAT,
                              core=self._core.get_core())
            return finish(SolverStatus.UNKNOWN)

    # --------------------------------------------------------- cross-check

    def _verify(self, result: SolveResult, assumptions: list[int],
                time_budget: float | None,
                conflict_budget: int | None) -> None:
        """Replay a native answer through the pure-Python reference core."""
        if result.is_sat:
            model = result.model
            for clause in clausebuf.decode(self._clause_log):
                satisfied = any(
                    model.get(abs(literal), False) is (literal > 0)
                    for literal in clause
                )
                if not satisfied:
                    raise CrossCheckError(
                        f"native model does not satisfy clause {clause}"
                    )
            for literal in assumptions:
                if model.get(abs(literal), False) is not (literal > 0):
                    raise CrossCheckError(
                        f"native model violates assumption {literal}"
                    )
            return
        if result.is_unsat:
            if not assumptions and self._unsat_crosschecked:
                return  # the root verdict cannot change; checked once
            from repro.sat.solver import SatSolver

            reference = SatSolver()
            reference.add_clause_buffer(self._clause_log)
            if self._empty_clause_logged:
                reference.add_clause([])
            replay = reference.solve(assumptions=assumptions or None,
                                     time_budget=time_budget,
                                     conflict_budget=conflict_budget)
            # An UNKNOWN replay (budget ran out first) is inconclusive, not
            # a disagreement: the reference core is much slower.
            if replay.is_sat:
                raise CrossCheckError(
                    "native said UNSAT but the python core found a model "
                    f"(assumptions={assumptions})"
                )
            if not assumptions and replay.is_unsat:
                self._unsat_crosschecked = True

    # ------------------------------------------------------------- pickling

    def __reduce__(self):
        return (
            _rebuild_solver,
            (
                dict(self._kwargs),
                self._core.export_clauses(),
                self._core.num_vars,
                self.stats.as_dict(),
            ),
        )


__all__ = ["NativeSatSolver", "CrossCheckError"]
