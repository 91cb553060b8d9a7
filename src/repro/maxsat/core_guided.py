"""Core-guided (Fu-Malik) MaxSAT solving.

The Fu-Malik algorithm repeatedly asks the SAT solver for a model of the hard
clauses plus assumptions asserting that every not-yet-relaxed soft clause
holds.  Each UNSAT answer yields a core; every soft clause in the core gains a
fresh blocking variable, an exactly-one constraint over the new blocking
variables is added as hard, and the lower bound increases by one.  When the
formula becomes satisfiable the accumulated bound is the optimum.

This strategy is exact but not anytime (it produces no intermediate models),
so SATMAP uses it only for small instances and as an ablation against the
linear-search strategy.  Only unweighted (all weights equal 1) instances are
supported; the facade falls back to linear search otherwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.maxsat.cardinality import exactly_one
from repro.maxsat.wcnf import WcnfBuilder, clause_satisfied
from repro.sat.session import SatSession
from repro.sat.backends import create_solver
from repro.sat.solver import SatSolver, SolverStatus


@dataclass
class CoreGuidedOutcome:
    """Raw outcome of a Fu-Malik run."""

    found_model: bool
    optimal: bool
    cost: int
    model: dict[int, bool]
    sat_calls: int
    elapsed: float


class FuMalikSolver:
    """Fu-Malik core-guided MaxSAT for unweighted instances.

    With a :class:`~repro.sat.session.SatSession` the hard clauses stream into
    the live solver once and learnt clauses persist across the core loop; the
    blocking/selector machinery is rebuilt fresh on every run (the previous
    run's scaffolding becomes inert), which keeps repeated runs sound at the
    cost of O(#soft) inert clauses per run -- for many re-solves on one
    session, prefer the ``"linear"`` strategy, whose relaxation is built once.
    """

    def __init__(self, builder: WcnfBuilder,
                 session: SatSession | None = None,
                 solver_backend: str | None = None) -> None:
        if builder.is_weighted():
            raise ValueError("FuMalikSolver only supports unweighted soft clauses")
        self.builder = builder
        self.session = session
        self.solver_backend = solver_backend

    def solve(self, time_budget: float | None = None,
              assumptions: list[int] | None = None) -> CoreGuidedOutcome:
        start = time.monotonic()
        builder = self.builder
        base_assumptions = list(assumptions or [])
        original_soft = [list(soft.literals) for soft in builder.soft]

        if self.session is not None:
            builder.attach_sink(self.session)
            sat = self.session.solver
        else:
            sat = create_solver(self.solver_backend)
            sat.ensure_vars(builder.num_vars)
            sat.add_clause_buffer(builder.hard_buffer())

        # Working copy of every soft clause: original literals plus the
        # blocking variables accumulated over the cores it has appeared in.
        working: list[list[int]] = [list(literals) for literals in original_soft]
        # Current selector variable of each soft clause.  Assuming the
        # selector false asserts the working clause; an UNSAT core over the
        # selectors therefore names violated soft clauses.
        selectors: list[int] = []
        soft_of_selector: dict[int, int] = {}
        for index, literals in enumerate(working):
            selector = builder.new_var()
            sat.ensure_vars(builder.num_vars)
            sat.add_clause(literals + [selector])
            selectors.append(selector)
            soft_of_selector[selector] = index

        lower_bound = 0
        sat_calls = 0
        while True:
            remaining = None
            if time_budget is not None:
                remaining = time_budget - (time.monotonic() - start)
                if remaining <= 0:
                    return CoreGuidedOutcome(False, False, lower_bound, {}, sat_calls,
                                             time.monotonic() - start)
            assumption_literals = base_assumptions + [-selector for selector in selectors]
            result = sat.solve(assumptions=assumption_literals, time_budget=remaining)
            sat_calls += 1
            if result.status is SolverStatus.SAT:
                cost = sum(1 for literals in original_soft
                           if not clause_satisfied(literals, result.model))
                return CoreGuidedOutcome(
                    found_model=True,
                    optimal=True,
                    cost=cost,
                    model=dict(result.model),
                    sat_calls=sat_calls,
                    elapsed=time.monotonic() - start,
                )
            if result.status is SolverStatus.UNKNOWN:
                return CoreGuidedOutcome(False, False, lower_bound, {}, sat_calls,
                                         time.monotonic() - start)

            core_selectors = sorted({abs(literal) for literal in result.core
                                     if abs(literal) in soft_of_selector})
            if not core_selectors:
                # The hard clauses alone are unsatisfiable.
                return CoreGuidedOutcome(False, True, -1, {}, sat_calls,
                                         time.monotonic() - start)

            lower_bound += 1
            blocking_vars: list[int] = []
            for old_selector in core_selectors:
                soft_index = soft_of_selector.pop(old_selector)
                blocking = builder.new_var()
                new_selector = builder.new_var()
                sat.ensure_vars(builder.num_vars)
                blocking_vars.append(blocking)
                working[soft_index].append(blocking)
                # Retire the previous copy of the clause by forcing its
                # selector true, then install the extended copy.
                sat.add_clause([old_selector])
                sat.add_clause(working[soft_index] + [new_selector])
                position = selectors.index(old_selector)
                selectors[position] = new_selector
                soft_of_selector[new_selector] = soft_index

            hard_before = builder.hard_words
            exactly_one(builder, blocking_vars)
            sat.ensure_vars(builder.num_vars)
            if self.session is None:
                # An attached session already received these via streaming.
                sat.add_clause_buffer(builder.hard_buffer(hard_before))
