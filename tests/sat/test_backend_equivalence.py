"""Backend equivalence: the compiled CDCL core answers like the reference.

The native backend (``repro.sat._native.core`` driven by
:class:`~repro.sat.native.NativeSatSolver`) is only admissible because it is
*observably interchangeable* with the pure-Python :class:`SatSolver`: same
SAT/UNSAT verdicts, same MaxSAT optima through every strategy, same routing
results, and byte-identical job content hashes (backend choice must never
leak into cache keys).  These tests pin that contract.

Everything here that needs the compiled core is skipped when the extension
is not built, so the file passes on a wheel installed without a C
toolchain -- the fallback behaviour itself is tested unconditionally.
"""

import pickle
import random
from array import array

import pytest

from repro.maxsat import MaxSatSolver, MaxSatStatus, WcnfBuilder
from repro.sat import SatSession, SatSolver
from repro.sat.clausebuf import pack
from repro.sat.backends import (
    BACKEND_ENV,
    CROSSCHECK_ENV,
    DISABLE_NATIVE_ENV,
    available_backends,
    create_solver,
    native_available,
    resolve_backend,
)

needs_native = pytest.mark.skipif(
    not native_available(), reason="compiled SAT core not built")


def random_cnf(rng: random.Random, num_vars: int, num_clauses: int) -> list[list[int]]:
    """A random CNF instance (clause width 1..3) in the session-test idiom."""
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, 3)
        variables = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses


def check_model(model: dict[int, bool], clauses: list[list[int]]) -> bool:
    return all(
        any(model.get(abs(lit), False) == (lit > 0) for lit in clause)
        for clause in clauses)


@needs_native
class TestVerdictEquivalence:
    """Same verdicts on randomized instances, models verified clause-wise."""

    def test_plain_instances(self):
        rng = random.Random(2201)
        for _ in range(30):
            clauses = random_cnf(rng, rng.randint(4, 18), rng.randint(6, 70))
            verdicts = {}
            for backend in ("python", "native"):
                session = SatSession(backend=backend)
                for clause in clauses:
                    session.add_hard(clause)
                result = session.solve()
                verdicts[backend] = result.is_sat
                if result.is_sat:
                    assert check_model(result.model, clauses), backend
            assert verdicts["python"] == verdicts["native"], clauses

    def test_instances_under_assumptions(self):
        rng = random.Random(2202)
        for _ in range(25):
            num_vars = rng.randint(5, 15)
            clauses = random_cnf(rng, num_vars, rng.randint(8, 50))
            assumptions = [v if rng.random() < 0.5 else -v
                           for v in rng.sample(range(1, num_vars + 1),
                                               rng.randint(1, 3))]
            outcomes = {}
            for backend in ("python", "native"):
                session = SatSession(backend=backend)
                for clause in clauses:
                    session.add_hard(clause)
                result = session.solve(assumptions=assumptions)
                outcomes[backend] = result.is_sat
                if result.is_sat:
                    assert check_model(result.model, clauses)
                    for lit in assumptions:
                        assert result.model[abs(lit)] == (lit > 0)
                else:
                    # The final-conflict core is a subset of the assumptions.
                    assert set(map(abs, result.core)) <= set(map(abs, assumptions))
            assert outcomes["python"] == outcomes["native"], (clauses, assumptions)

    def test_incremental_growth_stays_equivalent(self):
        """Interleaved add/solve -- the incremental path both cores share."""
        rng = random.Random(2203)
        python = SatSession(backend="python")
        native = SatSession(backend="native")
        clauses: list[list[int]] = []
        for _ in range(12):
            batch = random_cnf(rng, 12, rng.randint(3, 10))
            clauses.extend(batch)
            for clause in batch:
                python.add_hard(clause)
                native.add_hard(clause)
            p, n = python.solve(), native.solve()
            assert p.is_sat == n.is_sat
            if n.is_sat:
                assert check_model(n.model, clauses)
            else:
                break


@needs_native
class TestOptimaEquivalence:
    """Linear and OLL strategies reach the same optimum on either core."""

    @staticmethod
    def _random_wcnf(rng: random.Random) -> tuple[int, list, list]:
        num_vars = rng.randint(3, 8)
        hard = random_cnf(rng, num_vars, rng.randint(0, 10))
        soft = [(rng.randint(1, 4), clause)
                for clause in random_cnf(rng, num_vars, rng.randint(2, 8))]
        return num_vars, hard, soft

    @staticmethod
    def _build(num_vars, hard, soft) -> WcnfBuilder:
        builder = WcnfBuilder()
        builder.new_vars(num_vars)
        for clause in hard:
            builder.add_hard(list(clause))
        for weight, clause in soft:
            builder.add_soft(list(clause), weight)
        return builder

    @pytest.mark.parametrize("strategy", ["linear", "rc2"])
    def test_same_optima(self, strategy):
        rng = random.Random(2204)
        for _ in range(15):
            num_vars, hard, soft = self._random_wcnf(rng)
            outcomes = {}
            for backend in ("python", "native"):
                solver = MaxSatSolver(strategy,
                                      session=SatSession(backend=backend))
                result = solver.solve(self._build(num_vars, hard, soft))
                outcomes[backend] = (result.status, result.cost)
            assert outcomes["python"] == outcomes["native"], (hard, soft)

    @pytest.mark.parametrize("strategy", ["linear", "rc2"])
    def test_same_optima_without_session(self, strategy):
        """The session-less path resolves its own solver per strategy."""
        rng = random.Random(2205)
        for _ in range(8):
            num_vars, hard, soft = self._random_wcnf(rng)
            outcomes = {}
            for backend in ("python", "native"):
                solver = MaxSatSolver(strategy, solver_backend=backend)
                result = solver.solve(self._build(num_vars, hard, soft))
                outcomes[backend] = (result.status, result.cost)
            assert outcomes["python"] == outcomes["native"], (hard, soft)


@needs_native
class TestRoutingEquivalence:
    """Whole-pipeline equivalence: identical routing results, tagged stats."""

    @staticmethod
    def _route(backend: str):
        from repro.core.satmap import SatMapRouter
        from repro.circuits.named_circuits import qft_circuit
        from repro.hardware.topologies import line_architecture

        router = SatMapRouter(slice_size=10, time_budget=30.0,
                              solver_backend=backend)
        return router.route(qft_circuit(4), line_architecture(4))

    def test_identical_routing_results(self):
        python = self._route("python")
        native = self._route("native")
        assert python.solved and native.solved
        assert python.optimal == native.optimal
        assert python.swap_count == native.swap_count
        assert python.added_cnots == native.added_cnots
        assert python.status == native.status
        assert python.solver_stats["backend"] == "python"
        assert native.solver_stats["backend"] == "native"

    def test_golden_job_hashes_are_backend_independent(self, monkeypatch):
        """Backend choice via the environment never perturbs cache keys.

        The golden value is the ``satmap`` hash frozen in
        ``tests/service/test_hash_compat.py``: if either backend shifted it,
        a fleet mixing solve cores would stop deduplicating.
        """
        from repro.circuits.named_circuits import qft_circuit
        from repro.hardware.topologies import tokyo_architecture
        from repro.service.jobs import RoutingJob

        golden = "8da806fa513fa80d8a7a417e560a884c1a27a0c4054122a39a4991a26ec59f91"
        for backend in ("python", "native"):
            monkeypatch.setenv(BACKEND_ENV, backend)
            job = RoutingJob.from_spec(qft_circuit(5), tokyo_architecture(),
                                       "satmap")
            assert job.content_hash() == golden, backend


class TestBackendResolution:
    """Selection precedence and the graceful-fallback contract."""

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "python")
        assert resolve_backend("python") == "python"
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend("python") == "python"

    def test_env_beats_auto(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "python")
        assert resolve_backend() == "python"
        assert resolve_backend("auto") == "python"
        session = SatSession()
        assert session.backend == "python"
        assert isinstance(session.solver, SatSolver)

    def test_unknown_names_are_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("minisat")

    def test_forced_fallback_auto_uses_python(self, monkeypatch):
        """Native unavailable -> ``auto`` silently runs the reference core."""
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        monkeypatch.setenv(DISABLE_NATIVE_ENV, "1")
        assert not native_available()
        assert available_backends() == ["python"]
        assert resolve_backend() == "python"
        session = SatSession()
        assert session.backend == "python"
        assert isinstance(session.solver, SatSolver)
        session.add_hard([1, 2])
        session.add_hard([-1])
        result = session.solve()
        assert result.is_sat and result.model[2] is True
        assert session.solver_stats()["backend"] == "python"

    def test_forced_fallback_explicit_native_is_loud(self, monkeypatch):
        """An *explicit* native request must fail, never silently degrade."""
        monkeypatch.setenv(DISABLE_NATIVE_ENV, "1")
        with pytest.raises(RuntimeError, match="native"):
            resolve_backend("native")
        with pytest.raises(RuntimeError, match="native"):
            SatSession(backend="native")

    @needs_native
    def test_auto_prefers_native_when_available(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        monkeypatch.delenv(DISABLE_NATIVE_ENV, raising=False)
        assert resolve_backend() == "native"
        assert "native" in available_backends()

    @needs_native
    def test_stats_carry_the_backend_tag(self):
        for backend in ("python", "native"):
            solver = create_solver(backend)
            solver.ensure_vars(2)
            solver.add_clause([1, 2])
            assert solver.solve().is_sat
            assert solver.stats.as_dict()["backend"] == backend


@needs_native
class TestCrossCheck:
    """REPRO_SAT_CROSSCHECK=1 replays native answers through the python core."""

    def test_sat_and_unsat_verdicts_survive_crosschecking(self, monkeypatch):
        monkeypatch.setenv(CROSSCHECK_ENV, "1")
        rng = random.Random(2206)
        saw_sat = saw_unsat = False
        for _ in range(20):
            clauses = random_cnf(rng, rng.randint(4, 12), rng.randint(6, 45))
            session = SatSession(backend="native")
            for clause in clauses:
                session.add_hard(clause)
            result = session.solve()  # CrossCheckError on any divergence
            saw_sat |= result.is_sat
            saw_unsat |= not result.is_sat
        assert saw_sat and saw_unsat, "sweep should exercise both verdicts"

    @pytest.mark.parametrize("lie", ["model", "verdict"])
    def test_crosscheck_catches_lies_about_bulk_clauses(self, monkeypatch, lie):
        from repro.sat.native import CrossCheckError

        class LyingCore:
            """Delegates to the real core but misreports the search."""

            def __init__(self, core):
                self._core = core

            def __getattr__(self, name):
                return getattr(self._core, name)

            def get_model(self):  # every variable false
                return bytes(self._core.num_vars + 1)

            def search(self, *args):
                return 1 if lie == "model" else -1

        monkeypatch.setenv(CROSSCHECK_ENV, "1")
        session = SatSession(backend="native")
        session.add_clause_buffer(pack([[1, 2], [1], [-2, 3]]))
        session.solver._core = LyingCore(session.solver._core)
        with pytest.raises(CrossCheckError):
            session.solve()

    def test_crosscheck_covers_assumption_cores(self, monkeypatch):
        monkeypatch.setenv(CROSSCHECK_ENV, "1")
        session = SatSession(backend="native")
        session.add_hard([-1, -2])
        result = session.solve(assumptions=[1, 2])
        assert not result.is_sat
        assert set(map(abs, result.core)) <= {1, 2}


def usable_backends() -> list[str]:
    return ["python", "native"] if native_available() else ["python"]


#: Malformed clause buffers, each after a valid prefix that would grow the
#: variable count and flip ``ok`` if it were ingested before validation.
VALID_PREFIX = [3, 7, 8, 9, 1, 1]
MALFORMED_BUFFERS = {
    "zero-length": array("i", VALID_PREFIX + [0]),
    "negative-length": array("i", VALID_PREFIX + [-2, 1, 2]),
    "zero-literal": array("i", VALID_PREFIX + [2, 1, 0]),
    "truncated-prefix": array("i", VALID_PREFIX + [3, 1, 2]),
    "short-items": array("h", VALID_PREFIX),
    "wide-items": array("q", VALID_PREFIX),
    "float-items": array("f", VALID_PREFIX),
    "raw-bytes": array("i", VALID_PREFIX).tobytes(),
    "plain-list": list(VALID_PREFIX),
    "literal-too-large": array("i", VALID_PREFIX + [1, 2 ** 30]),
    "literal-too-small": array("i", VALID_PREFIX + [1, -(2 ** 31)]),
}
EXPECTED_ERROR = {
    "zero-length": ValueError, "negative-length": ValueError,
    "zero-literal": ValueError, "truncated-prefix": ValueError,
    "short-items": TypeError, "wide-items": TypeError,
    "float-items": TypeError, "raw-bytes": TypeError, "plain-list": TypeError,
    "literal-too-large": OverflowError, "literal-too-small": OverflowError,
}


def loaded_solver(backend: str):
    solver = create_solver(backend)
    solver.add_clause_buffer(array("i", [2, 1, 2, 1, -1]))
    return solver


def solver_state(solver) -> tuple:
    return solver.num_clauses(), solver.num_vars, solver.ok


class TestClauseBufferValidation:
    """Both cores validate a whole clause buffer before ingesting any of it."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_BUFFERS))
    @pytest.mark.parametrize("backend", usable_backends())
    def test_malformed_buffer_is_rejected_atomically(self, backend, case):
        solver = loaded_solver(backend)
        before = solver_state(solver)
        with pytest.raises(EXPECTED_ERROR[case]):
            solver.add_clause_buffer(MALFORMED_BUFFERS[case])
        assert solver_state(solver) == before
        assert solver.solve().is_sat

    @needs_native
    @pytest.mark.parametrize("case", sorted(MALFORMED_BUFFERS))
    def test_both_cores_reject_identically(self, case):
        errors = {}
        for backend in ("python", "native"):
            with pytest.raises(Exception) as caught:
                loaded_solver(backend).add_clause_buffer(MALFORMED_BUFFERS[case])
            errors[backend] = (caught.type, str(caught.value))
        assert errors["python"] == errors["native"]

    @pytest.mark.parametrize("python_scan", [False, True])
    @pytest.mark.parametrize("case", ["zero-length", "zero-literal",
                                      "truncated-prefix", "short-items",
                                      "literal-too-large"])
    def test_builder_and_session_reject_atomically(self, monkeypatch, case,
                                                   python_scan):
        if python_scan:
            monkeypatch.setenv(DISABLE_NATIVE_ENV, "1")
        session = SatSession()
        builder = WcnfBuilder()
        builder.attach_sink(session)
        builder.add_clause_buffer(array("i", [2, 1, 2, 1, -1]))
        before = (builder.num_hard, builder.hard_words, builder.num_vars,
                  session.stats.clauses_streamed, solver_state(session.solver))
        with pytest.raises(EXPECTED_ERROR[case]):
            builder.add_clause_buffer(MALFORMED_BUFFERS[case])
        with pytest.raises(EXPECTED_ERROR[case]):
            session.add_clause_buffer(MALFORMED_BUFFERS[case])
        assert (builder.num_hard, builder.hard_words, builder.num_vars,
                session.stats.clauses_streamed,
                solver_state(session.solver)) == before

    @pytest.mark.parametrize("backend", usable_backends())
    def test_buffer_ingest_matches_clause_at_a_time(self, backend):
        rng = random.Random(2207)
        for _ in range(20):
            clauses = random_cnf(rng, rng.randint(4, 14), rng.randint(6, 50))
            bulk = create_solver(backend)
            bulk.add_clause_buffer(pack(clauses))
            single = create_solver(backend)
            for clause in clauses:
                single.add_clause(clause)
            assert solver_state(bulk) == solver_state(single)
            assert bulk.solve().status is single.solve().status


class TestSliceContextPickling:
    """Pickled slice contexts (pipelined slicing) replay one clause buffer."""

    @pytest.mark.parametrize("backend", usable_backends())
    def test_round_trip_keeps_formula_and_verdicts(self, backend):
        from repro.circuits.random_circuits import random_circuit
        from repro.core.satmap import SatMapRouter, _instance_key
        from repro.hardware.topologies import line_architecture

        circuit = random_circuit(4, 6, seed=3)
        arch = line_architecture(5)
        router = SatMapRouter(slice_size=None, solver_backend=backend)
        pinned = {qubit: qubit for qubit in range(circuit.num_qubits)}
        context = router._build_context(
            circuit, arch, _instance_key(circuit, arch), pinned, False, 1, None)
        clone = pickle.loads(pickle.dumps(context))

        assert clone.session.backend == backend
        assert (clone.session.solver.num_clauses()
                == context.session.solver.num_clauses() > 0)
        assert clone.encoding.num_hard_clauses == context.encoding.num_hard_clauses
        clashing = (context.encoding.initial_mapping_assumptions({0: 2})
                    + context.encoding.initial_mapping_assumptions({1: 2}))
        for assumptions, expect_sat in ((None, True), (clashing, False)):
            for ctx in (context, clone):
                assert ctx.session.solve(assumptions=assumptions).is_sat is expect_sat
        costs = [router.solve_monolithic(circuit, arch, 60,
                                         fixed_initial_mapping=pinned,
                                         leading_slots=1,
                                         context=ctx).result.swap_count
                 for ctx in (context, clone)]
        assert costs[0] == costs[1]
