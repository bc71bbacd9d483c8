"""Differential tests of the arena-backed CDCL core vs the reference solver.

The compiled backend's contract is *bit-identity*, not just agreement:
identical verdicts, identical (verified) models, identical conflict /
propagation / decision trajectories, and identical budget-expiry points.
Everything here asserts that contract between the reference
:class:`CdclSolver` and (when a C compiler was available at import) the
ctypes :class:`CArenaCdclSolver`.  Without the C core the "compiled"
backend *is* the reference solver, and the C-only tests skip.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SatError
from repro.runtime.budget import Budget
from repro.sat.compiled import (
    SAT_CORE,
    CArenaCdclSolver,
    CompiledCdclSolver,
    solver_class,
)
from repro.sat.solver import CdclSolver, SatResult
from repro.sat.tseitin import pair_miter
from tests.conftest import random_network

#: Counters both backends must agree on, call for call.
TRAJECTORY_KEYS = (
    "decisions",
    "conflicts",
    "propagations",
    "restarts",
    "learnts_deleted",
    "reductions",
)

needs_c_core = pytest.mark.skipif(
    SAT_CORE != "c", reason="no C compiler available at import time"
)


def all_solver_factories():
    """Every available implementation, reference first."""
    factories = [CdclSolver]
    if SAT_CORE == "c":
        factories.append(CArenaCdclSolver)
    return factories


def trajectory(solver) -> tuple:
    stats = solver.stats
    return tuple(stats.get(key, 0) for key in TRAJECTORY_KEYS)


def random_clauses(rng: random.Random, num_vars: int, num_clauses: int):
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, min(3, num_vars))
        variables = rng.sample(range(1, num_vars + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses


class TestBackendSelection:
    def test_solver_class_names(self):
        assert solver_class("reference") is CdclSolver
        assert solver_class("compiled") is CompiledCdclSolver

    def test_solver_class_rejects_unknown(self):
        with pytest.raises(SatError, match="unknown backend"):
            solver_class("minisat")


class TestStatsSnapshot:
    """``stats`` is a snapshot on both solvers, so ``before = solver.stats``
    followed by a solve gives the same deltas on either."""

    @needs_c_core
    @pytest.mark.parametrize("seed", range(4))
    def test_solve_deltas_match(self, seed):
        rng = random.Random(seed)
        # Random 3-SAT at clause ratio 4.25: some instances SAT, some UNSAT.
        clauses = [
            [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 61), 3)]
            for _ in range(255)
        ]
        runs = []
        for factory in (CdclSolver, CArenaCdclSolver):
            solver = factory()
            for clause in clauses:
                solver.add_clause(clause)
            deltas = []
            for assumptions in ((), (1, -2, 3)):
                before = solver.stats
                result = solver.solve(assumptions)
                after = solver.stats
                deltas.append(
                    (result, [after[k] - before[k] for k in TRAJECTORY_KEYS])
                )
            runs.append(deltas)
        assert runs[0] == runs[1]
        assert runs[0][0][1][TRAJECTORY_KEYS.index("propagations")] > 0

    def test_reference_stats_is_a_copy(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        stats = solver.stats
        stats["conflicts"] = 99
        solver.solve()
        assert solver.stats["conflicts"] == 0
        assert stats["solve_calls"] == 0


class TestDifferentialFuzz:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_cnf_identity(self, data):
        """Interleaved add/solve sessions land on identical trajectories."""
        seed = data.draw(st.integers(0, 2**16))
        rng = random.Random(seed)
        num_vars = rng.randint(2, 14)
        script = []
        for _ in range(rng.randint(1, 3)):
            script.append(("add", random_clauses(rng, num_vars, rng.randint(1, 18))))
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, num_vars + 1), rng.randint(0, 2))
            ]
            limit = rng.choice([None, None, 5, 50])
            script.append(("solve", assumptions, limit))
        outcomes = []
        for factory in all_solver_factories():
            solver = factory()
            log = []
            for step in script:
                if step[0] == "add":
                    for clause in step[1]:
                        solver.add_clause(clause)
                else:
                    result = solver.solve(
                        assumptions=step[1], conflict_limit=step[2]
                    )
                    model = (
                        dict(solver.model())
                        if result is SatResult.SAT
                        else None
                    )
                    log.append((result, model, trajectory(solver)))
            outcomes.append((factory.__name__, log))
        reference = outcomes[0][1]
        for name, log in outcomes[1:]:
            assert log == reference, f"{name} diverged from CdclSolver"

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**16))
    def test_miter_identity(self, seed):
        """Pair-miter instances: same verdict, same verified model."""
        network = random_network(seed=seed % 97, num_inputs=4, num_gates=10)
        rng = random.Random(seed)
        gates = [
            node.uid
            for node in network.nodes()
            if not node.is_pi and not node.is_const
        ]
        if len(gates) < 2:
            return
        node_a, node_b = rng.sample(gates, 2)
        cnf, _ = pair_miter(network, node_a, node_b)
        logs = []
        for factory in all_solver_factories():
            solver = factory()
            solver.add_cnf(cnf)
            result = solver.solve()
            model = None
            if result is SatResult.SAT:
                model = dict(solver.model())
                assert cnf.evaluate(model)
            logs.append((result, model, trajectory(solver)))
        assert all(log == logs[0] for log in logs[1:])

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**16))
    def test_budget_expiry_identity(self, seed):
        """A fake clock expires both backends at the same propagation."""
        rng = random.Random(seed)
        num_vars = rng.randint(8, 20)
        clauses = random_clauses(rng, num_vars, int(num_vars * 4.2))
        step = rng.choice([1e-6, 1e-5, 1e-4])
        seconds = rng.choice([0.0005, 0.005, 0.05])
        conflicts_cap = rng.choice([None, 20, 200])
        logs = []
        for factory in all_solver_factories():
            ticks = itertools.count()

            def clock(counter=ticks):
                return next(counter) * step

            budget = Budget(
                seconds=seconds, conflicts=conflicts_cap, clock=clock
            )
            solver = factory()
            for clause in clauses:
                solver.add_clause(clause)
            result = solver.solve(budget=budget)
            logs.append(
                (result, budget.conflicts_used, trajectory(solver))
            )
        assert all(log == logs[0] for log in logs[1:])


def php_clauses(pigeons: int, holes: int):
    """PHP(p, h) as plain clause lists (UNSAT iff p > h)."""
    clauses = []

    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    for p in range(pigeons):
        clauses.append([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1, p2 in itertools.combinations(range(pigeons), 2):
            clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


class SmallCapReference(CdclSolver):
    LEARNT_CAP_INIT = 40


class SmallCapC(CArenaCdclSolver):
    LEARNT_CAP_INIT = 40


class TestArenaGc:
    @needs_c_core
    def test_gc_identity_small_cap(self):
        """Learnt reduction + arena GC stay on the reference trajectory.

        The learnt cap is dropped to 40 so php(7,6) triggers several
        reduce/GC cycles; the C core must honour the subclass's cap,
        delete the same clauses, compact the same watchers, and keep the
        verdict trajectory.
        """
        clauses = php_clauses(7, 6)
        logs = []
        for factory in (SmallCapReference, SmallCapC):
            solver = factory()
            for clause in clauses:
                solver.add_clause(clause)
            result = solver.solve()
            logs.append(
                (
                    result,
                    trajectory(solver),
                    solver.stats["watchers_compacted"],
                )
            )
        assert logs[0][1][5] >= 1, "instance must exercise reduce_db"
        assert logs[1] == logs[0]

    @needs_c_core
    def test_watcher_compaction_preserves_result(self):
        """Post-GC solving still finds correct verdicts and models."""
        script = [php_clauses(7, 6), [], []]  # 3 solves, clauses up front
        logs = []
        for factory in (SmallCapReference, SmallCapC):
            solver = factory()
            for clause in script[0]:
                solver.add_clause(clause)
            log = [solver.solve()]
            assert solver.stats["reductions"] >= 1
            # Re-solve under assumptions after GC: watch lists must stay
            # consistent (a dangling cref would crash or mis-propagate).
            for v in (1, 8):
                log.append(solver.solve(assumptions=[v]))
            log.append(trajectory(solver))
            logs.append(log)
        assert logs[1] == logs[0]
        assert logs[0][0] is SatResult.UNSAT

    @needs_c_core
    def test_c_core_gc_on_pigeonhole(self):
        """php(9,8) drives the C core through real reduce/GC cycles."""
        solver = CArenaCdclSolver()
        for clause in php_clauses(9, 8):
            solver.add_clause(clause)
        assert solver.solve() is SatResult.UNSAT
        stats = solver.stats
        assert stats["reductions"] >= 1
        assert stats["arena_gcs"] == stats["reductions"]
        assert stats["arena_words_reclaimed"] > 0
        assert stats["learnts_deleted"] > 0
        assert stats["watchers_compacted"] > 0


class TestCompiledSemantics:
    @pytest.mark.parametrize("factory", all_solver_factories())
    def test_add_clause_rejects_zero(self, factory):
        solver = factory()
        with pytest.raises(SatError):
            solver.add_clause([1, 0, 2])

    @pytest.mark.parametrize("factory", all_solver_factories())
    def test_empty_clause_unsat(self, factory):
        solver = factory()
        solver.add_clause([1])
        solver.add_clause([])
        assert solver.solve() is SatResult.UNSAT

    @pytest.mark.parametrize("factory", all_solver_factories())
    def test_tautology_and_duplicates(self, factory):
        solver = factory()
        solver.add_clause([1, -1])  # tautology: dropped
        solver.add_clause([2, 2, 3])  # duplicate literal: deduplicated
        assert solver.solve() is SatResult.SAT
        model = solver.model()
        assert model[2] or model[3]

    @pytest.mark.parametrize("factory", all_solver_factories())
    def test_model_verifies(self, factory):
        rng = random.Random(123)
        clauses = random_clauses(rng, 12, 30)
        solver = factory()
        for clause in clauses:
            solver.add_clause(clause)
        if solver.solve() is SatResult.SAT:
            model = solver.model()
            for clause in clauses:
                assert any(
                    model.get(abs(lit), lit < 0) == (lit > 0)
                    for lit in clause
                ), f"clause {clause} unsatisfied by model"

    @pytest.mark.parametrize("factory", all_solver_factories())
    def test_incremental_selector_pattern(self, factory):
        """The checker's selector-guarded miter protocol works verbatim."""
        solver = factory()
        solver.add_clause([1, 2])
        selector = 3
        solver.add_clause([-selector, -1])
        solver.add_clause([-selector, -2])
        assert solver.solve(assumptions=[selector]) is SatResult.UNSAT
        solver.add_clause([-selector])  # retire
        assert solver.solve() is SatResult.SAT

    @needs_c_core
    def test_c_stats_exports_arena_counters(self):
        solver = CArenaCdclSolver()
        solver.add_clause([1, 2])
        solver.solve()
        stats = solver.stats
        for key in (
            "arena_bytes",
            "arena_gcs",
            "arena_words_reclaimed",
            "watchers_compacted",
            "solve_calls",
            "solve_seconds",
        ):
            assert key in stats
        assert stats["arena_bytes"] > 0
        assert stats["solve_calls"] == 1
