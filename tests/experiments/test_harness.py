"""Experiment harnesses on a tiny configuration (fast smoke coverage)."""

import time

import pytest

from repro.core.strategies import STRATEGY_NAMES
from repro.experiments import (
    ExperimentConfig,
    ExperimentRunner,
    run_fig5,
    run_fig7,
    run_table1,
    run_table2,
)

TINY = ExperimentConfig(
    benchmarks=("alu4", "dec"),
    iterations=4,
    random_width=8,
    vectors_per_iteration=2,
)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(TINY)


class TestRunner:
    def test_instance_cached(self, runner):
        a = runner.instance("alu4")
        b = runner.instance("alu4")
        assert a is b

    def test_run_records_everything(self, runner):
        run = runner.run("alu4", "RevS", with_sat=True)
        assert run.benchmark == "alu4"
        assert run.cost_initial >= run.cost_final
        assert len(run.cost_history) == 1 + TINY.iterations
        assert run.sat_calls >= 0
        assert run.luts > 0

    def test_sim_only_run(self, runner):
        run = runner.run("dec", "AI+DC+MFFC", with_sat=False)
        assert run.sat_calls == 0

    def test_none_strategy_random_rounds_only(self, runner):
        run = runner.run("dec", "none", with_sat=False)
        assert len(run.cost_history) == 1


class TestTable1:
    def test_structure_and_baseline_normalization(self, runner):
        result = run_table1(TINY, runner)
        assert set(result.avg_cost) == set(STRATEGY_NAMES)
        assert result.avg_cost["RevS"] == pytest.approx(1.0)
        assert result.avg_runtime["RevS"] == pytest.approx(1.0)
        text = result.render()
        assert "Table 1" in text
        assert "AI+DC+MFFC" in text
        assert "paper" in text.lower()


class SlowGenerator:
    """Delegates to a real generator, sleeping a fixed time per call."""

    DELAY = 0.02

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def generate(self, targets):
        time.sleep(self.DELAY)
        return self._inner.generate(targets)


class TestRuntimeColumns:
    """The runtime columns time the guided simulation stage: generation
    plus simulation, as the paper's Table 1 and Figs. 5-6 do."""

    def test_generation_time_counts(self, monkeypatch):
        from repro.experiments import runner as runner_module

        real = runner_module.make_generator

        def slow_make_generator(strategy, network, **kwargs):
            generator = real(strategy, network, **kwargs)
            if strategy == "AI+DC+MFFC":
                return SlowGenerator(generator)
            return generator

        monkeypatch.setattr(
            runner_module, "make_generator", slow_make_generator
        )
        config = ExperimentConfig(
            benchmarks=("dec",), iterations=4, random_width=8,
            vectors_per_iteration=2,
        )
        result = run_table1(config, ExperimentRunner(config))
        slept = config.iterations * SlowGenerator.DELAY
        slow = result.runs[("dec", "AI+DC+MFFC")]
        revs = result.runs[("dec", "RevS")]
        assert slow.sim_time >= slept
        # One benchmark, one seed: the aggregate row times the RevS
        # runtime is the slowed strategy's runtime in seconds.
        assert result.aggregate_runtime["AI+DC+MFFC"] * revs.sim_time >= slept


class TestTable2:
    def test_rows_and_render(self, runner):
        result = run_table2(TINY, runner)
        assert [r.benchmark for r in result.rows] == list(TINY.benchmarks)
        text = result.render()
        assert "SAT calls" in text
        assert "Aggregate SGen/RevS" in text

    def test_scaled_variant(self, runner):
        result = run_table2(
            TINY, runner, scaled=True, scaled_benchmarks=[("alu4", 2)]
        )
        assert result.rows[0].copies == 2
        assert "(2)" in result.render()


class TestFig5:
    def test_points_and_pareto(self, runner):
        result = run_fig5(TINY, runner)
        assert len(result.points) == len(TINY.benchmarks)
        for point in result.points:
            assert point.pareto_class() in (
                "dominates",
                "trade-off",
                "dominated",
            )
        text = result.render()
        assert "Figure 5" in text
        assert "Pareto" in text


class TestFig7:
    def test_traces(self, runner):
        result = run_fig7(
            TINY, runner, benchmarks=("alu4",), iterations=6, patience=2
        )
        traces = result.traces["alu4"]
        labels = [t.label for t in traces]
        assert labels == ["RandS", "RandS->RevS", "RandS->SimGen"]
        for trace in traces:
            assert len(trace.costs) == 1 + 6
            assert len(trace.cumulative_time) == 6
            # cumulative time must be nondecreasing
            assert all(
                a <= b
                for a, b in zip(trace.cumulative_time, trace.cumulative_time[1:])
            )
        assert "Figure 7" in result.render()


class TestCli:
    def test_main_table1_quick_subset(self, capsys):
        from repro.experiments.__main__ import main

        code = main(["table1", "--benchmarks", "alu4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "completed" in out
