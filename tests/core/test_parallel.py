"""Tests for parallel/batched fitness evaluation through EvaluationStack."""

import threading
import time

import pytest

from repro.core import (
    CallableEvaluator,
    DesignSpace,
    EvaluationStack,
    GAConfig,
    GeneticSearch,
    InfeasibleDesignError,
    IntParam,
    NautilusError,
    maximize,
)


class ParityEvaluator:
    """Module-level (hence picklable) evaluator for process-pool tests:
    odd ``a`` values are infeasible, even ones score their value."""

    def evaluate(self, genome):
        if genome["a"] % 2:
            raise InfeasibleDesignError("odd values unbuildable")
        return {"m": float(genome["a"])}


@pytest.fixture
def space():
    return DesignSpace("par", [IntParam("a", 0, 63)])


@pytest.fixture
def evaluator():
    return CallableEvaluator(lambda g: {"m": float(g["a"])})


class TestEvaluateBatch:
    """One batch through an inline stack over a plain evaluator."""

    def test_sequential_fallback(self, space, evaluator):
        genomes = [space.genome(a=i) for i in range(5)]
        results = EvaluationStack(evaluator, backend="inline").evaluate_many(genomes)
        assert [r["m"] for r in results] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_exceptions_in_place(self, space):
        def fn(genome):
            if genome["a"] == 2:
                raise InfeasibleDesignError("hole")
            return {"m": 1.0}

        stack = EvaluationStack(CallableEvaluator(fn), backend="inline")
        results = stack.evaluate_many([space.genome(a=i) for i in range(4)])
        assert isinstance(results[2], InfeasibleDesignError)
        assert results[0] == {"m": 1.0}


class TestParallelEvaluator:
    """The stack's thread and process pool backends."""

    def test_order_preserved(self, space, evaluator):
        parallel = EvaluationStack(evaluator, backend="thread", workers=4)
        genomes = [space.genome(a=i) for i in range(20)]
        results = parallel.evaluate_many(genomes)
        assert [r["m"] for r in results] == [float(i) for i in range(20)]

    def test_actually_concurrent(self, space):
        active = 0
        peak = 0
        lock = threading.Lock()

        def slow(genome):
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            time.sleep(0.02)
            with lock:
                active -= 1
            return {"m": 1.0}

        parallel = EvaluationStack(CallableEvaluator(slow), backend="thread", workers=8)
        parallel.evaluate_many([space.genome(a=i) for i in range(16)])
        assert peak > 1  # overlapping evaluations observed

    def test_single_passthrough(self, space, evaluator):
        parallel = EvaluationStack(evaluator, backend="thread", workers=4)
        assert parallel.evaluate(space.genome(a=3)) == {"m": 3.0}

    def test_exception_isolation(self, space):
        def fn(genome):
            if genome["a"] % 2:
                raise InfeasibleDesignError("odd")
            return {"m": float(genome["a"])}

        parallel = EvaluationStack(CallableEvaluator(fn), backend="thread", workers=4)
        results = parallel.evaluate_many([space.genome(a=i) for i in range(6)])
        assert results[0] == {"m": 0.0}
        assert isinstance(results[1], InfeasibleDesignError)
        assert results[4] == {"m": 4.0}

    def test_empty_batch(self, space, evaluator):
        assert EvaluationStack(evaluator, backend="thread").evaluate_many([]) == []

    def test_process_pool_exception_isolation(self, space):
        """One infeasible design must not poison its batch — under a real
        process pool, where exceptions cross a pickling boundary."""
        parallel = EvaluationStack(ParityEvaluator(), backend="process", workers=2)
        results = parallel.evaluate_many([space.genome(a=i) for i in range(8)])
        for i, outcome in enumerate(results):
            if i % 2:
                assert isinstance(outcome, InfeasibleDesignError)
            else:
                assert outcome == {"m": float(i)}

    def test_process_pool_preserves_submission_order(self, space):
        parallel = EvaluationStack(ParityEvaluator(), backend="process", workers=4)
        genomes = [space.genome(a=2 * (i % 16)) for i in range(32)]
        results = parallel.evaluate_many(genomes)
        assert [r["m"] for r in results] == [float(2 * (i % 16)) for i in range(32)]

    def test_validation(self, evaluator):
        with pytest.raises(NautilusError):
            EvaluationStack(evaluator, backend="thread", workers=0)
        with pytest.raises(NautilusError):
            EvaluationStack(evaluator, backend="gpu")


class TestCountingBatch:
    """Distinct-design accounting across batches."""

    def test_distinct_accounting(self, space, evaluator):
        counter = EvaluationStack(evaluator)
        genomes = [space.genome(a=i % 3) for i in range(9)]  # 3 distinct
        counter.evaluate_many(genomes)
        assert counter.distinct_evaluations == 3
        assert counter.total_requests == 9
        # Second batch fully cached.
        counter.evaluate_many(genomes)
        assert counter.distinct_evaluations == 3

    def test_mixed_with_sequential(self, space, evaluator):
        counter = EvaluationStack(evaluator)
        counter.evaluate(space.genome(a=1))
        counter.evaluate_many([space.genome(a=1), space.genome(a=2)])
        assert counter.distinct_evaluations == 2


class TestEngineEquivalence:
    def test_parallel_engine_matches_serial(self, space, evaluator):
        """Batched evaluation must not change search results at all."""
        objective = maximize("m")
        config = GAConfig(seed=9, generations=12)
        serial = GeneticSearch(space, evaluator, objective, config).run()
        parallel = GeneticSearch(
            space,
            EvaluationStack(evaluator, backend="thread", workers=4),
            objective,
            config,
        ).run()
        assert serial.best_config == parallel.best_config
        assert serial.curve() == parallel.curve()
