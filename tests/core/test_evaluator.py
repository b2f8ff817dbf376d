"""Tests for evaluation: caching, distinct-design accounting, datasets."""

import pytest

from repro.core import (
    CallableEvaluator,
    DatasetEvaluator,
    DesignSpace,
    EvaluationStack,
    InfeasibleDesignError,
    IntParam,
)
from repro.core.errors import DatasetError
from repro.dataset import Dataset


@pytest.fixture
def space():
    return DesignSpace("ev", [IntParam("a", 0, 9)])


class TestCountingEvaluator:
    """The paper's cost model on EvaluationStack: one job per distinct design."""

    def test_distinct_vs_requests(self, space):
        calls = []
        inner = CallableEvaluator(lambda g: calls.append(1) or {"m": g["a"]})
        counter = EvaluationStack(inner)
        g1, g2 = space.genome(a=1), space.genome(a=2)
        counter.evaluate(g1)
        counter.evaluate(g1)
        counter.evaluate(g2)
        counter.evaluate(space.genome(a=1))  # equal genome, new object
        assert counter.distinct_evaluations == 2
        assert counter.total_requests == 4
        assert counter.cache_hits == 2
        assert len(calls) == 2  # inner ran exactly once per distinct design

    def test_infeasible_cached(self, space):
        calls = []

        def fn(genome):
            calls.append(1)
            raise InfeasibleDesignError("nope")

        counter = EvaluationStack(CallableEvaluator(fn))
        g = space.genome(a=3)
        with pytest.raises(InfeasibleDesignError):
            counter.evaluate(g)
        with pytest.raises(InfeasibleDesignError):
            counter.evaluate(g)
        # The failed synthesis job was paid for once and only once.
        assert counter.distinct_evaluations == 1
        assert len(calls) == 1

    def test_seen(self, space):
        counter = EvaluationStack(CallableEvaluator(lambda g: {"m": 1.0}))
        g = space.genome(a=0)
        assert not counter.seen(g)
        counter.evaluate(g)
        assert counter.seen(g)

    def test_cached_failure_reraises_fresh_copy(self, space):
        """Revisiting an infeasible design must not grow the original
        exception's traceback chain — each raise is a fresh copy chained to
        the cached original via ``__cause__``."""
        counter = EvaluationStack(
            CallableEvaluator(lambda g: (_ for _ in ()).throw(
                InfeasibleDesignError("nope")
            ))
        )
        g = space.genome(a=3)
        with pytest.raises(InfeasibleDesignError) as first:
            counter.evaluate(g)
        original_tb = first.value.__cause__.__traceback__
        with pytest.raises(InfeasibleDesignError) as second:
            counter.evaluate(g)
        assert second.value is not first.value
        assert second.value.__cause__ is first.value.__cause__
        # The cached original's traceback is untouched by the re-raise.
        assert first.value.__cause__.__traceback__ is original_tb


class TestCountingEvaluatorBatches:
    """The same accounting for batched requests."""

    def test_duplicates_within_one_batch_pay_once(self, space):
        calls = []
        counter = EvaluationStack(
            CallableEvaluator(lambda g: calls.append(g["a"]) or {"m": g["a"]})
        )
        g = space.genome(a=1)
        results = counter.evaluate_many([g, space.genome(a=1), g, space.genome(a=2)])
        assert results == [{"m": 1}, {"m": 1}, {"m": 1}, {"m": 2}]
        assert counter.distinct_evaluations == 2
        assert counter.total_requests == 4
        assert counter.cache_hits == 2
        assert calls == [1, 2]  # each duplicate coalesced before the backend

    def test_batch_containing_previously_failed_design(self, space):
        def fn(genome):
            if genome["a"] == 5:
                raise InfeasibleDesignError("bad point")
            return {"m": genome["a"]}

        counter = EvaluationStack(CallableEvaluator(fn))
        with pytest.raises(InfeasibleDesignError):
            counter.evaluate(space.genome(a=5))
        results = counter.evaluate_many(
            [space.genome(a=4), space.genome(a=5), space.genome(a=6)]
        )
        assert results[0] == {"m": 4}
        assert isinstance(results[1], InfeasibleDesignError)
        assert results[2] == {"m": 6}
        # The failure was served from the cache, not re-paid.
        assert counter.distinct_evaluations == 3

    def test_serial_and_batch_accounting_parity(self, space):
        """The same request sequence must produce identical counters whether
        issued one-by-one or as batches."""
        requests = [1, 2, 1, 3, 3, 2, 4, 1]
        serial = EvaluationStack(CallableEvaluator(lambda g: {"m": g["a"]}))
        for a in requests:
            serial.evaluate(space.genome(a=a))
        batched = EvaluationStack(CallableEvaluator(lambda g: {"m": g["a"]}))
        batched.evaluate_many([space.genome(a=a) for a in requests[:4]])
        batched.evaluate_many([space.genome(a=a) for a in requests[4:]])
        assert batched.distinct_evaluations == serial.distinct_evaluations == 4
        assert batched.total_requests == serial.total_requests == 8
        assert batched.cache_hits == serial.cache_hits == 4


class TestDatasetEvaluator:
    def test_lookup(self, space):
        dataset = Dataset("d", space)
        dataset.record({"a": 1}, {"m": 10.0})
        evaluator = DatasetEvaluator(dataset)
        assert evaluator.evaluate(space.genome(a=1)) == {"m": 10.0}

    def test_miss_raises(self, space):
        dataset = Dataset("d", space)
        evaluator = DatasetEvaluator(dataset)
        with pytest.raises(DatasetError):
            evaluator.evaluate(space.genome(a=5))

    def test_infeasible_row(self, space):
        dataset = Dataset("d", space)
        dataset.record({"a": 2}, None)
        evaluator = DatasetEvaluator(dataset)
        with pytest.raises(InfeasibleDesignError):
            evaluator.evaluate(space.genome(a=2))

    def test_non_strict_miss_is_infeasible(self, space):
        """A lookup miss in non-strict mode is an uncharacterized —
        hence unscorable — design, not a dataset error."""
        dataset = Dataset("d", space)
        dataset.record({"a": 1}, {"m": 10.0})
        evaluator = DatasetEvaluator(dataset, strict=False)
        with pytest.raises(InfeasibleDesignError):
            evaluator.evaluate(space.genome(a=7))
        assert evaluator.evaluate(space.genome(a=1)) == {"m": 10.0}

    def test_fingerprint_tracks_content_and_mode(self, space):
        d1 = Dataset("d", space)
        d1.record({"a": 1}, {"m": 10.0})
        d2 = Dataset("d", space)
        d2.record({"a": 1}, {"m": 10.0})
        assert DatasetEvaluator(d1).fingerprint == DatasetEvaluator(d2).fingerprint
        assert (
            DatasetEvaluator(d1).fingerprint
            != DatasetEvaluator(d1, strict=False).fingerprint
        )
        d2.record({"a": 2}, {"m": 20.0})
        assert DatasetEvaluator(d1).fingerprint != DatasetEvaluator(d2).fingerprint
