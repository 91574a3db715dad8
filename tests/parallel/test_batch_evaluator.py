"""Tests for the batch-parallel evaluation subsystem."""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.parallel import BatchEvaluator
from repro.workloads.environment import VDMSTuningEnvironment
from repro.workloads.workload import SearchWorkload
from tests.conftest import make_tiny_dataset


@pytest.fixture(scope="module")
def dataset():
    return make_tiny_dataset()


@pytest.fixture(scope="module")
def workload(dataset):
    return SearchWorkload.from_dataset(dataset, concurrency=10)


def sample_batch(space, count=4, seed=5):
    rng = np.random.default_rng(seed)
    return space.sample_configurations(count, rng)


def results_signature(results):
    return [
        (round(r.qps, 6), round(r.recall, 6), round(r.memory_gib, 6), r.failed)
        for r in results
    ]


class TestBatchEvaluator:
    def test_serial_matches_direct_replay(self, dataset, workload):
        from repro.workloads.replay import WorkloadReplayer

        space = VDMSTuningEnvironment(dataset, workload=workload).space
        batch = sample_batch(space, count=3)
        with BatchEvaluator(dataset, workload=workload, num_workers=1) as evaluator:
            results = evaluator.evaluate_many([c.to_dict() for c in batch])
        replayer = WorkloadReplayer(dataset, workload)
        expected = [replayer.replay(c.to_dict()) for c in batch]
        assert results_signature(results) == results_signature(expected)

    def test_one_worker_vs_many_workers_identical(self, dataset, workload):
        space = VDMSTuningEnvironment(dataset, workload=workload).space
        batch = [c.to_dict() for c in sample_batch(space, count=5)]
        with BatchEvaluator(dataset, workload=workload, num_workers=1) as serial:
            serial_results = serial.evaluate_many(batch)
        with BatchEvaluator(dataset, workload=workload, num_workers=4) as pooled:
            pooled_results = pooled.evaluate_many(batch)
        assert results_signature(serial_results) == results_signature(pooled_results)

    def test_pool_matches_serial_on_encoded_configurations(self, dataset, workload):
        space = VDMSTuningEnvironment(dataset, workload=workload).space
        configurations = sample_batch(space, count=4)
        batch = [c.to_dict() for c in configurations]
        with BatchEvaluator(dataset, workload=workload, num_workers=1) as serial:
            serial_results = serial.evaluate_many(batch)
        # The pool is handed the configurations themselves, their encodings
        # filled in (as a recommender's candidates are): only values cross.
        space.encode_many(configurations)
        with BatchEvaluator(dataset, workload=workload, num_workers=2) as pooled:
            pooled_results = pooled.evaluate_many(configurations)
        assert results_signature(serial_results) == results_signature(pooled_results)

    def test_results_preserve_submission_order(self, dataset, workload):
        space = VDMSTuningEnvironment(dataset, workload=workload).space
        batch = [c.to_dict() for c in sample_batch(space, count=6, seed=9)]
        with BatchEvaluator(dataset, workload=workload, num_workers=3) as evaluator:
            results = evaluator.evaluate_many(batch)
        for values, result in zip(batch, results):
            assert result.configuration["index_type"] == values["index_type"]

    def test_worker_failure_is_isolated(self, dataset, workload):
        space = VDMSTuningEnvironment(dataset, workload=workload).space
        batch = [c.to_dict() for c in sample_batch(space, count=3)]
        batch[1] = dict(batch[1], index_type="NO_SUCH_INDEX")
        with BatchEvaluator(dataset, workload=workload, num_workers=3) as evaluator:
            results = evaluator.evaluate_many(batch)
        assert len(results) == 3
        assert results[1].failed
        assert not results[0].failed
        assert not results[2].failed

    def test_broken_pool_degrades_to_in_process_with_isolation(self, dataset, workload):
        class BrokenPool:
            def map(self, worker, tasks):
                raise BrokenProcessPool("a worker died")

            def shutdown(self, **kwargs):
                pass

        space = VDMSTuningEnvironment(dataset, workload=workload).space
        batch = [c.to_dict() for c in sample_batch(space, count=3)]
        batch[1] = dict(batch[1], index_type="NO_SUCH_INDEX")
        with BatchEvaluator(dataset, workload=workload, num_workers=1) as serial:
            expected = serial.evaluate_many(batch)
        with BatchEvaluator(dataset, workload=workload, num_workers=3) as evaluator:
            evaluator._pool = BrokenPool()
            results = evaluator.evaluate_many(batch)
            assert evaluator._pool is None  # rebuilt lazily by the next batch
        assert results_signature(results) == results_signature(expected)
        assert [r.failed for r in results] == [False, True, False]

    def test_empty_batch(self, dataset, workload):
        with BatchEvaluator(dataset, workload=workload, num_workers=2) as evaluator:
            assert evaluator.evaluate_many([]) == []

    def test_one_worker_replays_in_process(self, dataset, workload):
        space = VDMSTuningEnvironment(dataset, workload=workload).space
        batch = [c.to_dict() for c in sample_batch(space, count=2)]
        with BatchEvaluator(dataset, workload=workload, num_workers=1) as evaluator:
            results = evaluator.evaluate_many(batch)
            assert evaluator._pool is None
        assert len(results) == 2 and not any(r.failed for r in results)

    def test_no_backend_option(self, dataset, workload):
        # One executor per plane: the pool size is the only choice left.
        with pytest.raises(TypeError):
            BatchEvaluator(dataset, workload=workload, backend="thread")
        environment = VDMSTuningEnvironment(dataset, workload=workload)
        with pytest.raises(TypeError):
            BatchEvaluator.from_environment(environment, num_workers=2, backend="process")


class TestMakespanAccounting:
    """The batch replay clock charges the pool makespan: max, not sum.

    With at least as many workers as batch members every replay gets its own
    worker, so the simulated wall-clock of the batch must equal the slowest
    member — including batches containing failures.
    """

    def test_makespan_equals_max_member_cost(self, dataset, workload):
        environment = VDMSTuningEnvironment(dataset, workload=workload, seed=0)
        batch = sample_batch(environment.space, count=4)
        with BatchEvaluator(dataset, workload=workload, num_workers=len(batch)) as evaluator:
            results = environment.evaluate_batch(batch, evaluator=evaluator)
        costs = [result.replay_seconds for result in results]
        assert environment.elapsed_replay_seconds == pytest.approx(max(costs))
        assert environment.elapsed_replay_seconds < sum(costs)

    def test_one_worker_charges_the_sum(self, dataset, workload):
        environment = VDMSTuningEnvironment(dataset, workload=workload, seed=0)
        batch = sample_batch(environment.space, count=4)
        with BatchEvaluator(dataset, workload=workload, num_workers=1) as evaluator:
            results = environment.evaluate_batch(batch, evaluator=evaluator)
        # One worker replays one at a time: the batch costs the plain sum.
        costs = [result.replay_seconds for result in results]
        assert environment.elapsed_replay_seconds == pytest.approx(sum(costs))

    def test_makespan_with_failure_isolation(self, dataset, workload):
        environment = VDMSTuningEnvironment(dataset, workload=workload, seed=0)
        batch = [c.to_dict() for c in sample_batch(environment.space, count=4)]
        batch[2] = dict(batch[2], index_type="NO_SUCH_INDEX")
        with BatchEvaluator(dataset, workload=workload, num_workers=len(batch)) as evaluator:
            results = environment.evaluate_batch(batch, evaluator=evaluator)
        assert results[2].failed and results[2].replay_seconds == 0.0
        costs = [result.replay_seconds for result in results]
        # The failed slot costs nothing; the batch still takes the slowest
        # successful member, never the sum.
        assert environment.elapsed_replay_seconds == pytest.approx(max(costs))
        assert environment.elapsed_replay_seconds < sum(costs)

    def test_fewer_workers_lie_between_max_and_sum(self, dataset, workload):
        environment = VDMSTuningEnvironment(dataset, workload=workload, seed=0)
        batch = sample_batch(environment.space, count=5)
        with BatchEvaluator(dataset, workload=workload, num_workers=2) as evaluator:
            results = environment.evaluate_batch(batch, evaluator=evaluator)
        costs = [result.replay_seconds for result in results]
        assert environment.elapsed_replay_seconds >= max(costs)
        assert environment.elapsed_replay_seconds <= sum(costs)


class TestWorkloadSwitching:
    def test_update_workload_resets_pool_state(self, dataset, workload):
        evaluator = BatchEvaluator(dataset, workload=workload, num_workers=2)
        try:
            environment = VDMSTuningEnvironment(dataset, workload=workload)
            batch = [
                environment.default_configuration().to_dict(),
                dict(environment.default_configuration().to_dict(), nprobe=4),
            ]
            before = evaluator.evaluate_many(batch)
            import dataclasses

            trough = dataclasses.replace(workload, concurrency=1)
            evaluator.update_workload(dataset, trough)
            assert evaluator.workload.concurrency == 1
            after = evaluator.evaluate_many(batch)
            # Same configurations, collapsed concurrency: throughput moves.
            assert results_signature(before) != results_signature(after)
        finally:
            evaluator.close()

    def test_update_workload_with_same_objects_is_a_noop(self, dataset, workload):
        evaluator = BatchEvaluator(dataset, workload=workload, num_workers=2)
        try:
            pool_before = evaluator._pool
            evaluator.update_workload(dataset, workload)
            assert evaluator._pool is pool_before
        finally:
            evaluator.close()

    def test_sync_with_adopts_environment_state(self, dataset, workload):
        environment = VDMSTuningEnvironment(dataset, workload=workload, seed=0)
        evaluator = BatchEvaluator.from_environment(environment, num_workers=2)
        try:
            import dataclasses

            bursty = dataclasses.replace(workload, concurrency=1)
            environment.set_workload(bursty)
            evaluator.sync_with(environment)
            assert evaluator.workload is environment.workload
        finally:
            evaluator.close()


class TestEnvironmentBatchEvaluation:
    def test_evaluate_batch_matches_sequential_evaluate(self, dataset, workload):
        space_env = VDMSTuningEnvironment(dataset, workload=workload, seed=0)
        batch = sample_batch(space_env.space, count=4)

        sequential = VDMSTuningEnvironment(dataset, workload=workload, seed=0)
        seq_results = [sequential.evaluate(c) for c in batch]

        batched = VDMSTuningEnvironment(dataset, workload=workload, seed=0)
        batch_results = batched.evaluate_batch(batch)

        assert results_signature(seq_results) == results_signature(batch_results)
        assert batched.num_evaluations == 4
        # Serial accounting: without an evaluator the batch costs the plain sum.
        assert batched.elapsed_replay_seconds == pytest.approx(
            sequential.elapsed_replay_seconds
        )

    def test_evaluate_batch_with_pool_charges_makespan(self, dataset, workload):
        batch_env = VDMSTuningEnvironment(dataset, workload=workload, seed=0)
        batch = sample_batch(batch_env.space, count=4)
        serial_env = VDMSTuningEnvironment(dataset, workload=workload, seed=0)
        serial_env.evaluate_batch(batch)
        with BatchEvaluator(dataset, workload=workload, num_workers=4) as evaluator:
            results = batch_env.evaluate_batch(batch, evaluator=evaluator)
        # Concurrent replay: the batch costs at most the serial sum and at
        # least the slowest single replay.
        slowest = max(r.replay_seconds for r in results)
        assert batch_env.elapsed_replay_seconds <= serial_env.elapsed_replay_seconds
        assert batch_env.elapsed_replay_seconds >= slowest

    def test_evaluate_batch_noise_deterministic_across_worker_counts(
        self, dataset, workload
    ):
        env_a = VDMSTuningEnvironment(dataset, workload=workload, seed=11, noise=0.1)
        env_b = VDMSTuningEnvironment(dataset, workload=workload, seed=11, noise=0.1)
        batch = sample_batch(env_a.space, count=4)
        with BatchEvaluator(dataset, workload=workload, num_workers=4) as evaluator:
            results_pooled = env_a.evaluate_batch(batch, evaluator=evaluator)
        results_serial = env_b.evaluate_batch(batch)
        assert results_signature(results_pooled) == results_signature(results_serial)
