"""Tests for the work-stealing shard queue behind the parallel executor."""

import os
import signal
import time

import pytest

from repro.engine.queue import (
    SHARDS_PER_WORKER,
    JobFailedError,
    ShardDispatcher,
    plan_shards,
)


class FakeJob:
    """Picklable stand-in returning its value; cost is configurable.

    ``run`` takes the worker process's warmed-LLC holder, as
    :meth:`~repro.engine.jobs.SimulationJob.run` does, and ignores it.
    """

    def __init__(self, value, cost=1.0):
        self.value = value
        self.cost = cost

    def estimated_cost(self):
        return self.cost

    def run(self, warm_states=None):
        return self.value


class SleepyJob(FakeJob):
    """Runs for a fixed wall-clock time before returning."""

    def __init__(self, value, duration_s):
        super().__init__(value)
        self.duration_s = duration_s

    def run(self, warm_states=None):
        time.sleep(self.duration_s)
        return self.value


class HangingJob(FakeJob):
    """Never finishes inside any reasonable test budget."""

    def run(self, warm_states=None):
        time.sleep(600)
        return self.value


class CrashOnceJob(FakeJob):
    """Raises on the first attempt, succeeds once a marker file exists."""

    def __init__(self, value, marker_path):
        super().__init__(value)
        self.marker_path = str(marker_path)

    def run(self, warm_states=None):
        if not os.path.exists(self.marker_path):
            with open(self.marker_path, "w") as handle:
                handle.write("attempted")
            raise RuntimeError("transient fault")
        return self.value


class AlwaysFailsJob(FakeJob):
    def run(self, warm_states=None):
        raise RuntimeError("permanent fault")


class Stats:
    """Duck-typed ExecutorStats double the dispatcher increments."""

    def __init__(self):
        self.shards = 0
        self.steals = 0
        self.retries = 0
        self.timeouts = 0
        self.worker_failures = 0


def run_dispatcher(jobs, workers=2, collected=None, **kwargs):
    stats = Stats()

    def on_result(slot, result, elapsed_s, attempts):
        if collected is not None:
            collected.append((slot, result, attempts))

    dispatcher = ShardDispatcher(
        workers=workers, stats=stats, on_result=on_result, **kwargs
    )
    results = dispatcher.run(jobs)
    return results, stats


class TestPlanShards:
    def test_empty_batch_plans_nothing(self):
        assert plan_shards([], workers=4) == []

    def test_every_slot_covered_exactly_once(self):
        jobs = [FakeJob(i, cost=1.0 + i) for i in range(17)]
        shards = plan_shards(jobs, workers=3)
        slots = [slot for shard in shards for slot in shard.slots]
        assert sorted(slots) == list(range(17))
        for shard in shards:
            assert shard.jobs == tuple(jobs[slot] for slot in shard.slots)

    def test_shard_count_bounded(self):
        jobs = [FakeJob(i) for i in range(100)]
        assert len(plan_shards(jobs, workers=4)) == 4 * SHARDS_PER_WORKER
        # Never more shards than jobs.
        assert len(plan_shards(jobs[:3], workers=4)) == 3

    def test_plan_is_deterministic(self):
        jobs = [FakeJob(i, cost=(i * 7) % 13 + 1) for i in range(29)]
        first = plan_shards(jobs, workers=4)
        second = plan_shards(jobs, workers=4)
        assert [shard.slots for shard in first] == [shard.slots for shard in second]

    def test_costs_are_balanced(self):
        # 1 heavy job + many light ones: LPT must isolate the heavy job
        # rather than serializing light work behind it.
        jobs = [FakeJob(0, cost=100.0)] + [FakeJob(i, cost=1.0) for i in range(1, 25)]
        shards = plan_shards(jobs, workers=2, shards_per_worker=2)
        heavy = next(shard for shard in shards if 0 in shard.slots)
        assert len(heavy) == 1
        # Heaviest shards dispatch first.
        assert [shard.cost for shard in shards] == sorted(
            (shard.cost for shard in shards), reverse=True
        )

    def test_preferred_workers_round_robin(self):
        jobs = [FakeJob(i) for i in range(16)]
        shards = plan_shards(jobs, workers=4)
        assert [shard.preferred_worker for shard in shards] == [
            shard.shard_id % 4 for shard in shards
        ]

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            plan_shards([FakeJob(0)], workers=0)


class TestDispatcher:
    def test_results_aligned_with_batch(self):
        jobs = [FakeJob(f"v{i}") for i in range(10)]
        collected = []
        results, stats = run_dispatcher(jobs, workers=2, collected=collected)
        assert results == [f"v{i}" for i in range(10)]
        assert stats.shards == len(plan_shards(jobs, workers=2))
        assert {slot for slot, _, _ in collected} == set(range(10))
        assert all(attempts == 1 for _, _, attempts in collected)

    def test_single_worker_runs_whole_batch(self):
        jobs = [FakeJob(i) for i in range(5)]
        results, stats = run_dispatcher(jobs, workers=1)
        assert results == list(range(5))
        assert stats.worker_failures == 0

    def test_validates_arguments(self):
        stats = Stats()
        with pytest.raises(ValueError):
            ShardDispatcher(workers=0, stats=stats, on_result=lambda *a: None)
        with pytest.raises(ValueError):
            ShardDispatcher(
                workers=1, stats=stats, on_result=lambda *a: None, max_retries=-1
            )
        with pytest.raises(ValueError):
            ShardDispatcher(
                workers=1, stats=stats, on_result=lambda *a: None, job_timeout=0
            )

    def test_transient_crash_is_retried(self, tmp_path):
        marker = tmp_path / "attempted.flag"
        jobs = [FakeJob("ok0"), CrashOnceJob("recovered", marker), FakeJob("ok2")]
        collected = []
        results, stats = run_dispatcher(
            jobs, workers=2, collected=collected, retry_backoff_s=0.01
        )
        assert results == ["ok0", "recovered", "ok2"]
        assert stats.retries == 1
        retried = next(entry for entry in collected if entry[0] == 1)
        assert retried[2] == 2  # delivered on the second attempt

    def test_permanent_failure_raises_after_drain(self):
        jobs = [FakeJob("ok0"), AlwaysFailsJob("never"), FakeJob("ok2")]
        collected = []
        with pytest.raises(JobFailedError) as excinfo:
            run_dispatcher(
                jobs,
                workers=2,
                collected=collected,
                max_retries=1,
                retry_backoff_s=0.01,
            )
        assert set(excinfo.value.failures) == {1}
        assert "permanent fault" in excinfo.value.failures[1]
        # The healthy jobs still completed and were delivered.
        assert {slot for slot, _, _ in collected} == {0, 2}

    def test_hanging_job_times_out(self):
        jobs = [FakeJob("ok0"), HangingJob("never"), FakeJob("ok2")]
        collected = []
        with pytest.raises(JobFailedError) as excinfo:
            run_dispatcher(
                jobs,
                workers=2,
                collected=collected,
                job_timeout=0.4,
                max_retries=1,
                retry_backoff_s=0.01,
            )
        assert set(excinfo.value.failures) == {1}
        assert "timed out" in excinfo.value.failures[1]
        assert {slot for slot, _, _ in collected} == {0, 2}

    def test_timeout_stats_counted(self):
        stats = Stats()
        dispatcher = ShardDispatcher(
            workers=1,
            stats=stats,
            on_result=lambda *a: None,
            job_timeout=0.3,
            max_retries=1,
            retry_backoff_s=0.01,
        )
        with pytest.raises(JobFailedError):
            dispatcher.run([HangingJob("never")])
        # One timeout per attempt: the original and the single retry.
        assert stats.timeouts == 2
        assert stats.retries == 1
        assert stats.worker_failures == 0  # timeouts are counted separately

    def test_killed_worker_recovers(self):
        jobs = [SleepyJob(i, duration_s=0.2) for i in range(8)]
        stats = Stats()
        state = {"dispatcher": None, "killed": False}

        def on_result(slot, result, elapsed_s, attempts):
            if not state["killed"]:
                pids = state["dispatcher"].worker_pids()
                if pids:
                    state["killed"] = True
                    os.kill(pids[0], signal.SIGKILL)

        dispatcher = ShardDispatcher(
            workers=2, stats=stats, on_result=on_result, retry_backoff_s=0.01
        )
        state["dispatcher"] = dispatcher
        results = dispatcher.run(jobs)
        assert results == list(range(8))
        assert state["killed"]
        assert stats.worker_failures >= 1

    def test_worker_pids_empty_outside_run(self):
        dispatcher = ShardDispatcher(
            workers=2, stats=Stats(), on_result=lambda *a: None
        )
        assert dispatcher.worker_pids() == []
