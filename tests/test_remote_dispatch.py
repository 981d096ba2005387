"""End-to-end drills for remote shard dispatch and the calibrated cost model.

The loopback drills run real simulation jobs through a serve-only
coordinator and ``run_worker`` child processes — the same code path as
``repro worker`` — and hold the engine to its core guarantee: results
bit-identical to serial execution, through worker SIGKILL, the SIGKILL of
one simulation process inside a worker, and late joins.
"""

import multiprocessing
import os
import signal
import threading
from time import monotonic, sleep

import pytest

from repro.engine.executor import ParallelExecutor, SerialExecutor
from repro.engine.jobs import SimulationJob
from repro.engine.progress import SOURCE_SIMULATED
from repro.engine.queue import CostModel, estimate_cost
from repro.engine.remote import run_worker
from repro.engine.sqlite_store import SqliteStore

from tests.conftest import small_system, small_workload

CYCLES = 1200
WARMUP = 200

MECHANISMS = ("refab", "refpb", "darp", "dsarp")
SEEDS = (0, 1)


def job_batch(cycles=CYCLES, warmup=WARMUP) -> list[SimulationJob]:
    return [
        SimulationJob(
            config=small_system(mechanism),
            workload=small_workload(),
            cycles=cycles,
            warmup=warmup,
            seed=seed,
        )
        for seed in SEEDS
        for mechanism in MECHANISMS
    ]


def spawn_worker(port: int, workers: int = 1) -> multiprocessing.Process:
    """A ``repro worker`` equivalent as a child process (same runtime)."""
    # Not daemonic: the worker runtime forks simulation children of its
    # own, which daemonic processes are forbidden to do.
    process = multiprocessing.Process(
        target=run_worker,
        args=("127.0.0.1", port),
        kwargs={"workers": workers},
    )
    process.start()
    return process


def reap(*processes, timeout_s: float = 30.0) -> None:
    for process in processes:
        process.join(timeout=timeout_s)
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)


def child_pids(pid: int) -> list[int]:
    """PIDs whose parent is ``pid``, read from Linux ``/proc``."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 is the parent PID; field 2 (the name) may hold spaces.
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            children.append(int(entry))
    return children


@pytest.fixture(scope="module")
def serial_results():
    return SerialExecutor().run(job_batch())


class TestLoopbackDispatch:
    def test_remote_results_identical_to_serial(self, serial_results):
        executor = ParallelExecutor(
            workers=0, serve=("127.0.0.1", 0), min_workers=1
        )
        worker = spawn_worker(executor.coordinator.port)
        try:
            results = executor.run(job_batch())
        finally:
            executor.shutdown_remote()
            reap(worker)
        assert results == serial_results
        assert executor.stats.remote_workers == 1
        assert executor.stats.simulated == len(job_batch())
        assert executor.stats.bytes_sent > 0
        assert executor.stats.bytes_received > 0
        assert executor.stats.reassignments == 0

    def test_worker_joining_mid_batch_picks_up_queued_shards(
        self, serial_results
    ):
        # Serve-only with min_workers=0: the batch starts with nobody to
        # run it and the queued shards must wait for the first join
        # rather than falling back to a local worker.
        executor = ParallelExecutor(workers=0, serve=("127.0.0.1", 0))
        port = executor.coordinator.port

        outcome = {}

        def run_batch():
            outcome["results"] = executor.run(job_batch())

        runner = threading.Thread(target=run_batch)
        runner.start()
        sleep(0.5)  # let shards queue with no worker connected
        assert runner.is_alive(), "batch completed with no worker attached"
        worker = spawn_worker(port)
        try:
            runner.join(timeout=120)
            assert not runner.is_alive(), "batch never drained"
        finally:
            executor.shutdown_remote()
            reap(worker)
        assert outcome["results"] == serial_results
        assert executor.stats.remote_workers == 1

    def test_sigkill_mid_sweep_reassigns_and_stays_identical(
        self, serial_results, tmp_path
    ):
        store = SqliteStore(tmp_path / "remote.sqlite")
        executor = ParallelExecutor(
            workers=0, serve=("127.0.0.1", 0), min_workers=2
        )
        first = spawn_worker(executor.coordinator.port)
        second = spawn_worker(executor.coordinator.port)
        victim = {"pid": None}

        def assassin(event) -> None:
            # SIGKILL one remote worker the moment the first simulated
            # result lands, guaranteeing the batch is mid-flight.
            if victim["pid"] is None and event.source == SOURCE_SIMULATED:
                victim["pid"] = second.pid
                os.kill(second.pid, signal.SIGKILL)

        try:
            survived = executor.run(job_batch(), store=store, progress=assassin)
        finally:
            executor.shutdown_remote()
            reap(first, second)

        assert victim["pid"] is not None, "assassin never fired"
        assert survived == serial_results
        assert executor.stats.remote_workers == 2
        assert executor.stats.worker_failures >= 1
        assert executor.stats.reassignments >= 1

        # Every completed result was committed incrementally, so a fresh
        # serial run replays the batch from the store for free.
        resumed = SerialExecutor()
        replayed = resumed.run(job_batch(), store=SqliteStore(store.path))
        assert replayed == serial_results
        assert resumed.stats.simulated == 0

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs Linux /proc")
    def test_sigkill_of_a_simulation_process_is_retried_on_the_worker(
        self, serial_results
    ):
        # Kill one simulation process inside the remote worker, not the
        # worker itself: the worker's pool reports the in-flight job as
        # an error frame (the coordinator retries that slot), re-runs the
        # rest of the shard on a respawned process, and stays connected.
        executor = ParallelExecutor(
            workers=0, serve=("127.0.0.1", 0), min_workers=1, retry_backoff_s=0.01
        )
        coordinator = executor.coordinator
        worker = spawn_worker(coordinator.port)
        killed = []
        finished = threading.Event()

        def assassin() -> None:
            # Strike once the coordinator has seen a job start remotely.
            while not killed and not finished.wait(0.01):
                for remote in coordinator.live_workers():
                    shards = list(remote.shards.values())
                    if any(state.running is not None for state in shards):
                        for pid in child_pids(worker.pid):
                            os.kill(pid, signal.SIGKILL)
                            killed.append(pid)

        thread = threading.Thread(target=assassin)
        thread.start()
        try:
            results = executor.run(job_batch())
            still_registered = coordinator.live_count()
        finally:
            finished.set()
            thread.join(timeout=10)
            executor.shutdown_remote()
            reap(worker)

        assert killed, "no simulation process was ever caught mid-job"
        assert results == serial_results
        assert executor.stats.retries >= 1
        assert executor.stats.worker_failures == 0
        assert executor.stats.reassignments == 0
        assert still_registered == 1
        assert executor.stats.remote_workers == 1


class TestCostModel:
    def make_job(self, mechanism="refab", cycles=1000):
        return SimulationJob(
            config=small_system(mechanism),
            workload=small_workload(),
            cycles=cycles,
            warmup=200,
            seed=0,
        )

    def test_uncalibrated_estimate_is_the_static_cost(self):
        model = CostModel()
        job = self.make_job()
        assert not model.is_calibrated(job)
        assert model.estimate(job) == estimate_cost(job)

    def test_observation_calibrates_the_key(self):
        model = CostModel()
        job = self.make_job()
        model.observe(job, 2.0)
        assert model.is_calibrated(job)
        assert model.estimate(job) == pytest.approx(2.0)
        # EWMA, not last-write-wins: a new sample moves the estimate by
        # alpha of the difference.
        model.observe(job, 4.0)
        assert model.estimate(job) == pytest.approx(2.0 + model.alpha * 2.0)

    def test_unseen_keys_scale_by_the_global_ratio(self):
        model = CostModel()
        short = self.make_job(cycles=1000)
        long = self.make_job(cycles=4000)
        model.observe(short, 1.0)
        assert not model.is_calibrated(long)
        # The global seconds-per-unit EWMA keeps unseen keys in seconds:
        # the longer job's estimate scales with its static cost.
        ratio = 1.0 / estimate_cost(short)
        assert model.estimate(long) == pytest.approx(estimate_cost(long) * ratio)

    def test_nonpositive_and_keyless_observations_ignored(self):
        model = CostModel()
        job = self.make_job()
        model.observe(job, 0.0)
        model.observe(job, -1.0)

        class Bare:
            pass

        model.observe(Bare(), 5.0)
        assert model.observations == 0
        assert model.snapshot() == {}

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            CostModel(alpha=0.0)
        with pytest.raises(ValueError):
            CostModel(alpha=1.5)

    def test_executor_calibrates_across_batches(self):
        # The parallel executor feeds observed wall-clock back into its
        # cost model, so a repeat batch plans on measured seconds; the
        # calibrated_jobs stat records how many jobs benefited.
        executor = ParallelExecutor(workers=1)
        batch = job_batch(cycles=400, warmup=100)
        executor.run(batch)
        assert executor.stats.calibrated_jobs == 0
        assert executor.cost_model.observations == len(batch)
        executor.run(batch)
        assert executor.stats.calibrated_jobs == len(batch)
