"""Deterministic job-batch executors.

Executors take a batch of :class:`~repro.engine.jobs.SimulationJob` specs
and return their results *in batch order*.  Both executors consult an
optional :class:`~repro.engine.store.ResultStore` before simulating and
write every fresh result back, and both deduplicate repeated job keys
inside a batch, so a job is never simulated twice.

Because each simulation is a pure function of its job spec (the simulator
is deterministic given the seed), the :class:`ParallelExecutor` produces
results identical to the :class:`SerialExecutor` for any worker count —
parallelism changes wall-clock time, never outcomes.  The parallel
fan-out is a work-stealing shard queue (:mod:`repro.engine.queue`): job
batches are chunked into cost-balanced shards, idle workers steal queued
shards, hung jobs are killed on a per-job timeout, failing jobs retry
with exponential backoff, and a worker death re-queues its in-flight
shard so the run completes with a warning instead of crashing.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.cache.warm import WarmStates
from repro.engine.jobs import SimulationJob, execute_job
from repro.engine.progress import (
    SOURCE_SIMULATED,
    SOURCE_STORE,
    JobEvent,
    ProgressCallback,
)
from repro.engine.queue import (
    RETRY_BACKOFF_S,
    SHARDS_PER_WORKER,
    CostModel,
    ShardDispatcher,
)
from repro.engine.remote import RemoteCoordinator
from repro.engine.store import ResultStore
from repro.stats import StatsStruct

if TYPE_CHECKING:  # avoid repro.sim <-> repro.engine import cycle
    from repro.sim.results import SimulationResult


@dataclass
class ExecutorStats(StatsStruct):
    """Cumulative counters across every batch an executor has run."""

    jobs: int = 0
    store_hits: int = 0
    simulated: int = 0
    elapsed_s: float = 0.0
    #: Shards planned for work-stealing dispatch (parallel executor only).
    shards: int = 0
    #: Shards executed by a worker other than the planner's preferred one.
    steals: int = 0
    #: Job re-executions scheduled after an error, crash or timeout.
    retries: int = 0
    #: Jobs killed for exceeding the per-job timeout.
    timeouts: int = 0
    #: Worker processes that died mid-run and were replaced.
    worker_failures: int = 0
    #: Remote workers that completed the TCP handshake (``--serve`` runs).
    remote_workers: int = 0
    #: Protocol bytes streamed to / received from remote workers.
    bytes_sent: int = 0
    bytes_received: int = 0
    #: Shards pulled back from a dead remote worker and re-queued.
    reassignments: int = 0
    #: Jobs whose shard-planning cost came from the calibrated EWMA
    #: table rather than the static cycles x cores estimate.
    calibrated_jobs: int = 0

    def snapshot(self) -> "ExecutorStats":
        """Immutable copy, for before/after delta accounting."""
        return replace(self)

    def delta(self, since: "ExecutorStats") -> "ExecutorStats":
        """Counter movement since an earlier :meth:`snapshot`.

        Lets callers (the benchmark harness, progress reporting) attribute
        a slice of a long-lived executor's cumulative counters to one
        phase of work without resetting shared state.  The subtraction is
        :meth:`~repro.stats.StatsStruct.diff` over the dataclass fields, so
        a field added here can never be silently dropped from deltas.
        """
        return ExecutorStats(**self.diff(self.as_dict(), since.as_dict()))


class JobExecutor(ABC):
    """Runs job batches, resolving each job from the store when possible."""

    def __init__(self) -> None:
        self.stats = ExecutorStats()

    def run(
        self,
        jobs: Iterable[SimulationJob],
        store: Optional[ResultStore] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> list[SimulationResult]:
        """Run a batch; the result list is aligned with the input order."""
        jobs = list(jobs)
        total = len(jobs)
        start = perf_counter()
        results: dict[str, SimulationResult] = {}
        order: list[str] = []
        pending: list[tuple[int, SimulationJob]] = []
        pending_keys: set[str] = set()
        for index, job in enumerate(jobs):
            key = job.key()
            order.append(key)
            if key in results or key in pending_keys:
                continue
            stored = store.get(key) if store is not None else None
            if stored is not None:
                results[key] = stored
                self.stats.store_hits += 1
                if progress is not None:
                    progress(
                        JobEvent(
                            index=index,
                            total=total,
                            key=key,
                            label=job.describe(),
                            source=SOURCE_STORE,
                        )
                    )
            else:
                pending.append((index, job))
                pending_keys.add(key)
        if pending:
            executed = self._execute_pending(pending, total, progress, store)
            for (_, job), result in zip(pending, executed):
                results[job.key()] = result
        self.stats.jobs += total
        self.stats.simulated += len(pending)
        self.stats.elapsed_s += perf_counter() - start
        return [results[key] for key in order]

    @abstractmethod
    def _execute_pending(
        self,
        pending: Sequence[tuple[int, SimulationJob]],
        total: int,
        progress: Optional[ProgressCallback],
        store: Optional[ResultStore],
    ) -> list["SimulationResult"]:
        """Simulate the cache-missing jobs; aligned with ``pending``.

        Implementations write each result to ``store`` as soon as it
        completes, so an interrupted batch still warms the store with
        everything finished so far.
        """


class SerialExecutor(JobExecutor):
    """Runs every job in-process, one after another.

    The executor keeps one holder of warmed LLC states for all its
    batches, so each distinct cache warmup runs once per executor.
    """

    def __init__(self) -> None:
        super().__init__()
        self.warm_states = WarmStates()

    def _execute_pending(self, pending, total, progress, store):
        results = []
        for index, job in pending:
            job_start = perf_counter()
            result = execute_job(job, self.warm_states)
            elapsed_s = perf_counter() - job_start
            results.append(result)
            if store is not None:
                store.put(job.key(), result)
            if progress is not None:
                progress(
                    JobEvent(
                        index=index,
                        total=total,
                        key=job.key(),
                        label=job.describe(),
                        source=SOURCE_SIMULATED,
                        elapsed_s=elapsed_s,
                    )
                )
        return results


class ParallelExecutor(JobExecutor):
    """Fans a batch out over a work-stealing shard queue of workers.

    Local worker processes exchange jobs and results with this process
    over private ``multiprocessing`` pipes; remote workers (``serve``)
    speak the JSON-only protocol of :mod:`repro.engine.remote`.  Results
    are reassembled in batch order, so the outcome is byte-identical to
    the serial executor regardless of ``workers``, shard plan, host or
    completion order.  Resilience knobs:

    ``max_retries``
        Per-job retry budget.  A job whose worker crashes, whose
        execution raises, or which exceeds ``job_timeout`` is re-queued
        with exponential backoff up to this many times; exhausting the
        budget raises :class:`~repro.engine.queue.JobFailedError` after
        the rest of the batch drains.
    ``job_timeout``
        Optional per-job wall-clock limit in seconds.  A hung simulation
        no longer stalls the batch forever: its worker is killed and the
        job retried.
    ``serve``
        Optional ``(host, port)``: open a TCP coordinator
        (:mod:`repro.engine.remote`) so remote ``repro worker``
        processes can join the shard queue.  ``workers=0`` is then
        allowed and means serve-only — every job runs on remote hosts
        unless they all die, in which case a local worker finishes the
        batch.  The coordinator outlives batches (workers stay
        connected across a sweep); call :meth:`shutdown_remote` to send
        the shutdown frame and release the port.
    ``min_workers``
        With ``serve``, block before the first batch until this many
        remote workers have joined (bounded by
        ``min_workers_timeout_s``).

    Every finished job's wall-clock feeds a calibrated
    :class:`~repro.engine.queue.CostModel`, so later batches on the same
    executor plan shards from measured seconds instead of the static
    cycles x cores estimate.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        max_retries: int = 2,
        job_timeout: Optional[float] = None,
        shards_per_worker: int = SHARDS_PER_WORKER,
        retry_backoff_s: float = RETRY_BACKOFF_S,
        serve: Optional[tuple[str, int]] = None,
        min_workers: int = 0,
        min_workers_timeout_s: float = 300.0,
    ) -> None:
        super().__init__()
        if workers is not None and workers < 1 and serve is None:
            raise ValueError(f"workers must be positive, got {workers}")
        if workers is not None and workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if min_workers > 0 and serve is None:
            raise ValueError("min_workers requires serve=(host, port)")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.max_retries = max_retries
        self.job_timeout = job_timeout
        self.shards_per_worker = shards_per_worker
        self.retry_backoff_s = retry_backoff_s
        self.min_workers = min_workers
        self.min_workers_timeout_s = min_workers_timeout_s
        self.cost_model = CostModel()
        self.coordinator: Optional[RemoteCoordinator] = None
        if serve is not None:
            host, port = serve
            self.coordinator = RemoteCoordinator(
                stats=self.stats, host=host, port=port, job_timeout=job_timeout
            )
        self._waited_for_workers = False
        self._dispatcher: Optional[ShardDispatcher] = None

    def worker_pids(self) -> list[int]:
        """PIDs of the live workers while a batch is running (else [])."""
        dispatcher = self._dispatcher
        return dispatcher.worker_pids() if dispatcher is not None else []

    def shutdown_remote(self) -> None:
        """Send remote workers the shutdown frame and close the port."""
        if self.coordinator is not None:
            self.coordinator.close()
            self.coordinator = None

    def _execute_pending(self, pending, total, progress, store):
        jobs = [job for _, job in pending]
        indexes = [index for index, _ in pending]

        if (
            self.coordinator is not None
            and self.min_workers > 0
            and not self._waited_for_workers
        ):
            if not self.coordinator.wait_for_workers(
                self.min_workers, self.min_workers_timeout_s
            ):
                raise RuntimeError(
                    f"timed out after {self.min_workers_timeout_s:.0f}s waiting "
                    f"for {self.min_workers} remote worker(s) on "
                    f"{self.coordinator.host}:{self.coordinator.port}"
                )
            self._waited_for_workers = True

        def on_result(slot, result, elapsed_s, attempts):
            job = jobs[slot]
            self.cost_model.observe(job, elapsed_s)
            if store is not None:
                store.put(job.key(), result)
            if progress is not None:
                progress(
                    JobEvent(
                        index=indexes[slot],
                        total=total,
                        key=job.key(),
                        label=job.describe(),
                        source=SOURCE_SIMULATED,
                        elapsed_s=elapsed_s,
                        attempts=attempts,
                    )
                )

        dispatcher = ShardDispatcher(
            workers=self.workers,
            stats=self.stats,
            on_result=on_result,
            max_retries=self.max_retries,
            job_timeout=self.job_timeout,
            shards_per_worker=self.shards_per_worker,
            retry_backoff_s=self.retry_backoff_s,
            remote=self.coordinator,
            cost_model=self.cost_model,
        )
        self._dispatcher = dispatcher
        try:
            return dispatcher.run(jobs)
        finally:
            self._dispatcher = None
