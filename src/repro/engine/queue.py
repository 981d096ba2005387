"""Work-stealing shard queue for the parallel experiment engine.

The fixed fan-out of the original pool-based executor had two failure
modes at scale: a single slow job serialized its whole chunk (static
partitioning), and a single dead worker lost the whole batch (the pool
marks itself broken).  This module replaces it with a resilient shard
dispatcher:

* :func:`plan_shards` chunks a job batch into more shards than workers,
  balanced by each job's *estimated cost* (simulated cycles x cores from
  the fingerprinted config), so the queue drains evenly even when cell
  costs vary by an order of magnitude.
* Worker processes pull shards dynamically: every shard has a *preferred*
  worker (round-robin over the cost-sorted plan), and an idle worker
  taking another worker's shard counts as a **steal** — the load-balancing
  event the executor reports through its stats.
* The parent monitors every worker over private pipes through a
  :class:`WorkerPool`, which the ``repro worker`` runtime of
  :mod:`repro.engine.remote` runs too.  A worker that dies (``kill -9``,
  OOM, segfault) or exceeds the per-job timeout is reaped: its finished
  results are kept, its in-flight job is retried with exponential
  backoff up to a bounded retry budget, the rest of its shard is
  re-queued, and a replacement worker is spawned.  The run completes
  with a warning instead of crashing.

Per-worker pipes (rather than one shared queue) are what make the
``kill -9`` path safe: a worker killed mid-``send`` can only corrupt its
own channel, which the parent observes as an EOF and treats as a death,
never as a hang of the whole run.
"""

from __future__ import annotations

import multiprocessing
import os
from contextlib import suppress
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from time import perf_counter, sleep
from typing import Callable, Optional, Sequence

from repro.cache.warm import WarmStates
from repro.engine.jobs import execute_job
from repro.obs.log import get_logger

log = get_logger(__name__)

#: Messages a worker sends to the parent over its result pipe.
MSG_STARTED = "started"
MSG_DONE = "done"
MSG_ERROR = "error"
MSG_SHARD_DONE = "shard_done"
#: Event a :class:`WorkerPool` raises for a process that died or timed out.
MSG_LOST = "lost"

#: How many shards to plan per worker; more shards = finer stealing
#: granularity, at the price of slightly more dispatch chatter.
SHARDS_PER_WORKER = 4

#: First retry delay; doubles per subsequent attempt of the same job.
RETRY_BACKOFF_S = 0.1

#: Parent event-loop tick: the longest a timeout/death can go unnoticed.
_TICK_S = 0.05


class JobFailedError(RuntimeError):
    """A job exhausted its retry budget (crash, timeout or exception)."""

    def __init__(self, failures: dict[int, str]):
        self.failures = dict(failures)
        detail = "; ".join(
            f"job #{slot}: {reason}" for slot, reason in sorted(failures.items())
        )
        super().__init__(
            f"{len(failures)} job(s) failed after exhausting retries — {detail}"
        )


def estimate_cost(job) -> float:
    """Relative wall-clock estimate for one job, for shard balancing.

    Delegates to :meth:`~repro.engine.jobs.SimulationJob.estimated_cost`
    (simulated cycles x cores, from the fingerprinted config); jobs
    without the method (test doubles) cost a flat 1.0 so planning still
    works.
    """
    try:
        return float(job.estimated_cost())
    except AttributeError:
        return 1.0


#: Weight of the newest observation in the calibrated cost model.
COST_EWMA_ALPHA = 0.3


class CostModel:
    """Calibrated per-job cost estimates from observed wall-clock.

    The static :func:`estimate_cost` (cycles x cores) ranks jobs but
    knows nothing about how mechanisms actually differ in work per
    cycle.  This model records each finished job's measured seconds into
    an EWMA table keyed by the fingerprint fields that determine runtime
    — (mechanism, cores, density, window length) — and feeds the
    calibrated figure back into :func:`plan_shards`, so repeat sweeps
    balance on measured cost.  Keys never observed fall back to the
    static estimate scaled by the global seconds-per-unit EWMA, keeping
    mixed batches in one consistent unit (seconds).
    """

    def __init__(self, alpha: float = COST_EWMA_ALPHA) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.observations = 0
        self._measured: dict[tuple, float] = {}
        self._seconds_per_unit: Optional[float] = None

    @staticmethod
    def job_key(job) -> Optional[tuple]:
        """Fingerprint fields that determine a job's runtime, or None
        for jobs without a full config (test doubles)."""
        try:
            config = job.config
            return (
                config.refresh.mechanism.value,
                config.cpu.num_cores,
                config.dram.density_gb,
                job.cycles + job.warmup,
            )
        except AttributeError:
            return None

    def is_calibrated(self, job) -> bool:
        return CostModel.job_key(job) in self._measured

    def observe(self, job, elapsed_s: float) -> None:
        if elapsed_s <= 0:
            return
        key = CostModel.job_key(job)
        if key is None:
            return
        self.observations += 1
        previous = self._measured.get(key)
        if previous is None:
            self._measured[key] = elapsed_s
        else:
            self._measured[key] = previous + self.alpha * (elapsed_s - previous)
        static = estimate_cost(job)
        if static > 0:
            ratio = elapsed_s / static
            if self._seconds_per_unit is None:
                self._seconds_per_unit = ratio
            else:
                self._seconds_per_unit += self.alpha * (
                    ratio - self._seconds_per_unit
                )

    def estimate(self, job) -> float:
        """Calibrated seconds when the key was observed; scaled static
        cost otherwise."""
        key = CostModel.job_key(job)
        if key is not None and key in self._measured:
            return self._measured[key]
        static = estimate_cost(job)
        if self._seconds_per_unit is not None:
            return static * self._seconds_per_unit
        return static

    def snapshot(self) -> dict[tuple, float]:
        """The current EWMA table, for diagnostics and tests."""
        return dict(self._measured)


@dataclass(frozen=True)
class Shard:
    """A contiguous unit of dispatch: several jobs bound for one worker."""

    shard_id: int
    jobs: tuple
    #: Caller-side slot of each job (position in the pending batch).
    slots: tuple
    cost: float
    #: Worker the planner intended this shard for; any other worker
    #: pulling it is a steal.
    preferred_worker: int

    def __len__(self) -> int:
        return len(self.jobs)


def plan_shards(
    jobs: Sequence,
    workers: int,
    shards_per_worker: int = SHARDS_PER_WORKER,
    cost_fn: Callable[[object], float] = estimate_cost,
) -> list[Shard]:
    """Chunk a job batch into cost-balanced shards, heaviest first.

    Longest-processing-time greedy: jobs sorted by estimated cost fall
    into the currently lightest shard, which bounds the heaviest shard at
    ~4/3 of optimal while staying deterministic.  The plan produces up to
    ``workers * shards_per_worker`` shards so the tail of the run is made
    of small units that idle workers can steal.  ``cost_fn`` defaults to
    the static estimate; the executor passes a calibrated
    :class:`CostModel` once wall-clock observations exist.
    """
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    if not jobs:
        return []
    count = max(1, min(len(jobs), workers * shards_per_worker))
    costs = [cost_fn(job) for job in jobs]
    bins: list[tuple[list[int], float]] = [([], 0.0) for _ in range(count)]
    order = sorted(range(len(jobs)), key=lambda slot: (-costs[slot], slot))
    for slot in order:
        index = min(range(count), key=lambda b: (bins[b][1], b))
        slots, total = bins[index]
        slots.append(slot)
        bins[index] = (slots, total + costs[slot])
    filled = sorted((b for b in bins if b[0]), key=lambda b: (-b[1], b[0][0]))
    return [
        Shard(
            shard_id=shard_id,
            jobs=tuple(jobs[slot] for slot in slots),
            slots=tuple(slots),
            cost=total,
            preferred_worker=shard_id % workers,
        )
        for shard_id, (slots, total) in enumerate(filled)
    ]


def _worker_main(worker_id: int, tasks, results, close_fds=()) -> None:
    """Child-process loop: execute shards until the ``None`` sentinel.

    ``close_fds`` lists parent-side fds the fork start method leaks into
    this child — notably the write end of its own task pipe, which would
    stop ``tasks.recv()`` from ever reporting EOF once the parent dies.
    """
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    # One holder for every job this process runs: jobs sharing a
    # benchmark and warm seed restore each other's warmed LLCs.
    warm_states = WarmStates()
    while True:
        try:
            shard = tasks.recv()
        except (EOFError, OSError):
            break
        if shard is None:
            break
        for slot, job in zip(shard.slots, shard.jobs):
            results.send((MSG_STARTED, worker_id, shard.shard_id, slot))
            start = perf_counter()
            try:
                result = execute_job(job, warm_states)
            except Exception as error:  # noqa: BLE001 - reported to the parent
                results.send(
                    (
                        MSG_ERROR,
                        worker_id,
                        shard.shard_id,
                        slot,
                        f"{type(error).__name__}: {error}",
                        perf_counter() - start,
                    )
                )
            else:
                results.send(
                    (
                        MSG_DONE,
                        worker_id,
                        shard.shard_id,
                        slot,
                        result,
                        perf_counter() - start,
                    )
                )
        results.send((MSG_SHARD_DONE, worker_id, shard.shard_id))
    results.close()


@dataclass(frozen=True)
class PoolEvent:
    """One job-lifecycle event from a pool process or a remote worker.

    ``kind`` is one of the ``MSG_*`` names.  ``started``, ``done`` and
    ``error`` name the job's ``slot``; ``done`` adds its ``result`` and
    ``error`` its ``reason``.  A ``lost`` event reports a process (or
    remote link) that died or timed out: ``slot`` is the job it was
    running, if any, and ``remaining`` the slots of ``shard`` it never
    started.
    """

    kind: str
    shard: Optional[Shard] = None
    slot: Optional[int] = None
    result: object = None
    elapsed_s: float = 0.0
    reason: str = ""
    remaining: tuple = ()
    timed_out: bool = False
    worker_id: Optional[int] = None


@dataclass
class ShardProgress:
    """How far one process, or one remote worker, got through a shard."""

    shard: Shard
    #: Slots already finished (done or errored).
    finished: set = field(default_factory=set)
    #: Slot currently simulating, and when it was seen to start.
    running: Optional[int] = None
    since: float = 0.0

    def start(self, slot: int) -> None:
        self.running, self.since = slot, perf_counter()

    def finish(self, slot: int) -> None:
        self.finished.add(slot)
        if self.running == slot:
            self.running = None

    def lost(self, reason: str, **fields) -> PoolEvent:
        """The ``lost`` event for this shard: the in-flight slot, if any,
        and the slots that never started."""
        running = self.running
        return PoolEvent(
            MSG_LOST,
            self.shard,
            running,
            elapsed_s=0.0 if running is None else perf_counter() - self.since,
            reason=reason,
            remaining=tuple(
                slot
                for slot in self.shard.slots
                if slot not in self.finished and slot != running
            ),
            **fields,
        )


@dataclass
class _Worker:
    """Parent-side handle for one worker process."""

    worker_id: int
    process: multiprocessing.Process
    task_conn: object
    result_conn: object
    #: Progress through the assigned shard; None while idle.
    progress: Optional[ShardProgress] = None

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def idle(self) -> bool:
        return self.progress is None

    def stop(self, grace_s: float = 0.0) -> None:
        """Join the process, killing it after ``grace_s``; close its pipes."""
        self.process.join(timeout=grace_s)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)
        for conn in (self.task_conn, self.result_conn):
            with suppress(OSError):
                conn.close()


class WorkerPool:
    """Local simulation processes, each fed whole shards over a pipe.

    The pool owns the process side of dispatch: spawning, assigning
    shards, turning pipe traffic into :class:`PoolEvent` records, reaping
    processes that die or exceed ``job_timeout``, and shutdown.  What to
    do about a lost job (retry, re-queue, respawn) is the caller's
    policy: :class:`ShardDispatcher` on the coordinator, and the
    ``repro worker`` runtime in :mod:`repro.engine.remote`.

    ``inherited_fds`` are extra parent fds that every forked child closes
    first.  A remote worker passes its coordinator socket: left open in a
    child, a SIGKILLed worker would be noticed by the coordinator only at
    the heartbeat timeout instead of as an immediate EOF.
    """

    def __init__(
        self, job_timeout: Optional[float] = None, inherited_fds: Sequence[int] = ()
    ) -> None:
        self.job_timeout = job_timeout
        self.inherited_fds = tuple(inherited_fds)
        self._mp = multiprocessing.get_context()
        self._live: dict[int, _Worker] = {}
        self._next_worker_id = 0
        #: Losses seen outside :meth:`poll` (a failed assign), reported
        #: by the next poll.
        self._lost: list[PoolEvent] = []

    def __len__(self) -> int:
        return len(self._live)

    def pids(self) -> list[int]:
        """PIDs of the live processes, in worker-id order."""
        return [
            worker.pid
            for _, worker in sorted(self._live.items())
            if worker.pid is not None
        ]

    def idle_workers(self) -> list[_Worker]:
        return [worker for worker in self._live.values() if worker.idle()]

    def wait_channels(self) -> list:
        """Result pipes and process sentinels, for ``connection.wait``."""
        channels = [worker.result_conn for worker in self._live.values()]
        channels += [worker.process.sentinel for worker in self._live.values()]
        return channels

    def spawn(self) -> _Worker:
        task_recv, task_send = self._mp.Pipe(duplex=False)
        result_recv, result_send = self._mp.Pipe(duplex=False)
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        close_fds = ()
        if self._mp.get_start_method() == "fork":
            # The forked child inherits every parent-side pipe end,
            # including the write end of its own task pipe, which would
            # keep ``tasks.recv()`` from ever seeing EOF once this parent
            # dies, leaving an orphaned child blocked forever.
            inherited = [*self.inherited_fds, task_send.fileno(), result_recv.fileno()]
            for sibling in self._live.values():
                inherited.append(sibling.task_conn.fileno())
                inherited.append(sibling.result_conn.fileno())
            close_fds = tuple(inherited)
        process = self._mp.Process(
            target=_worker_main,
            args=(worker_id, task_recv, result_send, close_fds),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        # The parent's copies of the child-side ends must close so a dead
        # worker's pipes actually report EOF.
        task_recv.close()
        result_send.close()
        worker = _Worker(
            worker_id=worker_id,
            process=process,
            task_conn=task_send,
            result_conn=result_recv,
        )
        self._live[worker_id] = worker
        return worker

    def assign(self, worker: _Worker, shard: Shard) -> None:
        """Send an idle worker a shard; a dead one is reaped instead."""
        worker.progress = ShardProgress(shard)
        try:
            worker.task_conn.send(shard)
        except (OSError, BrokenPipeError):
            self._lost.append(self._reap(worker, "died before dispatch"))

    def poll(self) -> list[PoolEvent]:
        """Drain every pipe and reap dead or timed-out processes."""
        events, self._lost = self._lost, []
        for worker in list(self._live.values()):
            try:
                while worker.result_conn.poll():
                    events.append(self._track(worker, worker.result_conn.recv()))
            except (EOFError, OSError):
                events.append(self._reap(worker, "died mid-run"))
                continue
            if not worker.process.is_alive():
                reason = f"died (exit code {worker.process.exitcode})"
                events.append(self._reap(worker, reason))
                continue
            progress = worker.progress
            if (
                self.job_timeout is not None
                and progress is not None
                and progress.running is not None
                and perf_counter() - progress.since > self.job_timeout
            ):
                log.warning(
                    "job #%d exceeded the %.2fs timeout on worker %d; "
                    "killing the worker",
                    progress.running,
                    self.job_timeout,
                    worker.worker_id,
                )
                reason = f"timed out after {self.job_timeout:.2f}s"
                events.append(self._reap(worker, reason, timed_out=True))
        return events

    def _track(self, worker: _Worker, message: tuple) -> PoolEvent:
        kind, progress = message[0], worker.progress
        shard = progress.shard
        if kind == MSG_STARTED:
            progress.start(message[3])
            return PoolEvent(kind, shard, slot=message[3])
        if kind == MSG_SHARD_DONE:
            worker.progress = None
            return PoolEvent(kind, shard)
        _, _, _, slot, payload, elapsed_s = message
        progress.finish(slot)
        if kind == MSG_DONE:
            return PoolEvent(kind, shard, slot, result=payload, elapsed_s=elapsed_s)
        return PoolEvent(kind, shard, slot, reason=payload, elapsed_s=elapsed_s)

    def _reap(self, worker: _Worker, reason: str, timed_out: bool = False) -> PoolEvent:
        """Remove a dead (or hung) process and report what it lost."""
        self._live.pop(worker.worker_id, None)
        worker.stop()
        fields = {"timed_out": timed_out, "worker_id": worker.worker_id}
        if worker.progress is None:
            return PoolEvent(MSG_LOST, reason=reason, **fields)
        return worker.progress.lost(reason, **fields)

    def shutdown(self) -> None:
        for worker in self._live.values():
            with suppress(OSError):
                worker.task_conn.send(None)
        for worker in self._live.values():
            worker.stop(grace_s=5.0)
        self._live.clear()


class ShardDispatcher:
    """Runs one job batch over resilient worker processes.

    ``on_result(slot, result, elapsed_s, attempts)`` fires in the parent
    as each job completes, in completion order; the executor uses it for
    store writes and progress events, so an interrupted run still keeps
    everything finished so far.  ``stats`` is duck-typed (the executor's
    :class:`~repro.engine.executor.ExecutorStats`): the dispatcher
    increments ``shards``, ``steals``, ``retries``, ``timeouts`` and
    ``worker_failures`` on it.

    ``remote`` is an optional
    :class:`~repro.engine.remote.RemoteCoordinator`: its connected
    workers join the same shard plan, pulled from the same ready queue
    as the local pool, and a remote death re-queues its shards to any
    survivor.  ``workers=0`` is allowed only with a coordinator
    (serve-only mode); if every remote worker dies after at least one
    had joined, a local worker is spawned so the batch still finishes.
    ``cost_model`` is an optional :class:`CostModel` used for shard
    planning in place of the static estimate.
    """

    def __init__(
        self,
        workers: int,
        stats,
        on_result: Callable[[int, object, float, int], None],
        max_retries: int = 2,
        job_timeout: Optional[float] = None,
        shards_per_worker: int = SHARDS_PER_WORKER,
        retry_backoff_s: float = RETRY_BACKOFF_S,
        remote=None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        if workers < 1 and remote is None:
            raise ValueError(f"workers must be positive, got {workers}")
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError(f"job_timeout must be positive, got {job_timeout}")
        self.workers = workers
        self.stats = stats
        self.on_result = on_result
        self.max_retries = max_retries
        self.job_timeout = job_timeout
        self.shards_per_worker = shards_per_worker
        self.retry_backoff_s = retry_backoff_s
        self.remote = remote
        self.cost_model = cost_model
        self._cost_fn = cost_model.estimate if cost_model is not None else estimate_cost
        self._pool = WorkerPool(job_timeout=job_timeout)
        self._next_shard_id = 0

    # -- introspection (tests, resilience drills) --------------------------
    def worker_pids(self) -> list[int]:
        """PIDs of the live worker processes, in worker-id order."""
        return self._pool.pids()

    def run(self, jobs: Sequence) -> list:
        """Execute every job; returns results aligned with ``jobs``.

        Raises :class:`JobFailedError` after the batch drains if any job
        exhausted its retry budget; every other result is still delivered
        through ``on_result`` first.
        """
        results: list = [None] * len(jobs)
        resolved: set[int] = set()
        failed: dict[int, str] = {}
        attempts: dict[int, int] = {}

        remote = self.remote
        pool = self._pool
        capacity = self.workers + (remote.total_capacity() if remote else 0)
        shards = plan_shards(
            jobs, max(1, capacity), self.shards_per_worker, cost_fn=self._cost_fn
        )
        self._next_shard_id = len(shards)
        self.stats.shards += len(shards)
        if self.cost_model is not None:
            self.stats.calibrated_jobs += sum(
                1 for job in jobs if self.cost_model.is_calibrated(job)
            )
        ready: list[Shard] = list(shards)
        delayed: list[tuple[float, Shard]] = []

        for _ in range(min(self.workers, max(1, len(shards)))):
            pool.spawn()

        def outstanding() -> int:
            return len(jobs) - len(resolved) - len(failed)

        def requeue(slots: Sequence[int], delay_s: float = 0.0) -> None:
            pending_slots = tuple(
                slot for slot in slots if slot not in resolved and slot not in failed
            )
            if not pending_slots:
                return
            shard = Shard(
                shard_id=self._next_shard_id,
                jobs=tuple(jobs[slot] for slot in pending_slots),
                slots=pending_slots,
                cost=sum(self._cost_fn(jobs[slot]) for slot in pending_slots),
                preferred_worker=self._next_shard_id % max(1, self.workers),
            )
            self._next_shard_id += 1
            if delay_s > 0:
                delayed.append((perf_counter() + delay_s, shard))
            else:
                ready.append(shard)

        def retry_or_fail(slot: int, reason: str) -> None:
            attempts[slot] = attempts.get(slot, 0) + 1
            if attempts[slot] > self.max_retries:
                failed[slot] = f"{reason} (after {attempts[slot]} attempts)"
                log.warning("job #%d permanently failed: %s", slot, failed[slot])
                return
            self.stats.retries += 1
            backoff = self.retry_backoff_s * (2 ** (attempts[slot] - 1))
            log.warning(
                "retrying job #%d (attempt %d/%d, %.2fs backoff): %s",
                slot,
                attempts[slot] + 1,
                self.max_retries + 1,
                backoff,
                reason,
            )
            requeue([slot], delay_s=backoff)

        def handle(event: PoolEvent) -> None:
            """Apply one local or remote completion or loss to the batch."""
            slot = event.slot
            if event.kind == MSG_DONE:
                if slot in resolved:
                    return  # a presumed-lost job that actually finished
                resolved.add(slot)
                failed.pop(slot, None)
                results[slot] = event.result
                self.on_result(
                    slot, event.result, event.elapsed_s, attempts.get(slot, 0) + 1
                )
            elif event.kind == MSG_ERROR:
                if slot not in resolved:
                    retry_or_fail(slot, event.reason)
            elif event.kind == MSG_LOST:
                if slot is not None and slot not in resolved and slot not in failed:
                    retry_or_fail(slot, event.reason)
                if event.remaining:
                    log.warning(
                        "re-queuing %d unstarted job(s) of shard %d after %s",
                        len(event.remaining),
                        event.shard.shard_id,
                        event.reason,
                    )
                    requeue(event.remaining)

        def replace_worker(lost: PoolEvent) -> None:
            """Count a lost local process; respawn it while work remains."""
            if lost.timed_out:
                self.stats.timeouts += 1
            else:
                self.stats.worker_failures += 1
            if outstanding() > 0:
                replacement = pool.spawn()
                log.warning(
                    "worker %d %s; spawned replacement worker %d",
                    lost.worker_id,
                    lost.reason,
                    replacement.worker_id,
                )

        try:
            while outstanding() > 0:
                now = perf_counter()
                if delayed:
                    due = [shard for when, shard in delayed if when <= now]
                    delayed[:] = [
                        (when, shard) for when, shard in delayed if when > now
                    ]
                    ready.extend(due)
                remote_alive = remote is not None and remote.live_count() > 0
                if len(pool) == 0 and not remote_alive and (ready or delayed):
                    # Every worker died while work remains (possible when
                    # respawns were skipped at the very end of the drain).
                    # In serve-only mode, hold off until the first remote
                    # worker has ever joined: before that, the queue is
                    # simply waiting for connections, not degraded.
                    if remote is None or remote.ever_registered > 0:
                        pool.spawn()
                for worker in pool.idle_workers():
                    if not ready:
                        break
                    shard = ready.pop(0)
                    if shard.preferred_worker != worker.worker_id:
                        self.stats.steals += 1
                        log.debug(
                            "worker %d stole shard %d from worker %d",
                            worker.worker_id,
                            shard.shard_id,
                            shard.preferred_worker,
                        )
                    pool.assign(worker, shard)

                if remote is not None:
                    while ready:
                        target = remote.next_idle_worker()
                        if target is None:
                            break
                        shard = ready.pop(0)
                        if not remote.dispatch(target, shard):
                            ready.insert(0, shard)  # worker reaped on send
                            break

                watch = pool.wait_channels()
                if remote is not None:
                    # Wake immediately on remote traffic too; otherwise a
                    # serve-only run pays up to a tick of latency per frame.
                    watch += remote.wait_channels()
                if watch:
                    connection_wait(watch, timeout=_TICK_S)
                else:
                    sleep(_TICK_S)

                for event in pool.poll():
                    handle(event)
                    if event.kind == MSG_LOST:
                        replace_worker(event)
                if remote is not None:
                    for event in remote.poll():
                        handle(event)
        finally:
            pool.shutdown()

        if failed:
            raise JobFailedError(failed)
        return results


def default_workers() -> int:
    """Worker count when none is requested: every available core."""
    return os.cpu_count() or 1
