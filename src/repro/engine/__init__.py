"""Parallel experiment engine.

The engine decouples *what* to simulate from *how* the simulations are
executed and *where* their results live:

* :mod:`repro.engine.jobs` — :class:`SimulationJob`, a picklable spec that
  captures one simulation (config, workload, cycles, warmup, seed) and
  whose :meth:`~SimulationJob.key` — the sha256 of that plain form — is the
  one identity every memo, store, wire check and trace name uses,
* :mod:`repro.engine.executor` — :class:`SerialExecutor` and
  :class:`ParallelExecutor`, which run job batches deterministically (the
  parallel fan-out produces results identical to serial execution for any
  worker count),
* :mod:`repro.engine.queue` — the work-stealing shard queue behind the
  parallel executor: cost-balanced shard planning, per-job timeout and
  bounded retry with exponential backoff, and worker-death recovery (an
  in-flight shard is re-queued and a replacement worker spawned, so the
  run completes with a warning instead of crashing),
* :mod:`repro.engine.store` and :mod:`repro.engine.sqlite_store` — the
  :class:`ResultStore` interface, the in-process :class:`InMemoryStore`
  and the one persistent store, the WAL-mode concurrent-safe
  :class:`SqliteStore`, all keyed by job key, so results persist
  across processes, benchmarks and CI runs and a killed run resumes from
  the store with zero re-simulation,
* :mod:`repro.engine.remote` — multi-host fan-out: a TCP shard-dispatch
  coordinator (``--serve HOST:PORT``) and the ``repro worker`` runtime,
  speaking a length-prefixed JSON protocol, so sweep throughput scales
  with hosts while results stay bit-identical to a serial run,
* :mod:`repro.engine.progress` — job-level progress events and callbacks.

The :class:`~repro.sim.runner.ExperimentRunner` plans job batches and
submits them through an executor; the CLI (``python -m repro``) wires a
:class:`SqliteStore` underneath so figure-level sweeps warm a shared
on-disk cache.
"""

from repro.engine.executor import (
    ExecutorStats,
    JobExecutor,
    ParallelExecutor,
    SerialExecutor,
)
from repro.engine.jobs import SimulationJob, execute_job
from repro.engine.progress import (
    JobEvent,
    ProgressCallback,
    ProgressCollector,
    ProgressPrinter,
)
from repro.engine.queue import (
    CostModel,
    JobFailedError,
    Shard,
    ShardDispatcher,
    plan_shards,
)
from repro.engine.remote import (
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    RemoteCoordinator,
    parse_hostport,
    run_worker,
)
from repro.engine.sqlite_store import SqliteStore, copy_store
from repro.engine.store import InMemoryStore, ResultStore

__all__ = [
    "SimulationJob",
    "execute_job",
    "JobExecutor",
    "SerialExecutor",
    "ParallelExecutor",
    "ExecutorStats",
    "JobFailedError",
    "Shard",
    "ShardDispatcher",
    "CostModel",
    "plan_shards",
    "RemoteCoordinator",
    "FrameDecoder",
    "FrameError",
    "PROTOCOL_VERSION",
    "parse_hostport",
    "run_worker",
    "JobEvent",
    "ProgressCallback",
    "ProgressCollector",
    "ProgressPrinter",
    "ResultStore",
    "InMemoryStore",
    "SqliteStore",
    "copy_store",
]
