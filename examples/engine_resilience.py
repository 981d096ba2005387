"""Resilience drill: kill -9 a worker mid-run, finish anyway, resume free.

The experiment engine's work-stealing dispatcher promises graceful
degradation: when a worker process dies mid-shard, the unfinished jobs
are re-queued, a replacement worker is spawned, and the run completes
with results identical to a serial execution.  This drill proves it the
hard way — a progress hook SIGKILLs a live worker as soon as the first
simulation lands — then exercises the second half of the promise: a
WAL-mode :class:`~repro.engine.sqlite_store.SqliteStore` committed every
result incrementally, so a follow-up run against the same store replays the
whole batch from the store with **zero** new simulations.

Run with:  python examples/engine_resilience.py

Exits non-zero if any resilience property is violated, so CI runs this
script as an assertion, not a demo.
"""

import os
import signal
import tempfile
from pathlib import Path

from repro.config.presets import paper_system
from repro.engine import ParallelExecutor, SerialExecutor, SqliteStore
from repro.engine.progress import SOURCE_SIMULATED
from repro.sim.runner import ExperimentRunner
from repro.workloads.mixes import make_workload_category

MECHANISMS = ("none", "refab", "refpb", "darp", "sarppb", "dsarp")
CYCLES = 6000
WARMUP = 800


def run_comparison(runner: ExperimentRunner):
    config = paper_system(density_gb=32)
    workload = make_workload_category(category=100, index=0, num_cores=8)
    return runner.compare(workload, config, MECHANISMS)


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        store_path = Path(scratch) / "resilience.sqlite"

        # -- serial reference: what the answer must look like -------------
        reference = run_comparison(ExperimentRunner(cycles=CYCLES, warmup=WARMUP))

        # -- parallel run with a mid-run worker kill ----------------------
        executor = ParallelExecutor(workers=2)
        victim = {"pid": None}

        def assassin(event) -> None:
            # On the first completed simulation, SIGKILL a live worker —
            # the harshest failure mode: no cleanup, no goodbye message.
            if victim["pid"] is None and event.source == SOURCE_SIMULATED:
                pids = executor.worker_pids()
                if pids:
                    victim["pid"] = pids[0]
                    os.kill(victim["pid"], signal.SIGKILL)

        runner = ExperimentRunner(
            cycles=CYCLES,
            warmup=WARMUP,
            executor=executor,
            store=SqliteStore(store_path),
            progress=assassin,
        )
        survived = run_comparison(runner)

        stats = executor.stats
        print(
            f"killed worker pid {victim['pid']}: run completed with "
            f"{stats.worker_failures} worker failure(s), "
            f"{stats.shards} shards ({stats.steals} stolen)"
        )
        assert victim["pid"] is not None, "assassin never fired"
        assert stats.worker_failures >= 1, "worker death went unnoticed"
        assert survived == reference, "degraded run changed results"
        print("results identical to the serial reference")

        # -- resume: the store replays everything, nothing simulates ------
        resumed_runner = ExperimentRunner(
            cycles=CYCLES,
            warmup=WARMUP,
            executor=SerialExecutor(),
            store=SqliteStore(store_path),
        )
        resumed = run_comparison(resumed_runner)
        summary = resumed_runner.summary()
        print(
            f"resume replayed {summary['store_hits']} results from the store "
            f"({summary['simulated']} simulated)"
        )
        assert resumed == reference, "resumed run changed results"
        assert summary["simulated"] == 0, "resume re-simulated finished jobs"
        print("resilience drill passed")


if __name__ == "__main__":
    main()
