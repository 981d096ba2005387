"""Distributed sweep drill: loopback workers, a mid-sweep kill, a free resume.

The multi-host engine promises that fanning a sweep out over ``repro
worker`` processes changes *where* simulations run and nothing else:
results stay bit-identical to a serial run, a SIGKILLed worker only
degrades the run (its shards are reassigned to survivors), and the
job-keyed store commits every completed result incrementally so
a follow-up run replays the batch with **zero** new simulations.

This drill proves all three on one machine: a serve-only coordinator
(``workers=0``) dispatches every job over loopback TCP to two worker
processes running the same runtime as ``repro worker --connect``, an
assassin hook SIGKILLs one of them as soon as the first result lands,
and the run must still match the serial reference.

In real use the workers live on other hosts:

    host-a$ python -m repro sweep examples/sweep_spec.json \\
                --serve 0.0.0.0:7351 --min-workers 2 --workers 0 \\
                --store results/cache.sqlite
    host-b$ python -m repro worker --connect host-a:7351 --workers 8
    host-c$ python -m repro worker --connect host-a:7351 --workers 8

Run with:  python examples/remote_sweep.py

Exits non-zero if any distributed-dispatch property is violated, so CI
runs this script as an assertion, not a demo.
"""

import multiprocessing
import os
import signal
import tempfile
from pathlib import Path

from repro.config.presets import paper_system
from repro.engine import ParallelExecutor, SerialExecutor, SqliteStore
from repro.engine.progress import SOURCE_SIMULATED
from repro.engine.remote import run_worker
from repro.sim.runner import ExperimentRunner
from repro.workloads.mixes import make_workload_category

MECHANISMS = ("none", "refab", "refpb", "darp", "sarppb", "dsarp")
CYCLES = 6000
WARMUP = 800


def run_comparison(runner: ExperimentRunner):
    config = paper_system(density_gb=32)
    workload = make_workload_category(category=100, index=0, num_cores=8)
    return runner.compare(workload, config, MECHANISMS)


def spawn_worker(port: int) -> multiprocessing.Process:
    """One loopback worker process — the ``repro worker`` runtime."""
    process = multiprocessing.Process(
        target=run_worker, args=("127.0.0.1", port), kwargs={"workers": 1}
    )
    process.start()
    return process


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        store_path = Path(scratch) / "remote.sqlite"

        # -- serial reference: what the answer must look like -------------
        reference = run_comparison(ExperimentRunner(cycles=CYCLES, warmup=WARMUP))

        # -- serve-only sweep over two loopback workers, one SIGKILLed ----
        executor = ParallelExecutor(
            workers=0, serve=("127.0.0.1", 0), min_workers=2
        )
        port = executor.coordinator.port
        workers = [spawn_worker(port), spawn_worker(port)]
        victim = {"pid": None}

        def assassin(event) -> None:
            # On the first completed simulation, SIGKILL one remote
            # worker — no cleanup, no goodbye frame, just a dead socket.
            if victim["pid"] is None and event.source == SOURCE_SIMULATED:
                victim["pid"] = workers[1].pid
                os.kill(workers[1].pid, signal.SIGKILL)

        runner = ExperimentRunner(
            cycles=CYCLES,
            warmup=WARMUP,
            executor=executor,
            store=SqliteStore(store_path),
            progress=assassin,
        )
        try:
            survived = run_comparison(runner)
        finally:
            executor.shutdown_remote()
            for worker in workers:
                worker.join(timeout=30)
                if worker.is_alive():
                    worker.kill()

        stats = executor.stats
        print(
            f"killed worker pid {victim['pid']}: sweep completed with "
            f"{stats.remote_workers} remote worker(s), "
            f"{stats.worker_failures} failure(s), "
            f"{stats.reassignments} reassigned shard(s), "
            f"{stats.bytes_sent} B out / {stats.bytes_received} B in"
        )
        assert victim["pid"] is not None, "assassin never fired"
        assert stats.remote_workers == 2, "a worker never registered"
        assert stats.worker_failures >= 1, "worker death went unnoticed"
        assert stats.reassignments >= 1, "no shard was reassigned"
        assert survived == reference, "distributed run changed results"
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
        print("remote sweep drill passed")


if __name__ == "__main__":
    main()
