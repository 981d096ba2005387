"""Parallel sweep: fan a mechanism comparison out over worker processes.

Demonstrates the experiment engine underneath the
:class:`~repro.sim.runner.ExperimentRunner`:

* a :class:`~repro.engine.executor.ParallelExecutor` runs the planned
  simulation jobs on several cores (results are identical to a serial
  run, only faster),
* a :class:`~repro.engine.sqlite_store.SqliteStore` persists every result
  keyed by job key, so re-running this script — or any other
  script, benchmark or ``python -m repro`` invocation pointed at the same
  store — performs zero new simulations.

Run with:  python examples/parallel_sweep.py
Then run it again to see the warm-store path.
"""

import os

from repro import ParallelExecutor, SqliteStore, make_workload_category
from repro.config.presets import paper_system
from repro.engine.progress import ProgressPrinter
from repro.sim.runner import ExperimentRunner

MECHANISMS = ("refab", "refpb", "darp", "sarppb", "dsarp", "none")
STORE_PATH = os.path.join("results", "example_cache.sqlite")


def main() -> None:
    store = SqliteStore(STORE_PATH)
    print(f"store: {STORE_PATH} ({len(store)} cached results)")

    runner = ExperimentRunner(
        cycles=12000,
        warmup=1500,
        executor=ParallelExecutor(workers=os.cpu_count()),
        store=store,
        progress=ProgressPrinter(),
    )
    workloads = [
        make_workload_category(category=100, index=i, num_cores=8) for i in range(2)
    ]
    config = paper_system(density_gb=32)

    # One batched call plans every (workload, mechanism) simulation plus the
    # alone runs, and submits them through the engine in one fan-out.
    comparisons = runner.compare_many(workloads, config, MECHANISMS)

    for workload, comparison in zip(workloads, comparisons):
        baseline = comparison.results["refab"].weighted_speedup
        print(f"\n{workload.name}: weighted speedup (vs REFab)")
        for mechanism in MECHANISMS:
            ws = comparison.results[mechanism].weighted_speedup
            print(f"  {mechanism:8s} {ws:7.3f} ({100 * (ws / baseline - 1):+6.1f}%)")

    summary = runner.summary()
    print(
        f"\nrun summary: {summary['jobs']} jobs — "
        f"{summary['simulated']} simulated, {summary['store_hits']} store hits, "
        f"{summary['memory_hits']} memory hits"
    )
    print(f"store now holds {len(store)} results; run me again for a warm start")


if __name__ == "__main__":
    main()
