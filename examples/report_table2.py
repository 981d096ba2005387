"""Regenerate the paper's Table 2 artifact bundle from a result store.

Runs the Table 2 experiment (max / gmean weighted-speedup improvement of
DARP, SARPpb and DSARP over the REFpb and REFab baselines) through a
store-backed :class:`~repro.sim.runner.ExperimentRunner`, then writes the
four artifact renderings — canonical JSON, a markdown pipe table, a
LaTeX ``tabular`` block and an SVG bar chart — plus the report index.

The first invocation simulates and fills ``results/example_store.sqlite``;
rerunning is instant and performs **zero** simulations (watch the
``simulated`` counter), yet produces byte-identical table artifacts —
the property the report subsystem's golden crosscheck builds on.

Run with:  python examples/report_table2.py

The CLI equivalent (all Tables 2-6 and Figures 5-16):

    python -m repro report paper --store results/example_store.sqlite \
        --out results/report/paper
"""

from pathlib import Path

from repro.engine.sqlite_store import SqliteStore
from repro.report import generate_paper_report
from repro.sim.experiments import ExperimentScale
from repro.sim.runner import ExperimentRunner

OUT_DIR = Path("results/report/table2_example")
STORE = Path("results/example_store.sqlite")


def main() -> None:
    # A reduced scale keeps the example quick: one workload per intensity
    # category, two densities, short windows.
    scale = ExperimentScale(
        workloads_per_category=1, sensitivity_workloads=1, densities=(8, 32)
    )
    runner = ExperimentRunner(cycles=1200, warmup=200, store=SqliteStore(STORE))

    report = generate_paper_report(
        OUT_DIR, runner=runner, scale=scale, names=["table2"]
    )

    summary = report.engine_summary
    print(
        f"engine: {summary['jobs']} jobs — {summary['simulated']} simulated, "
        f"{summary['store_hits']} store hits, "
        f"{summary['memory_hits']} memory hits"
    )
    for name, paths in report.artifacts:
        print(f"{name}:")
        for path in paths:
            print(f"  {path}")
    for check in report.crosschecks:
        print(f"golden crosscheck {check.fixture}: {check.status}")
    print((OUT_DIR / "table2.md").read_text())


if __name__ == "__main__":
    main()
