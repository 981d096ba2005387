"""Command-line interface for running the paper's experiments.

``python -m repro run <experiment>`` executes any figure- or table-level
experiment through the parallel engine, ``python -m repro sweep``
executes a declarative design-space sweep, and ``python -m repro bench``
drives the performance-benchmark suite and its regression gate::

    python -m repro list
    python -m repro run figure12 --workers 4 --store results/cache.sqlite
    python -m repro run table3 --cycles 8000 --output table3.json
    python -m repro sweep examples/sweep_spec.json --workers 4 \
        --store results/cache.sqlite --out results/sweeps/example
    python -m repro sweep examples/sweep_spec.json --serve 0.0.0.0:7351 \
        --min-workers 2 --store results/cache.sqlite
    python -m repro worker --connect coordinator-host:7351 --workers 8
    python -m repro store compact results/cache.sqlite
    python -m repro bench run --tier quick --workers 4 --json bench.json
    python -m repro bench compare benchmarks/baseline.json bench.json \
        --max-regression 25%
    python -m repro report paper --store results/cache.sqlite --out paper/
    python -m repro report trend --history benchmarks/history
    python -m repro report run traces/ --profile profile.json --out report/

``--workers N`` fans simulations out over N worker processes (results are
identical to a serial run).  ``--store PATH`` persists every simulation
result to a SQLite store keyed by job key; a second invocation
against the same store performs zero new simulations, which the run summary
reports explicitly.  A file that is not such a store (a JSON-lines store
from before SQLite was the only format, say) is refused with an
``error:`` line and exit code 2.

The CLI is also installed as the ``repro`` console script (see
``pyproject.toml``), so ``repro list`` works without ``python -m``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Optional, TextIO

from repro.config.controller_config import PAGE_POLICIES, PAGE_POLICY_DESCRIPTIONS
from repro.config.obs_config import ObsConfig
from repro.config.serialize import canonical
from repro.config.system import SystemConfig
from repro.controller.policies import scheduler_descriptions, scheduler_names
from repro.engine.executor import JobExecutor, ParallelExecutor, SerialExecutor
from repro.engine.progress import SOURCE_SIMULATED, JobEvent, ProgressPrinter
from repro.engine.sqlite_store import SqliteStore, copy_store
from repro.sim.experiments import ExperimentScale
from repro.sim.registry import EXPERIMENTS, builtin_specs
from repro.sim.runner import ExperimentRunner
from repro.sweep import (
    SpecError,
    SweepSpec,
    describe_plan,
    plan_sweep,
    run_sweep,
    summarize,
    write_run_dir,
)


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _fraction(text: str) -> float:
    """Parse a regression threshold: ``10%``, ``0.10`` and ``25%`` all work."""
    raw = text.strip()
    try:
        if raw.endswith("%"):
            value = float(raw[:-1]) / 100.0
        else:
            value = float(raw)
            if value > 1:
                # A bare 25 almost certainly means 25%, not a 2500%
                # threshold that would disable the gate; make the caller
                # say which one they want.
                raise argparse.ArgumentTypeError(
                    f"ambiguous threshold {text!r}: write {raw}% for a "
                    f"percentage or a fraction <= 1 (e.g. {float(raw) / 100})"
                )
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a fraction (0.25) or percentage (25%), got {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"threshold must be positive, got {text!r}")
    return value


def _nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _hostport(text: str) -> tuple[str, int]:
    from repro.engine.remote import parse_hostport

    try:
        return parse_hostport(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _density_list(text: str) -> tuple[int, ...]:
    try:
        densities = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers (e.g. 8,16,32), got {text!r}"
        ) from None
    if not densities:
        raise argparse.ArgumentTypeError("expected at least one density")
    if any(density < 1 for density in densities):
        raise argparse.ArgumentTypeError(
            f"densities must be positive Gb counts, got {text!r}"
        )
    return densities


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """Options shared by every simulating subcommand (``run``, ``sweep``)."""
    parser.add_argument(
        "--workers",
        type=_nonnegative_int,
        default=1,
        help=(
            "worker processes for the simulation fan-out (default: 1, "
            "serial; 0 is allowed only with --serve and means serve-only)"
        ),
    )
    parser.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help=(
            "SQLite result store shared across runs (created if missing; "
            "WAL mode, safe under concurrent writers); a rerun replays "
            "completed jobs from it and simulates only missing ones"
        ),
    )
    parser.add_argument(
        "--max-retries",
        type=_nonnegative_int,
        default=2,
        metavar="N",
        help=(
            "times a failed or timed-out job is retried with exponential "
            "backoff before the run fails (default: 2)"
        ),
    )
    parser.add_argument(
        "--job-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help=(
            "kill and retry any single job running longer than this "
            "(default: no timeout)"
        ),
    )
    parser.add_argument(
        "--serve",
        type=_hostport,
        default=None,
        metavar="HOST:PORT",
        help=(
            "open a TCP coordinator so remote 'repro worker' processes "
            "can join the shard queue (port 0 picks an ephemeral port; "
            "--workers 0 runs every job remotely)"
        ),
    )
    parser.add_argument(
        "--min-workers",
        type=_nonnegative_int,
        default=0,
        metavar="K",
        help=(
            "with --serve: wait for K remote workers to connect before "
            "dispatching the first batch (default: 0, start immediately)"
        ),
    )
    parser.add_argument(
        "--cycles",
        type=_positive_int,
        default=None,
        help="measured window in DRAM cycles",
    )
    parser.add_argument(
        "--warmup",
        type=_nonnegative_int,
        default=None,
        help="warmup window in DRAM cycles",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="simulation seed (default: 0)"
    )
    parser.add_argument(
        "--kernel",
        choices=SystemConfig.KERNELS,
        default=None,
        help=(
            "execution kernel: 'event' skips provably idle cycles in one "
            "jump, 'cycle' is the legacy per-cycle loop; both produce "
            "bit-identical results (default: the config's kernel, 'event')"
        ),
    )
    parser.add_argument(
        "--scheduler",
        choices=scheduler_names(),
        default=None,
        help=(
            "demand-scheduling policy applied to every simulated "
            "configuration (default: the config's, 'frfcfs')"
        ),
    )
    parser.add_argument(
        "--page-policy",
        choices=PAGE_POLICIES,
        default=None,
        help=(
            "page-management policy applied to every simulated "
            "configuration (default: the config's, 'closed')"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print one line per completed simulation job",
    )
    parser.add_argument(
        "--trace",
        metavar="DIR",
        default=None,
        help=(
            "write a command-stream trace per freshly simulated job into "
            "this directory (summarize with 'repro trace summarize'); "
            "cache/store hits skip simulation and write no trace"
        ),
    )
    parser.add_argument(
        "--trace-format",
        choices=ObsConfig.TRACE_FORMATS,
        default="jsonl",
        help="on-disk trace format (default: jsonl)",
    )
    parser.add_argument(
        "--epoch-interval",
        type=_positive_int,
        metavar="CYCLES",
        default=None,
        help=(
            "sample queue depths, occupancy and IPC every N cycles; the "
            "samples ride in the trace header (requires --trace to be "
            "persisted)"
        ),
    )


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    """Experiment-scale options shared by ``run``, ``profile``, ``report``."""
    parser.add_argument(
        "--workloads-per-category",
        type=_positive_int,
        default=None,
        help="workloads per intensity category for the sweep experiments",
    )
    parser.add_argument(
        "--sensitivity-workloads",
        type=_positive_int,
        default=None,
        help="workload count for the sensitivity experiments",
    )
    parser.add_argument(
        "--densities",
        type=_density_list,
        default=None,
        help="comma-separated DRAM densities in Gb (default: 8,16,32)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the HPCA'14 DSARP reproduction experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "list", help="list the available experiments and built-in sweeps"
    )

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS),
        help="which figure/table to reproduce",
    )
    _add_engine_arguments(run_parser)
    _add_scale_arguments(run_parser)
    run_parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the experiment result JSON to a file instead of stdout",
    )

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run a declarative design-space sweep from a spec",
        description=(
            "Execute a multi-axis design-space sweep described by a JSON "
            "SweepSpec file (or a built-in spec name; see 'repro list'), "
            "then write a run directory with the spec, the per-cell results "
            "and a Pareto/sensitivity summary."
        ),
    )
    sweep_parser.add_argument(
        "spec",
        help="path to a SweepSpec JSON file, or a built-in spec name",
    )
    _add_engine_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help=(
            "artifact directory for spec.json / results.jsonl / summary.md "
            "(default: results/sweeps/<spec name>)"
        ),
    )
    sweep_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print what the spec expands to without simulating",
    )

    bench_parser = subparsers.add_parser(
        "bench",
        help="run the performance-benchmark suite and its regression gate",
        description=(
            "Drive the declarative benchmark registry (repro.bench): list "
            "the registered benchmarks, run a tier and emit a "
            "schema-versioned BENCH_<date>.json document, or compare two "
            "documents and fail on wall-clock regressions or fidelity drift."
        ),
    )
    bench_subparsers = bench_parser.add_subparsers(dest="bench_command", required=True)

    bench_subparsers.add_parser("list", help="list the registered benchmarks")

    bench_run = bench_subparsers.add_parser(
        "run", help="run a benchmark tier and write the JSON document"
    )
    bench_run.add_argument(
        "--tier",
        choices=("quick", "full"),
        default="quick",
        help=(
            "quick runs the CI-sized suite; full additionally runs the "
            "full-window benchmarks (default: quick)"
        ),
    )
    bench_run.add_argument(
        "--only",
        metavar="NAME",
        action="append",
        default=None,
        help="run only this registered benchmark (repeatable)",
    )
    bench_run.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help=(
            "write the result document here (default: "
            "BENCH_<date>.json in the bench artifact directory)"
        ),
    )
    bench_run.add_argument(
        "--no-txt",
        action="store_true",
        help="skip writing the per-benchmark text artifacts",
    )
    bench_run.add_argument(
        "--history",
        metavar="DIR",
        default=None,
        help=(
            "also append the result document to this history directory as "
            "BENCH_<timestamp>.json ('repro report trend' reads the "
            "trajectory; the repo commits benchmarks/history/)"
        ),
    )
    _add_engine_arguments(bench_run)

    bench_compare = bench_subparsers.add_parser(
        "compare",
        help="diff a current benchmark document against a baseline",
    )
    bench_compare.add_argument("baseline", help="baseline BENCH_*.json document")
    bench_compare.add_argument("current", help="current BENCH_*.json document")
    bench_compare.add_argument(
        "--max-regression",
        type=_fraction,
        default=None,
        help=(
            "allowed wall-clock regression as a fraction or percentage "
            "(e.g. 0.25 or 25%%; default: 10%%); per-benchmark overrides "
            "in the baseline still apply"
        ),
    )
    bench_compare.add_argument(
        "--noise-floor",
        type=_nonnegative_float,
        metavar="SECONDS",
        default=None,
        help="wall times under this floor are never gated (default: 0.05)",
    )
    bench_compare.add_argument(
        "--fidelity-tolerance",
        type=_nonnegative_float,
        default=None,
        help="allowed relative drift in fidelity metrics (default: 1e-9)",
    )
    bench_compare.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="also write the markdown regression report to a file",
    )

    worker_parser = subparsers.add_parser(
        "worker",
        help="serve this host's cores to a remote sweep coordinator",
        description=(
            "Connect to a coordinator started with 'repro run/sweep ... "
            "--serve HOST:PORT' and execute its shards on local worker "
            "processes.  Results stream back over the same length-prefixed "
            "JSON protocol and are committed by the coordinator, so the "
            "sweep output is bit-identical to a local run.  The worker "
            "exits when the coordinator shuts down or the link drops."
        ),
    )
    worker_parser.add_argument(
        "--connect",
        type=_hostport,
        required=True,
        metavar="HOST:PORT",
        help="coordinator address (the --serve address of the sweep)",
    )
    worker_parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="simulation processes to serve from this host (default: 1)",
    )
    worker_parser.add_argument(
        "--heartbeat",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="heartbeat interval to the coordinator (default: 2)",
    )
    worker_parser.add_argument(
        "--connect-timeout",
        type=_positive_float,
        default=30.0,
        metavar="SECONDS",
        help=(
            "keep retrying the TCP connect this long, so workers may "
            "start before the coordinator (default: 30)"
        ),
    )

    store_parser = subparsers.add_parser(
        "store",
        help="inspect, copy and compact result stores",
        description=(
            "Maintain the SQLite result stores behind "
            "--store: 'stat' summarizes a store, 'copy' merges every "
            "result of one store into another, and 'compact' checkpoints "
            "the WAL and VACUUMs a store in place."
        ),
    )
    store_subparsers = store_parser.add_subparsers(dest="store_command", required=True)
    store_stat = store_subparsers.add_parser(
        "stat", help="summarize a result store"
    )
    store_stat.add_argument("path", help="store file")
    store_copy = store_subparsers.add_parser(
        "copy", help="copy every result from one store into another"
    )
    store_copy.add_argument("source", help="store to read")
    store_copy.add_argument("destination", help="store to write (created if missing)")
    store_compact = store_subparsers.add_parser(
        "compact",
        help="checkpoint the WAL and VACUUM a store in place",
    )
    store_compact.add_argument("path", help="store file")

    trace_parser = subparsers.add_parser(
        "trace",
        help="analyze command-stream traces written with --trace",
        description=(
            "Analyze trace files produced by 'repro run ... --trace DIR': "
            "reconstruct refresh-access overlap windows, per-bank "
            "utilization and row-hit runs, and cross-check the trace "
            "totals against the run's aggregate statistics."
        ),
    )
    trace_subparsers = trace_parser.add_subparsers(dest="trace_command", required=True)
    trace_summarize = trace_subparsers.add_parser(
        "summarize", help="summarize one or more trace files"
    )
    trace_summarize.add_argument(
        "paths", nargs="+", metavar="TRACE", help="trace file(s), jsonl or binary"
    )
    trace_summarize.add_argument(
        "--json",
        action="store_true",
        help="emit the full structured summary as JSON instead of text",
    )

    profile_parser = subparsers.add_parser(
        "profile",
        help="run one experiment with span profiling and print hot spots",
        description=(
            "Run an experiment with wall-clock span profiling enabled "
            "(kernel steps, controller horizon scans, per-job engine time) "
            "and print the sorted hot-spot table."
        ),
    )
    profile_parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS),
        help="which figure/table to profile",
    )
    _add_engine_arguments(profile_parser)
    _add_scale_arguments(profile_parser)
    profile_parser.add_argument(
        "--top",
        type=_positive_int,
        default=20,
        help="rows to show in the hot-spot table (default: 20)",
    )
    profile_parser.add_argument(
        "--json",
        action="store_true",
        help=(
            "emit a machine-readable repro.obs.profile JSON document "
            "(spans + engine summary) instead of the text table; feed it "
            "to 'repro report run --profile'"
        ),
    )

    report_parser = subparsers.add_parser(
        "report",
        help="generate paper artifacts, bench trend and run reports",
        description=(
            "Generate publishable report bundles: 'paper' regenerates the "
            "Table 2-6 / Figure 5-16 artifacts (markdown, LaTeX, SVG, "
            "canonical JSON) from the result store with a golden-fixture "
            "crosscheck; 'trend' renders per-benchmark trajectories over "
            "the committed benchmarks/history/ snapshots with drift "
            "flagging; 'run' stitches trace summaries, epoch IPC "
            "trajectories and profile hot spots into one document."
        ),
    )
    report_subparsers = report_parser.add_subparsers(
        dest="report_command", required=True
    )

    report_paper = report_subparsers.add_parser(
        "paper", help="regenerate the paper's table/figure artifacts"
    )
    _add_engine_arguments(report_paper)
    _add_scale_arguments(report_paper)
    report_paper.add_argument(
        "--out",
        metavar="DIR",
        default="results/report/paper",
        help="artifact output directory (default: results/report/paper)",
    )
    report_paper.add_argument(
        "--artifacts",
        metavar="NAME",
        action="append",
        default=None,
        help="generate only this artifact, e.g. table2 (repeatable)",
    )
    report_paper.add_argument(
        "--no-crosscheck",
        action="store_true",
        help="skip the golden-fixture crosscheck",
    )

    report_trend = report_subparsers.add_parser(
        "trend", help="render benchmark trajectories from committed history"
    )
    report_trend.add_argument(
        "--history",
        metavar="DIR",
        default="benchmarks/history",
        help="history snapshot directory (default: benchmarks/history)",
    )
    report_trend.add_argument(
        "--current",
        metavar="PATH",
        default=None,
        help="uncommitted BENCH_*.json to append as the newest snapshot",
    )
    report_trend.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="also write trend.md / trend.json / sparkline SVGs here",
    )
    report_trend.add_argument(
        "--fail-on-drift",
        action="store_true",
        help="exit 1 when the latest snapshot fails the compare gate",
    )

    report_run = report_subparsers.add_parser(
        "run", help="stitch traces, epochs and a profile into one report"
    )
    report_run.add_argument(
        "traces",
        nargs="*",
        metavar="TRACE",
        help="trace files or directories of traces (written with --trace)",
    )
    report_run.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help="repro.obs.profile JSON document (from 'repro profile --json')",
    )
    report_run.add_argument(
        "--out",
        metavar="DIR",
        default="results/report/run",
        help="output directory for report.md / report.html",
    )
    report_run.add_argument(
        "--title", default="Run report", help="report document title"
    )
    return parser


def _build_scale(args: argparse.Namespace) -> ExperimentScale:
    scale = ExperimentScale.from_environment()
    overrides = {}
    if args.workloads_per_category is not None:
        overrides["workloads_per_category"] = args.workloads_per_category
    if args.sensitivity_workloads is not None:
        overrides["sensitivity_workloads"] = args.sensitivity_workloads
    if args.densities is not None:
        overrides["densities"] = args.densities
    return dataclasses.replace(scale, **overrides) if overrides else scale


def _build_runner(
    args: argparse.Namespace, stderr: TextIO, policy_overrides: bool = True
) -> ExperimentRunner:
    """Assemble the engine stack (executor, store, progress) from CLI args.

    ``policy_overrides=False`` keeps ``--scheduler`` / ``--page-policy``
    out of the runner: the sweep path applies them to the spec's ``base``
    instead (see :func:`_apply_policy_flags`), so a swept
    ``scheduler``/``page_policy`` axis is never silently clobbered by a
    blanket per-job override.
    """
    store = None
    if args.store:
        try:
            store = SqliteStore(args.store)
        except (OSError, ValueError) as error:
            stderr.write(f"error: {error}\n")
            raise SystemExit(2)
        stderr.write(f"store: {store.path} ({len(store)} cached results)\n")
    max_retries = getattr(args, "max_retries", 2)
    job_timeout = getattr(args, "job_timeout", None)
    serve = getattr(args, "serve", None)
    min_workers = getattr(args, "min_workers", 0)
    if serve is None and args.workers == 0:
        stderr.write("error: --workers 0 (serve-only) requires --serve\n")
        raise SystemExit(2)
    if serve is None and min_workers > 0:
        stderr.write("error: --min-workers requires --serve\n")
        raise SystemExit(2)
    if serve is not None or args.workers > 1 or job_timeout is not None:
        executor: JobExecutor = ParallelExecutor(
            workers=args.workers,
            max_retries=max_retries,
            job_timeout=job_timeout,
            serve=serve,
            min_workers=min_workers,
        )
        if executor.coordinator is not None:
            stderr.write(
                f"serving shards on "
                f"{executor.coordinator.host}:{executor.coordinator.port}"
                + (
                    f" (waiting for {min_workers} worker"
                    f"{'s' if min_workers != 1 else ''})\n"
                    if min_workers
                    else "\n"
                )
            )
    else:
        executor = SerialExecutor()
    obs = None
    if getattr(args, "trace", None) or getattr(args, "epoch_interval", None):
        obs = ObsConfig(
            trace=bool(args.trace),
            trace_dir=args.trace,
            trace_format=args.trace_format,
            epoch_interval=args.epoch_interval or 0,
        )
    return ExperimentRunner(
        cycles=args.cycles,
        warmup=args.warmup,
        seed=args.seed,
        executor=executor,
        store=store,
        progress=ProgressPrinter(stream=stderr) if args.progress else None,
        kernel=args.kernel,
        scheduler=args.scheduler if policy_overrides else None,
        page_policy=args.page_policy if policy_overrides else None,
        obs=obs,
    )


def _write_run_summary(
    runner: ExperimentRunner,
    args: argparse.Namespace,
    stderr: TextIO,
    label: str = "run summary",
) -> None:
    summary = runner.summary()
    stderr.write(
        f"{label}: {summary['jobs']} jobs planned — "
        f"{summary['simulated']} simulated, "
        f"{summary['store_hits']} store hits, "
        f"{summary['memory_hits']} memory hits "
        f"({summary['elapsed_s']:.2f}s in engine"
        f", {args.workers} worker{'s' if args.workers != 1 else ''})\n"
    )
    remote_workers = summary.get("remote_workers", 0)
    reassignments = summary.get("reassignments", 0)
    if remote_workers or getattr(args, "serve", None) is not None:
        stderr.write(
            f"remote: {remote_workers} worker"
            f"{'s' if remote_workers != 1 else ''} joined, "
            f"{summary.get('bytes_sent', 0)} bytes sent / "
            f"{summary.get('bytes_received', 0)} received, "
            f"{reassignments} shard reassignment"
            f"{'s' if reassignments != 1 else ''}\n"
        )
    failures = summary.get("worker_failures", 0)
    timeouts = summary.get("timeouts", 0)
    retries = summary.get("retries", 0)
    if failures or timeouts or retries or reassignments:
        stderr.write(
            f"warning: run completed with degradation — {failures} worker "
            f"failure{'s' if failures != 1 else ''}, {timeouts} "
            f"timeout{'s' if timeouts != 1 else ''}, {retries} retried "
            f"job{'s' if retries != 1 else ''}, {reassignments} reassigned "
            f"shard{'s' if reassignments != 1 else ''}\n"
        )
    if runner.store is not None:
        stderr.write(
            f"store: {runner.store.path} now holds {len(runner.store)} results\n"
        )
    shutdown = getattr(runner.executor, "shutdown_remote", None)
    if callable(shutdown):
        shutdown()


def _run_command(args: argparse.Namespace, stdout: TextIO, stderr: TextIO) -> int:
    runner = _build_runner(args, stderr)
    result = EXPERIMENTS[args.experiment].run(runner, _build_scale(args))

    payload = json.dumps(canonical(result), indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        stderr.write(f"result written to {args.output}\n")
    else:
        stdout.write(payload + "\n")

    _write_run_summary(runner, args, stderr)
    return 0


def _load_sweep_spec(text: str) -> SweepSpec:
    """Resolve the ``sweep`` positional: a spec file, run dir or builtin name."""
    if os.path.isdir(text):
        # Run directories are advertised as re-runnable; accept the
        # directory itself and use the spec it contains.
        candidate = os.path.join(text, "spec.json")
        if not os.path.exists(candidate):
            raise SpecError(f"{text!r} is a directory without a spec.json")
        return SweepSpec.load(candidate)
    if os.path.exists(text):
        return SweepSpec.load(text)
    builtins = builtin_specs(ExperimentScale.from_environment())
    if text in builtins:
        return builtins[text]
    raise SpecError(
        f"{text!r} is neither a spec file nor a built-in sweep "
        f"(built-ins: {', '.join(sorted(builtins))})"
    )


def _apply_policy_flags(spec, scheduler: Optional[str], page_policy: Optional[str]):
    """Fold ``--scheduler`` / ``--page-policy`` into a sweep spec's ``base``.

    ``base`` knobs are overridden by axis values during compilation, so a
    spec that *sweeps* ``scheduler`` or ``page_policy`` keeps its axis
    intact — the flags only change the default for specs that do not
    sweep that knob.  (A per-job runner override would instead rewrite
    every compiled cell, silently collapsing the swept axis.)
    """
    if scheduler is None and page_policy is None:
        return spec
    base = dict(spec.base)
    if scheduler is not None:
        base["scheduler"] = scheduler
    if page_policy is not None:
        base["page_policy"] = page_policy
    return dataclasses.replace(spec, base=base)


def _sweep_command(args: argparse.Namespace, stdout: TextIO, stderr: TextIO) -> int:
    try:
        spec = _apply_policy_flags(
            _load_sweep_spec(args.spec), args.scheduler, args.page_policy
        )
        # Build every point before --dry-run approves the spec or anything
        # simulates: a spec can parse and still name an impossible point.
        plan_sweep(spec)
    except (SpecError, OSError) as error:
        stderr.write(f"error: {error}\n")
        return 2
    stderr.write(describe_plan(spec) + "\n")
    if args.dry_run:
        return 0

    runner = _build_runner(args, stderr, policy_overrides=False)
    result = run_sweep(spec, runner=runner)
    summary = summarize(result)

    out_dir = args.out if args.out else os.path.join("results", "sweeps", spec.name)
    written = write_run_dir(out_dir, result, summary=summary)
    stdout.write(summary)
    _write_run_summary(runner, args, stderr)
    stderr.write(f"artifact directory: {written}\n")
    return 0


def _bench_list_command(stdout: TextIO) -> int:
    from repro.bench import all_specs

    specs = all_specs()
    width = max(len(spec.name) for spec in specs)
    stdout.write("registered benchmarks (repro bench run):\n")
    for spec in specs:
        stdout.write(f"  {spec.name:<{width}}  [{spec.tier:5s}]  {spec.description}\n")
    return 0


def _bench_run_command(args: argparse.Namespace, stdout: TextIO, stderr: TextIO) -> int:
    from repro.bench import (
        BenchError,
        all_specs,
        default_json_path,
        get_spec,
        run_specs,
    )

    try:
        if args.only:
            # De-duplicate while preserving order: a repeated --only would
            # otherwise produce duplicate records the document loader rejects.
            specs = [get_spec(name) for name in dict.fromkeys(args.only)]
        else:
            specs = all_specs(args.tier)
    except BenchError as error:
        stderr.write(f"error: {error}\n")
        return 2
    runner = _build_runner(args, stderr)
    document = run_specs(
        specs,
        tier=args.tier,
        runner=runner,
        workers=args.workers,
        log=stderr,
        write_text_artifacts=not args.no_txt,
    )
    json_path = Path(args.json) if args.json else default_json_path()
    document.save(json_path)
    if args.history:
        from repro.bench.run import append_history

        history_path = append_history(args.history, document)
        stderr.write(f"history snapshot appended: {history_path}\n")
    # The summary counts only the runner the benchmarks share; name the
    # ones that planned nothing on it (closed-form, or own engines).
    _write_run_summary(runner, args, stderr, label="shared runner summary")
    elsewhere = [
        record.name for record in document.benchmarks if not record.engine["jobs"]
    ]
    if elsewhere:
        stderr.write(
            f"not in the shared runner summary ({len(elsewhere)} planned no "
            f"jobs on it): {', '.join(elsewhere)}\n"
        )
    failed = [record for record in document.benchmarks if not record.checks_passed]
    stdout.write(
        f"{len(document.benchmarks)} benchmarks run, {len(failed)} failed; "
        f"document written to {json_path}\n"
    )
    for record in failed:
        stdout.write(f"  FAILED {record.name}: {record.error}\n")
    return 1 if failed else 0


def _bench_compare_command(
    args: argparse.Namespace, stdout: TextIO, stderr: TextIO
) -> int:
    from repro.bench import BenchDocument, BenchError, compare_documents

    overrides = {}
    if args.max_regression is not None:
        overrides["max_regression"] = args.max_regression
    if args.noise_floor is not None:
        overrides["noise_floor_s"] = args.noise_floor
    if args.fidelity_tolerance is not None:
        overrides["fidelity_tolerance"] = args.fidelity_tolerance
    try:
        baseline = BenchDocument.load(args.baseline)
        current = BenchDocument.load(args.current)
        comparison = compare_documents(baseline, current, **overrides)
    except (BenchError, OSError) as error:
        stderr.write(f"error: {error}\n")
        return 2
    report = comparison.to_markdown()
    stdout.write(report)
    if args.report:
        report_path = Path(args.report)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(report, encoding="utf-8")
        stderr.write(f"report written to {args.report}\n")
    return 0 if comparison.ok else 1


def _trace_command(args: argparse.Namespace, stdout: TextIO, stderr: TextIO) -> int:
    """``repro trace summarize``: analyze traces, exit 1 on crosscheck failure."""
    from repro.obs.summarize import format_summary, summarize_path

    failures = 0
    payloads = []
    for path in args.paths:
        try:
            summary = summarize_path(path)
        except (OSError, ValueError) as error:
            stderr.write(f"error: {path}: {error}\n")
            return 2
        if args.json:
            payloads.append({"path": str(path), **summary})
        else:
            if len(args.paths) > 1:
                stdout.write(f"== {path} ==\n")
            stdout.write(format_summary(summary))
            if len(args.paths) > 1:
                stdout.write("\n")
        if not summary["crosscheck"]["agrees"]:
            failures += 1
            stderr.write(
                f"crosscheck failed for {path}: trace totals disagree with "
                f"the run's aggregate statistics\n"
            )
    if args.json:
        out = payloads[0] if len(payloads) == 1 else payloads
        stdout.write(json.dumps(canonical(out), indent=2, sort_keys=True) + "\n")
    return 1 if failures else 0


def _profile_command(args: argparse.Namespace, stdout: TextIO, stderr: TextIO) -> int:
    """``repro profile``: run an experiment under the span profiler."""
    import repro.obs.profile as obs_profile

    experiment = EXPERIMENTS[args.experiment]
    runner = _build_runner(args, stderr)
    profiler = obs_profile.enable()
    printer = runner.progress

    def record_job(event: JobEvent) -> None:
        # Each simulated job's wall time: the aggregate engine.job span,
        # and one per label so slow cells stand out in the table.
        if event.source == SOURCE_SIMULATED:
            profiler.add("engine.job", event.elapsed_s)
            profiler.add(f"engine.job:{event.label}", event.elapsed_s)
        if printer is not None:
            printer(event)

    runner.progress = record_job
    try:
        experiment.run(runner, _build_scale(args))
    finally:
        obs_profile.disable()
    _write_run_summary(runner, args, stderr)
    if args.json:
        document = {
            "schema": "repro.obs.profile",
            "version": 1,
            "experiment": args.experiment,
            "spans": profiler.as_dict(),
            "engine": runner.summary(),
        }
        stdout.write(json.dumps(document, indent=2, sort_keys=True) + "\n")
    else:
        stdout.write(profiler.format_table(top=args.top))
    return 0


def _expand_trace_paths(raw: list[str], stderr: TextIO) -> Optional[list[Path]]:
    """Expand trace file/directory arguments; None signals a bad path."""
    paths: list[Path] = []
    for entry in raw:
        path = Path(entry)
        if path.is_dir():
            found = sorted(
                candidate
                for candidate in path.iterdir()
                if candidate.suffix in (".jsonl", ".bin")
            )
            if not found:
                stderr.write(f"warning: no traces found in {path}\n")
            paths.extend(found)
        elif path.exists():
            paths.append(path)
        else:
            stderr.write(f"error: trace {path} does not exist\n")
            return None
    return paths


def _report_paper_command(
    args: argparse.Namespace, stdout: TextIO, stderr: TextIO
) -> int:
    from repro.report.paper import ReportError, generate_paper_report

    runner = _build_runner(args, stderr)
    try:
        report = generate_paper_report(
            args.out,
            runner=runner,
            scale=_build_scale(args),
            names=args.artifacts,
            crosscheck=not args.no_crosscheck,
        )
    except ReportError as error:
        stderr.write(f"error: {error}\n")
        return 2
    _write_run_summary(runner, args, stderr)
    stdout.write(
        f"{len(report.artifacts)} artifacts written to {report.out_dir}\n"
    )
    for check in report.crosschecks:
        line = f"crosscheck {check.fixture}: {check.status}"
        if check.detail:
            line += f" ({check.detail})"
        stdout.write(line + "\n")
    if not report.ok:
        stderr.write("error: golden crosscheck failed; do not publish\n")
        return 1
    return 0


def _report_trend_command(
    args: argparse.Namespace, stdout: TextIO, stderr: TextIO
) -> int:
    from repro.bench import BenchDocument, BenchError
    from repro.report.trend import TrendError, build_trend_report, write_trend_report

    current = None
    try:
        if args.current:
            current = BenchDocument.load(args.current)
        report = build_trend_report(
            args.history,
            current=current,
            current_label=Path(args.current).name if args.current else "<current run>",
        )
    except (TrendError, BenchError, OSError) as error:
        stderr.write(f"error: {error}\n")
        return 2
    stdout.write(report.to_markdown() + "\n")
    if args.out:
        written = write_trend_report(report, args.out)
        stderr.write(f"{len(written)} trend files written to {args.out}\n")
    if args.fail_on_drift and not report.ok:
        return 1
    return 0


def _report_run_command(
    args: argparse.Namespace, stdout: TextIO, stderr: TextIO
) -> int:
    from repro.report.run import build_run_report, write_run_report

    traces = _expand_trace_paths(args.traces, stderr)
    if traces is None:
        return 2
    try:
        report = build_run_report(
            traces, profile_path=args.profile, title=args.title
        )
    except (OSError, ValueError) as error:
        stderr.write(f"error: {error}\n")
        return 2
    written = write_run_report(report, args.out)
    stdout.write(report.to_markdown() + "\n")
    stderr.write(f"{len(written)} report files written to {args.out}\n")
    return 0


def _report_command(args: argparse.Namespace, stdout: TextIO, stderr: TextIO) -> int:
    if args.report_command == "paper":
        return _report_paper_command(args, stdout, stderr)
    if args.report_command == "trend":
        return _report_trend_command(args, stdout, stderr)
    return _report_run_command(args, stdout, stderr)


def _worker_command(args: argparse.Namespace, stdout: TextIO, stderr: TextIO) -> int:
    """``repro worker``: serve local cores to a remote coordinator."""
    from repro.engine.remote import HEARTBEAT_S, run_worker

    host, port = args.connect
    return run_worker(
        host,
        port,
        workers=args.workers,
        heartbeat_s=args.heartbeat if args.heartbeat is not None else HEARTBEAT_S,
        connect_timeout_s=args.connect_timeout,
        stderr=stderr,
    )


def _describe_store(store: SqliteStore) -> str:
    return (
        f"{store.path}: {len(store)} result(s), "
        f"{store.disk_bytes()} bytes on disk"
    )


def _open_existing_store(path: str) -> SqliteStore:
    """The store at ``path``; raises ``ValueError`` if it is missing or
    not a result store (``repro store`` never creates its input)."""
    if not os.path.exists(path):
        raise ValueError(f"{path} does not exist")
    return SqliteStore(path)


def _store_command(args: argparse.Namespace, stdout: TextIO, stderr: TextIO) -> int:
    """``repro store stat|copy|compact``: result-store maintenance."""
    try:
        if args.store_command == "copy":
            source = _open_existing_store(args.source)
            destination = SqliteStore(args.destination)
        else:
            store = _open_existing_store(args.path)
    except (OSError, ValueError) as error:
        stderr.write(f"error: {error}\n")
        return 2
    if args.store_command == "copy":
        copied = copy_store(source, destination)
        stdout.write(
            f"copied {copied} result(s) from {args.source} to "
            f"{args.destination}\n"
        )
        stdout.write(_describe_store(destination) + "\n")
        return 0
    if args.store_command == "stat":
        stdout.write(_describe_store(store) + "\n")
        return 0
    outcome = store.compact()
    stdout.write(
        f"compacted {args.path}: {outcome['records_before']} -> "
        f"{outcome['records_after']} record(s), {outcome['bytes_before']} -> "
        f"{outcome['bytes_after']} bytes\n"
    )
    return 0


def _bench_command(args: argparse.Namespace, stdout: TextIO, stderr: TextIO) -> int:
    if args.bench_command == "list":
        return _bench_list_command(stdout)
    if args.bench_command == "run":
        return _bench_run_command(args, stdout, stderr)
    return _bench_compare_command(args, stdout, stderr)


def main(
    argv: Optional[list[str]] = None,
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    """CLI entry point; returns the process exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    args = _build_parser().parse_args(argv)
    try:
        code = _dispatch(args, stdout, stderr)
        stdout.flush()
    except BrokenPipeError:
        # The reader went away (``repro list | head -1``).  Python's
        # documented recipe: point stdout at devnull so the interpreter's
        # exit-time flush cannot raise again, and exit non-zero.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


def _list_command(stdout: TextIO) -> int:
    sweeps = builtin_specs(ExperimentScale.from_environment())
    width = max(len(name) for name in [*EXPERIMENTS, *sweeps])
    stdout.write("experiments (repro run <name>):\n")
    for name in sorted(EXPERIMENTS):
        stdout.write(f"  {name:<{width}}  {EXPERIMENTS[name].description}\n")
    stdout.write("\nbuilt-in sweeps (repro sweep <name>):\n")
    for name in sorted(sweeps):
        stdout.write(f"  {name:<{width}}  {sweeps[name].description}\n")
    stdout.write("\nscheduler policies (--scheduler, sweep axis 'scheduler'):\n")
    for name, description in scheduler_descriptions().items():
        stdout.write(f"  {name:<{width}}  {description}\n")
    stdout.write("\npage policies (--page-policy, sweep axis 'page_policy'):\n")
    for name, description in PAGE_POLICY_DESCRIPTIONS.items():
        stdout.write(f"  {name:<{width}}  {description}\n")
    return 0


def _dispatch(args: argparse.Namespace, stdout: TextIO, stderr: TextIO) -> int:
    if args.command == "list":
        return _list_command(stdout)
    if args.command == "sweep":
        return _sweep_command(args, stdout, stderr)
    if args.command == "bench":
        return _bench_command(args, stdout, stderr)
    if args.command == "worker":
        return _worker_command(args, stdout, stderr)
    if args.command == "store":
        return _store_command(args, stdout, stderr)
    if args.command == "trace":
        return _trace_command(args, stdout, stderr)
    if args.command == "profile":
        return _profile_command(args, stdout, stderr)
    if args.command == "report":
        return _report_command(args, stdout, stderr)
    return _run_command(args, stdout, stderr)
