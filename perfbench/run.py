"""Benchmark driver for the DARP/SARP/DSARP refresh simulator.

Run from the repository root::

    python3 perfbench/run.py --workload intensive8 --seed 0 --seconds 55 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced runs; ``--trace 1``
runs an untraced and a traced round or pass (and, for the cells, another
untraced round) and prints the per-layer metrics.
The last stdout line is the result object; the line before it is the host
header.  Exit status is 0 when every correctness gate passed, 1 when one
failed, 2 when the workload cannot run here.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: workload -> simulating processes it runs at once.
PROCESSES = {"intensive8": 1, "remote1w": 1}

END_TO_END_UNITS = {
    "sim_cycles_per_s": "1/s",
    "jobs_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in a fixed order."""
    from cells import ALL_MECHANISMS

    units = {
        "sim.run.self_s": "s",
        "sim.kernel.steps": "count",
        "sim.kernel.skip_ratio": "ratio",
        "sim.host_us_per_command": "us",
    }
    for mechanism in ALL_MECHANISMS:
        units[f"sim.cell.{mechanism}.cycles_per_s"] = "1/s"
    units.update(
        {
            "sim.setup.cache_warmup_s": "s",
            "sim.setup.trace_s": "s",
            "sim.setup.memory_s": "s",
            "sim.unattributed_s": "s",
            "cache.hit_ratio": "ratio",
            "controller.memory.tick_event.self_s": "s",
            "controller.fast_path_ratio": "ratio",
            "controller.skip_idle.self_s": "s",
        }
    )
    for span in (
        "cpu.tick",
        "cache.access",
        "workloads.trace",
        "controller.channel.tick_event",
        "controller.channel.tick",
        "controller.access",
        "controller.calendar",
        "controller.policies.select",
        "core.pre_demand",
        "core.post_demand",
        "dram.issue",
        "dram.can_issue",
        "engine.plan",
        "engine.store.put",
        "engine.store.get",
    ):
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    for count in (
        "commands",
        "reads",
        "writes",
        "refreshes",
        "postponed",
        "write_mode_refreshes",
        "subarray_conflicts",
    ):
        units[f"model.{count}"] = "count"
    units.update(
        {
            "engine.job.sum_s": "s",
            "engine.utilization": "ratio",
            "engine.simulated": "count",
            "engine.memory_hits": "count",
            "engine.shards": "count",
            "engine.steals": "count",
            "engine.retries": "count",
            "engine.worker_failures": "count",
            "engine.remote.bytes_per_job": "B/job",
            "engine.remote.bytes_sent": "B",
            "engine.remote.bytes_received": "B",
            "engine.remote.codec.self_s": "s",
            "engine.remote.reassignments": "count",
            "report.cold_s": "s",
            "report.render.self_s": "s",
            "report.warm_s": "s",
            "obs.trace_overhead_pct": "%",
        }
    )
    return units


def host_header(load_before: float, load_after: float) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": load_after,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_cells(name: str, seed: int, seconds: float, trace: bool, pinned: dict):
    import cells
    from spans import SpanTracer

    inputs = cells.cell_inputs(name, seed)
    expected = pinned["cells"][name][str(seed % cells.VARIANTS)]
    if not trace:
        rounds = repeat(lambda: cells.run_round(inputs), seconds)
        attempted, failed = cells.check(rounds, expected)
        return attempted, failed, cells.end_to_end(rounds)
    rounds = [cells.run_round(inputs)]
    tracer = SpanTracer()
    traced, hit_ratio = cells.traced_round(inputs, tracer)
    rounds.append(cells.run_round(inputs))
    attempted, failed = cells.check(rounds + [traced], expected)
    metrics = cells.per_layer(rounds[0], traced, tracer, hit_ratio)
    metrics["obs.trace_overhead_pct"] = overhead_pct(traced, rounds)
    return attempted, failed, metrics


def repeat(unit, seconds: float) -> list:
    """Results of ``unit()``, run at least twice and then again while one
    more run, as fast as the fastest so far, still ends within ``seconds``.

    Metrics take the fastest repeat of each piece, so a run needs two.
    """
    start = perf_counter()
    results, fastest = [], float("inf")
    while len(results) < 2 or perf_counter() - start + fastest <= seconds:
        began = perf_counter()
        results.append(unit())
        fastest = min(fastest, perf_counter() - began)
    return results


def overhead_pct(traced, untraced) -> float:
    """Traced over untraced wall time, in percent.

    The untraced baseline is the mean of the runs before and after the
    traced one, because the host's speed drifts within a process.
    """
    baseline = statistics.fmean(one.wall_s for one in untraced)
    return (traced.wall_s / baseline - 1.0) * 100.0


def run_report(seconds: float, trace: bool, pinned: dict, scratch: Path):
    """Each pass starts its own worker, so every pass is equally cold."""
    import reports
    from spans import SpanTracer

    names = (f"pass{n}" for n in itertools.count())
    if not trace:
        passes = repeat(lambda: reports.run_pass(scratch / next(names), SRC), seconds)
    else:
        # No second untraced pass: three passes could outlast the time
        # limit of a run on a slow host.
        passes = [reports.run_pass(scratch / next(names), SRC)]
        tracer = SpanTracer()
        traced = reports.run_pass(scratch / "traced", SRC, tracer)
    attempted = failed = 0
    for one in passes + ([traced] if trace else []):
        tried, lost = reports.check(one, pinned["report"])
        attempted, failed = attempted + tried, failed + lost
    if not trace:
        return attempted, failed, reports.end_to_end(passes)
    metrics = reports.per_layer(passes[0], traced, tracer)
    metrics["obs.trace_overhead_pct"] = overhead_pct(traced, passes)
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROCESSES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if PROCESSES[args.workload] > nproc:
        print(
            f"perfbench: {args.workload} runs {PROCESSES[args.workload]} "
            f"processes but only {nproc} CPUs are available",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    pinned = json.loads((HERE / "digests.json").read_text())

    load_before = os.getloadavg()[0]
    try:
        if args.workload == "intensive8":
            attempted, failed, metrics = run_cells(
                args.workload, args.seed, args.seconds, bool(args.trace), pinned
            )
        else:
            attempted, failed, metrics = run_report(
                args.seconds, bool(args.trace), pinned, scratch
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    load_after = os.getloadavg()[0]

    if args.trace:
        units = per_layer_units()
        values = {name: metrics.get(name, 0) for name in units}
    else:
        units = END_TO_END_UNITS
        values = dict(metrics, peak_rss_mb=peak_rss_mb())
    print(json.dumps({"host": host_header(load_before, load_after)}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
