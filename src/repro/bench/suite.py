"""The standard benchmark suite.

The paper's tables, figures and ablations are not written out here: one
loop turns every record of the experiment registry
(:data:`repro.sim.registry.EXPERIMENTS`) into a spec.  Its target runs
the experiment through the shared
:class:`~repro.bench.run.BenchContext` runner, ``metrics`` and ``checks``
come from the record, and ``format`` writes the record's tables as the
``results/<name>.txt`` artifact.  The engine, kernel, cache and
observability benchmarks below are written out one by one, because each
builds and times its own engine configuration.

Run any of them with ``repro bench run --only <name>``.

Metric keys are flat strings (``dsarp_gmean_refab_32gb``) so result
documents diff cleanly; only deterministic simulation outputs go into
``metrics`` (compare gates them), while wall-clock-derived numbers
(speedups, cache ratios) go into ``timings`` (recorded, never gated).
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from repro.bench.run import BenchContext
from repro.bench.spec import BenchSpec, register
from repro.config.presets import paper_system
from repro.engine.executor import ParallelExecutor, SerialExecutor
from repro.engine.jobs import SimulationJob
from repro.engine.sqlite_store import SqliteStore
from repro.sim.experiments import ExperimentScale
from repro.sim.registry import EXPERIMENTS, Experiment
from repro.sim.runner import DEFAULT_CYCLES, DEFAULT_WARMUP, ExperimentRunner
from repro.sim.simulator import Simulator
from repro.sweep import Axis, SweepSpec, WorkloadSpec, run_sweep
from repro.workloads.benchmark_suite import MB, Benchmark, get_benchmark
from repro.workloads.mixes import make_workload, make_workload_category


def _full_window(context: BenchContext) -> bool:
    """Whether the paper-trend assertions are meaningful for this run.

    The trend checks encode full-window behavior (DSARP beating REFpb,
    benefits growing with density, ...).  Under a reduced ``REPRO_CYCLES``
    window — the CI quick tier — refresh penalties drown in startup noise
    and the trends legitimately do not hold, so those checks self-skip and
    the regression gate rests on fidelity metrics and wall clock instead.
    Window-insensitive invariants (kernel identity, warm-store re-runs
    performing zero simulations, Figure 5's closed-form values) always run.
    """
    return context.cycles >= DEFAULT_CYCLES


# ---------------------------------------------------------------------------
# The paper's tables, figures and ablations: one spec per registry record
# ---------------------------------------------------------------------------
def _paper_spec(experiment: Experiment) -> BenchSpec:
    """The benchmark of one paper experiment (see :mod:`repro.sim.registry`)."""

    def target(context: BenchContext):
        return experiment.run(context.runner, context.scale)

    def checks(payload, context: BenchContext) -> None:
        # Figure 5 is closed-form; every simulated trend needs the full window.
        if not experiment.simulates or _full_window(context):
            experiment.checks(payload)

    target.__doc__ = experiment.function.__doc__
    return BenchSpec(
        name=experiment.bench,
        target=target,
        metrics=experiment.metrics,
        checks=checks if experiment.checks else None,
        format=experiment.text,
    )


for _experiment in EXPERIMENTS.values():
    register(_paper_spec(_experiment))


# ---------------------------------------------------------------------------
# Engine scaling: serial versus parallel fan-out
# ---------------------------------------------------------------------------
ENGINE_SCALING_SCALE = ExperimentScale(
    workloads_per_category=1, densities=(32,)
)


ENGINE_SCALING_WORKERS = (1, 2, 4)


def _spawn_loopback_worker(port: int, workers: int) -> subprocess.Popen:
    """Start a ``repro worker`` subprocess against a loopback coordinator."""
    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else os.pathsep.join([src_dir, existing])
    )
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--connect",
            f"127.0.0.1:{port}",
            "--workers",
            str(workers),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _engine_scaling(context: BenchContext):
    """Engine scaling: a figure12-style sweep, serial versus 1/2/4 workers.

    The parallel legs exercise the work-stealing shard dispatcher end to
    end: jobs are chunked into cost-balanced shards and idle workers steal
    shards planned for their peers.  Every leg uses a fresh runner with no
    store, so each worker count actually simulates the full sweep — a
    silently-cached leg would report a bogus near-infinite speedup.  The
    per-leg ``simulated`` count is asserted against the serial leg to
    guard exactly that.
    """
    available = os.cpu_count() or 1

    def sweep(executor):
        runner = ExperimentRunner(executor=executor)
        start = perf_counter()
        result = EXPERIMENTS["figure12"].run(runner, ENGINE_SCALING_SCALE)
        return result, perf_counter() - start, runner.summary()

    serial_result, serial_s, serial_summary = sweep(SerialExecutor())
    serial_simulated = serial_summary["simulated"]
    rows = []
    for workers in ENGINE_SCALING_WORKERS:
        result, parallel_s, summary = sweep(ParallelExecutor(workers=workers))
        rows.append(
            {
                "workers": workers,
                "parallel_s": parallel_s,
                "simulated": summary["simulated"],
                "shards": summary["shards"],
                "steals": summary["steals"],
                "identical": result == serial_result,
            }
        )
    # Remote loopback leg: the same sweep dispatched over the TCP
    # coordinator to one ``repro worker`` subprocess running two local
    # processes.  The worker registers before the timer starts, so the
    # leg measures shard dispatch over the wire, not interpreter boot.
    remote_executor = ParallelExecutor(
        workers=0, serve=("127.0.0.1", 0), min_workers=1
    )
    worker_proc = _spawn_loopback_worker(remote_executor.coordinator.port, 2)
    try:
        if not remote_executor.coordinator.wait_for_workers(1, 120.0):
            raise RuntimeError("loopback worker never registered")
        remote_result, remote_s, remote_summary = sweep(remote_executor)
    finally:
        remote_executor.shutdown_remote()
        worker_proc.wait(timeout=30)
    remote = {
        "parallel_s": remote_s,
        "simulated": remote_summary["simulated"],
        "identical": remote_result == serial_result,
        "remote_workers": remote_summary["remote_workers"],
        "bytes_sent": remote_summary["bytes_sent"],
        "bytes_received": remote_summary["bytes_received"],
    }
    return {
        "available_cpus": available,
        "serial_s": serial_s,
        "serial_simulated": serial_simulated,
        "rows": rows,
        "remote": remote,
    }


def _engine_scaling_metrics(payload) -> dict:
    # Parallel fan-out must never change results: gate the identity bit
    # for the in-process legs and the remote loopback leg alike.
    identical = all(row["identical"] for row in payload["rows"])
    remote = payload.get("remote")
    if remote is not None:
        identical = identical and remote["identical"]
    return {"results_identical": 1.0 if identical else 0.0}


def _engine_scaling_timings(payload) -> dict:
    timings = {
        "serial_s": payload["serial_s"],
        "available_cpus": float(payload["available_cpus"]),
    }
    for row in payload["rows"]:
        timings[f"parallel_s_{row['workers']}w"] = row["parallel_s"]
        timings[f"speedup_{row['workers']}w"] = (
            payload["serial_s"] / row["parallel_s"]
        )
    remote = payload.get("remote")
    if remote is not None:
        timings["remote_s"] = remote["parallel_s"]
        timings["speedup_remote"] = payload["serial_s"] / remote["parallel_s"]
    return timings


def _engine_scaling_checks(payload, context: BenchContext) -> None:
    assert payload["serial_simulated"] > 0, "serial leg performed no simulations"
    for row in payload["rows"]:
        assert row["identical"], (
            f"parallel fan-out at {row['workers']} workers changed results"
        )
        # Each leg must actually exercise the parallel path end to end,
        # not resolve the sweep from some cache.
        assert row["simulated"] == payload["serial_simulated"], (
            f"{row['workers']}-worker leg simulated {row['simulated']} jobs, "
            f"serial leg simulated {payload['serial_simulated']}"
        )
    if payload["available_cpus"] >= 2 and _full_window(context):
        # The sweep is embarrassingly parallel; anything below parity means
        # the fan-out machinery itself is broken (pickling storms, workers
        # running serially, ...).  Leave headroom for loaded CI machines;
        # at a reduced window the pool's startup overhead dominates and the
        # ratio measures fork cost, not the engine, so it is full-window-only
        # — and on a single-CPU machine extra workers cannot beat serial at
        # all, so the ratio says nothing about the engine there either.
        best = max(
            payload["serial_s"] / row["parallel_s"]
            for row in payload["rows"]
            if row["workers"] <= payload["available_cpus"]
        )
        assert best > 0.9
        if payload["available_cpus"] >= 4:
            # With 4 workers on >=4 CPUs the shard queue should deliver a
            # real speedup, not just parity; 1.3x leaves headroom for
            # loaded runners while still catching a serialized dispatcher.
            assert best > 1.3, f"best speedup {best:.2f}x on a multi-core host"
    for row in payload["rows"]:
        # Every parallel leg must flow through the shard planner; a
        # zero shard count means the dispatcher was bypassed.
        assert row["shards"] >= row["workers"], (
            f"{row['workers']}-worker leg planned only {row['shards']} shards"
        )
    remote = payload.get("remote")
    if remote is not None:
        assert remote["identical"], "remote loopback leg changed results"
        assert remote["simulated"] == payload["serial_simulated"], (
            f"remote leg simulated {remote['simulated']} jobs, "
            f"serial leg simulated {payload['serial_simulated']}"
        )
        assert remote["remote_workers"] >= 1, "no remote worker registered"
        assert remote["bytes_sent"] > 0 and remote["bytes_received"] > 0


def _engine_scaling_format(payload) -> str:
    lines = [
        "Engine scaling (figure12-style sweep, 1 density x 5 workloads; "
        f"{payload['available_cpus']} CPUs available; "
        "work-stealing shard dispatcher)",
        f"  serial   (1 worker):   {payload['serial_s']:8.2f} s "
        f"({payload['serial_simulated']} simulations)",
    ]
    for row in payload["rows"]:
        speedup = payload["serial_s"] / row["parallel_s"]
        shards = (
            f", {row['shards']} shards/{row['steals']} stolen"
            if "shards" in row
            else ""
        )
        lines.append(
            f"  parallel ({row['workers']} worker{'s' if row['workers'] != 1 else ''}):"
            f"  {row['parallel_s']:8.2f} s  ({speedup:4.2f}x, "
            f"{'identical' if row['identical'] else 'DIVERGED'}{shards})"
        )
    remote = payload.get("remote")
    if remote is not None:
        speedup = payload["serial_s"] / remote["parallel_s"]
        lines.append(
            f"  remote   (1 host x 2 procs): {remote['parallel_s']:6.2f} s  "
            f"({speedup:4.2f}x, "
            f"{'identical' if remote['identical'] else 'DIVERGED'}, "
            f"{remote['bytes_sent']} B out / {remote['bytes_received']} B in "
            "over loopback TCP)"
        )
    return "\n".join(lines)


register(
    BenchSpec(
        name="engine_scaling",
        target=_engine_scaling,
        metrics=_engine_scaling_metrics,
        timings=_engine_scaling_timings,
        checks=_engine_scaling_checks,
        format=_engine_scaling_format,
        # Wall-clock depends on the machine's core count and load; gate
        # loosely and rely on the timings trend instead.
        max_regression=1.0,
    )
)


# ---------------------------------------------------------------------------
# Remote dispatch: loopback TCP coordinator overhead versus in-process
# ---------------------------------------------------------------------------
REMOTE_DISPATCH_MECHANISMS = ("refab", "refpb", "darp", "dsarp")

#: Loopback framing + JSON encoding must stay cheap relative to simulation.
REMOTE_DISPATCH_MAX_OVERHEAD = 0.15

#: Below this in-process wall clock the batch is too short for the ratio
#: to measure dispatch (fixed per-shard costs dominate); the overhead
#: gate self-skips, mirroring the window-sensitive engine-scaling gates.
REMOTE_DISPATCH_NOISE_FLOOR_S = 1.0


def _remote_dispatch_jobs(context: BenchContext) -> list:
    benchmarks = [get_benchmark("stream_copy"), get_benchmark("random_access")]
    jobs = []
    for mechanism in REMOTE_DISPATCH_MECHANISMS:
        for seed in (0, 1):
            jobs.append(
                SimulationJob(
                    config=paper_system(
                        density_gb=32, mechanism=mechanism, num_cores=2
                    ),
                    workload=make_workload(
                        benchmarks, name=f"remote_{mechanism}_{seed}", seed=seed
                    ),
                    cycles=context.cycles,
                    warmup=context.warmup,
                    seed=seed,
                )
            )
    return jobs


def _remote_dispatch(context: BenchContext):
    """Remote dispatch: the same batch in-process versus over loopback TCP.

    Eight two-core jobs (four mechanisms, two seeds) run twice through the
    same shard dispatcher: once with one in-process worker, once serve-only
    with one ``repro worker`` subprocess on loopback.  Both legs run one
    simulation at a time, so the ratio isolates what the coordinator adds —
    JSON job encoding, length-prefixed framing, heartbeats, and result decode —
    and the check gates that tax at 15 %.  The worker registers before the
    remote timer starts, so interpreter boot is excluded by construction.
    """
    jobs = _remote_dispatch_jobs(context)

    inproc = ParallelExecutor(workers=1)
    start = perf_counter()
    inproc_results = inproc.run(jobs)
    inproc_s = perf_counter() - start

    remote = ParallelExecutor(workers=0, serve=("127.0.0.1", 0), min_workers=1)
    worker_proc = _spawn_loopback_worker(remote.coordinator.port, 1)
    try:
        if not remote.coordinator.wait_for_workers(1, 120.0):
            raise RuntimeError("loopback worker never registered")
        start = perf_counter()
        remote_results = remote.run(jobs)
        remote_s = perf_counter() - start
        stats = remote.stats
        payload = {
            "jobs": len(jobs),
            "inproc_s": inproc_s,
            "remote_s": remote_s,
            "overhead": remote_s / inproc_s - 1.0,
            "identical": [r.to_dict() for r in remote_results]
            == [r.to_dict() for r in inproc_results],
            "remote_workers": stats.remote_workers,
            "bytes_sent": stats.bytes_sent,
            "bytes_received": stats.bytes_received,
        }
    finally:
        remote.shutdown_remote()
        worker_proc.wait(timeout=30)
    return payload


def _remote_dispatch_metrics(payload) -> dict:
    return {"results_identical": 1.0 if payload["identical"] else 0.0}


def _remote_dispatch_timings(payload) -> dict:
    return {
        "inproc_s": payload["inproc_s"],
        "remote_s": payload["remote_s"],
        "overhead": payload["overhead"],
        "bytes_sent": float(payload["bytes_sent"]),
        "bytes_received": float(payload["bytes_received"]),
    }


def _remote_dispatch_checks(payload, context: BenchContext) -> None:
    assert payload["identical"], "remote dispatch changed results"
    assert payload["remote_workers"] == 1, "expected exactly one remote worker"
    assert payload["bytes_sent"] > 0 and payload["bytes_received"] > 0, (
        "no traffic crossed the loopback coordinator"
    )
    if payload["inproc_s"] >= REMOTE_DISPATCH_NOISE_FLOOR_S:
        assert payload["overhead"] <= REMOTE_DISPATCH_MAX_OVERHEAD, (
            f"loopback dispatch overhead {payload['overhead']:.1%} exceeds "
            f"{REMOTE_DISPATCH_MAX_OVERHEAD:.0%}"
        )


def _remote_dispatch_format(payload) -> str:
    return (
        f"Remote dispatch overhead ({payload['jobs']} jobs; loopback TCP "
        "coordinator + 1 worker vs in-process dispatcher)\n"
        f"  in-process (1 worker): {payload['inproc_s']:8.2f} s\n"
        f"  remote     (1 worker): {payload['remote_s']:8.2f} s  "
        f"({payload['overhead']:+.1%} overhead, "
        f"{'identical' if payload['identical'] else 'DIVERGED'}; "
        f"{payload['bytes_sent']} B out / {payload['bytes_received']} B in)"
    )


register(
    BenchSpec(
        name="remote_dispatch",
        target=_remote_dispatch,
        metrics=_remote_dispatch_metrics,
        timings=_remote_dispatch_timings,
        checks=_remote_dispatch_checks,
        format=_remote_dispatch_format,
        # Wall-clock spans two full legs and a subprocess; the real gate
        # is the 15 % overhead check, not the suite-level elapsed time.
        max_regression=1.0,
    )
)


# ---------------------------------------------------------------------------
# Trace overhead: the observability hooks must be free when disabled
# ---------------------------------------------------------------------------
def _trace_overhead(context: BenchContext):
    """Tracing on versus off on one DARP cell.

    The spec's gated wall clock is dominated by the three untraced legs,
    so the ``max_regression=0.02`` gate on this benchmark is the tentpole's
    "tracer disabled costs < 2 %" acceptance criterion: if the hooks ever
    grow a cost when off, this spec's elapsed time regresses past the gate.
    The untraced leg takes the best of three runs to keep the gated number
    out of scheduler noise.
    """
    config = paper_system(density_gb=32, mechanism="darp", num_cores=4)
    workload = make_workload_category(100, index=0, num_cores=4)

    def run(cfg):
        simulator = Simulator(cfg, workload)
        start = perf_counter()
        result = simulator.run(context.cycles, warmup=context.warmup)
        return simulator, result, perf_counter() - start

    off_times = []
    for _ in range(3):
        _, off_result, elapsed = run(config)
        off_times.append(elapsed)
    traced = config.with_obs(
        trace=True, epoch_interval=max(1, context.cycles // 8)
    )
    simulator, on_result, on_s = run(traced)
    tracer = simulator.memory.tracer
    # Count SARP_CONFLICT records by the per-cycle count riding in their
    # ``done`` slot: the event kernel coalesces the conflicts of a skipped
    # span into one record, so the *raw* record count varies with how far
    # each skip reaches while the weighted count is a deterministic
    # simulation output, identical across kernels and skip batchings.
    weighted = sum(
        record.done if record.op == "SARP_CONFLICT" else 1
        for record in tracer.records
    )
    return {
        "off_s": min(off_times),
        "on_s": on_s,
        "identical": on_result.to_dict() == off_result.to_dict(),
        "records": len(tracer.records),
        "weighted_records": weighted,
        "dropped": tracer.dropped,
        "epochs": len(simulator.epoch_samples),
    }


def _trace_overhead_metrics(payload) -> dict:
    # Weighted record/epoch counts are deterministic simulation outputs:
    # gate them.  (The raw record count is not — see the weighting in
    # ``_trace_overhead``.)
    return {
        "results_identical": 1.0 if payload["identical"] else 0.0,
        "trace_records": float(payload["weighted_records"] + payload["dropped"]),
        "epoch_samples": float(payload["epochs"]),
    }


def _trace_overhead_timings(payload) -> dict:
    return {
        "off_s": payload["off_s"],
        "on_s": payload["on_s"],
        "traced_overhead": payload["on_s"] / payload["off_s"] - 1.0,
    }


def _trace_overhead_checks(payload, context: BenchContext) -> None:
    # Observability must never perturb simulation outcomes.
    assert payload["identical"], "tracing changed the simulation result"
    # And the traced leg must have actually observed something.
    assert payload["records"] > 0
    assert payload["epochs"] > 0


def _trace_overhead_format(payload) -> str:
    overhead = payload["on_s"] / payload["off_s"] - 1.0
    return "\n".join(
        [
            "Trace overhead (one 4-core DARP cell at 32 Gb, tracing+epochs)",
            f"  tracing off (best of 3):  {payload['off_s']:8.2f} s",
            f"  tracing on:               {payload['on_s']:8.2f} s "
            f"({payload['records']} records, {payload['epochs']} epochs)",
            f"  traced overhead:          {overhead:8.1%}",
            "  (disabled-hook overhead is gated by this spec's wall-clock "
            "regression gate: max_regression=0.02)",
        ]
    )


register(
    BenchSpec(
        name="trace_overhead",
        target=_trace_overhead,
        metrics=_trace_overhead_metrics,
        timings=_trace_overhead_timings,
        checks=_trace_overhead_checks,
        format=_trace_overhead_format,
        # This is the tentpole's overhead acceptance gate: the untraced
        # legs dominate the wall clock, so a >2 % regression here means
        # the disabled hooks are no longer free.
        max_regression=0.02,
    )
)


# ---------------------------------------------------------------------------
# Sweep caching: cold versus warm store
# ---------------------------------------------------------------------------
SWEEP_CACHE_SPEC = SweepSpec(
    name="bench_sweep_cache",
    description="tFAW x subarrays-per-bank grid for the cache benchmark",
    axes=(Axis("tfaw", (10, 20, 30)), Axis("subarrays_per_bank", (4, 8))),
    mechanisms=("refpb", "sarppb"),
    baseline="refpb",
    base={"density_gb": 32},
    workloads=WorkloadSpec(kind="intensive", count=2, num_cores=4),
)


def _sweep_cache(context: BenchContext):
    """Sweep caching: cold versus warm-store wall time for a design sweep."""

    def sweep(store_path):
        with SqliteStore(store_path) as store:
            runner = ExperimentRunner(store=store)
            start = perf_counter()
            result = run_sweep(SWEEP_CACHE_SPEC, runner=runner)
            elapsed = perf_counter() - start
        return [cell.to_dict() for cell in result.cells], runner.summary(), elapsed

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as scratch:
        store_path = Path(scratch) / "sweep_cache.sqlite"
        cold_cells, cold_summary, cold_s = sweep(store_path)
        warm_cells, warm_summary, warm_s = sweep(store_path)
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold_summary": cold_summary,
        "warm_summary": warm_summary,
        "identical": warm_cells == cold_cells,
    }


def _sweep_cache_metrics(payload) -> dict:
    # Deterministic plan sizes plus the warm-run invariant (zero sims).
    return {
        "results_identical": 1.0 if payload["identical"] else 0.0,
        "cold_simulated": float(payload["cold_summary"]["simulated"]),
        "warm_simulated": float(payload["warm_summary"]["simulated"]),
    }


def _sweep_cache_timings(payload) -> dict:
    # Clamp the warm denominator so the speedup stays JSON-finite even if
    # the warm leg ever rounds to a zero wall time.
    warm = max(payload["warm_s"], 1e-9)
    return {
        "cold_s": payload["cold_s"],
        "warm_s": payload["warm_s"],
        "speedup": payload["cold_s"] / warm,
    }


def _sweep_cache_checks(payload, context: BenchContext) -> None:
    # The warm re-sweep must be pure store hits with identical results.
    assert payload["cold_summary"]["simulated"] > 0
    assert payload["warm_summary"]["simulated"] == 0
    assert payload["identical"]
    # A warm re-sweep that is not dramatically faster than the cold run
    # means store resolution is broken somewhere.
    assert payload["warm_s"] < payload["cold_s"]


def _sweep_cache_format(payload) -> str:
    timings = _sweep_cache_timings(payload)
    return "\n".join(
        [
            "Sweep store caching (6 points x 2 workloads x 2 mechanisms)",
            f"  cold (all simulated):     {payload['cold_s']:8.2f} s "
            f"({payload['cold_summary']['simulated']} simulations)",
            f"  warm (all store hits):    {payload['warm_s']:8.2f} s "
            f"({payload['warm_summary']['store_hits']} store hits)",
            f"  re-sweep speedup:         {timings['speedup']:8.1f} x",
        ]
    )


register(
    BenchSpec(
        name="sweep_cache",
        target=_sweep_cache,
        metrics=_sweep_cache_metrics,
        timings=_sweep_cache_timings,
        checks=_sweep_cache_checks,
        format=_sweep_cache_format,
        # The warm leg is sub-millisecond file reads; its ratio to the
        # cold leg is what matters, so gate the wall clock loosely.
        max_regression=1.0,
    )
)


# ---------------------------------------------------------------------------
# Kernel speedup: event versus cycle kernel
# ---------------------------------------------------------------------------
DENSITY_GB = 32

#: The most latency-sensitive intensive benchmarks (high dependent-load
#: fractions): the alone-run leg of the Table 2 pipeline.
ALONE_BENCHMARKS = ("mcf_like", "random_access", "tpcc_like")

#: A fully dependent pointer chase: every load waits for the previous one,
#: so the window is dominated by exactly the stalls the paper studies —
#: cores waiting out DRAM latency (and, at 32 Gb, tRFC-long refreshes)
#: while no command can legally issue.  This is the headline cell: the
#: purest latency-bound workload the Table 2 system can run.
POINTER_CHASE = Benchmark(
    "pointer_chase",
    "random",
    256 * MB,
    memory_fraction=0.02,
    write_fraction=0.20,
    intensive=True,
    dependent_fraction=1.0,
)


def _timed_pair(
    config, workload, cycles: int, warmup: int
) -> tuple[float, float, bool]:
    """Run (config, workload) under both kernels; returns wall times + identity.

    Results must be bit-identical — this benchmark doubles as an
    end-to-end differential check at the measured window length.
    """
    times = {}
    results = {}
    for kernel in ("cycle", "event"):
        simulator = Simulator(config.with_kernel(kernel), workload)
        start = perf_counter()
        results[kernel] = simulator.run(cycles, warmup=warmup)
        times[kernel] = perf_counter() - start
    identical = results["event"].to_dict() == results["cycle"].to_dict()
    return times["cycle"], times["event"], identical


def _kernel_speedup_at(cycles: int, warmup: int) -> dict:
    rows = []
    identical = True

    def cell(label, config, workload):
        nonlocal identical
        cycle_s, event_s, same = _timed_pair(config, workload, cycles, warmup)
        identical = identical and same
        rows.append({"label": label, "cycle_s": cycle_s, "event_s": event_s})
        return cycle_s, event_s

    # -- headline: latency-bound pointer chase ------------------------------
    config = paper_system(density_gb=DENSITY_GB, mechanism="refab", num_cores=1)
    workload = make_workload([POINTER_CHASE], name="alone_pointer_chase", seed=0)
    head_cycle, head_event = cell("pointer chase (headline) refab", config, workload)

    # -- latency-bound alone runs (Table 2's normalization leg) ------------
    alone_cycle = alone_event = 0.0
    for name in ALONE_BENCHMARKS:
        config = paper_system(density_gb=DENSITY_GB, mechanism="refab", num_cores=1)
        workload = make_workload([get_benchmark(name)], name=f"alone_{name}", seed=0)
        cycle_s, event_s = cell(f"alone {name} refab", config, workload)
        alone_cycle += cycle_s
        alone_event += event_s

    # -- 8-core intensive mix cells (context rows) --------------------------
    for mechanism in ("refab", "dsarp"):
        config = paper_system(density_gb=DENSITY_GB, mechanism=mechanism, num_cores=8)
        workload = make_workload_category(100, index=0, num_cores=8)
        cell(f"8-core intensive {mechanism}", config, workload)

    return {
        "cycles": cycles,
        "warmup": warmup,
        "rows": rows,
        "identical": identical,
        "headline": head_cycle / head_event,
        "alone_speedup": alone_cycle / alone_event,
    }


def _kernel_speedup(context: BenchContext):
    """Cycle- versus event-kernel wall time on the Table 2 configuration."""
    return _kernel_speedup_at(context.cycles, context.warmup)


def _kernel_speedup_full(context: BenchContext):
    """Kernel speedup at the paper's full measured window, with the 3x gate."""
    return _kernel_speedup_at(DEFAULT_CYCLES, DEFAULT_WARMUP)


def _kernel_speedup_metrics(payload) -> dict:
    return {"results_identical": 1.0 if payload["identical"] else 0.0}


def _kernel_speedup_timings(payload) -> dict:
    timings = {
        "headline_speedup": payload["headline"],
        "alone_speedup": payload["alone_speedup"],
    }
    for row in payload["rows"]:
        key = row["label"].replace(" ", "_").replace("(", "").replace(")", "")
        timings[f"{key}_cycle_s"] = row["cycle_s"]
        timings[f"{key}_event_s"] = row["event_s"]
    return timings


def _kernel_speedup_checks(payload, context: BenchContext) -> None:
    assert payload["identical"], "event and cycle kernels diverged"
    # The 3x acceptance gate only holds at the paper's full window: on a
    # reduced REPRO_CYCLES window the skippable idle stretches shrink and
    # the ratio is mostly startup noise.
    if payload["cycles"] >= DEFAULT_CYCLES:
        assert payload["headline"] >= 3.0, (
            f"expected >= 3x on the latency-bound cell, got {payload['headline']:.2f}x"
        )


def _kernel_speedup_format(payload) -> str:
    lines = [
        f"Event-kernel speedup on the Table 2 configuration "
        f"({DENSITY_GB} Gb, {payload['cycles']} + {payload['warmup']} warmup cycles; "
        f"results verified bit-identical per cell)",
    ]
    for row in payload["rows"]:
        speedup = row["cycle_s"] / row["event_s"]
        lines.append(
            f"  {row['label']:30s}: cycle {row['cycle_s']:6.2f} s -> "
            f"event {row['event_s']:6.2f} s  ({speedup:4.2f}x)"
        )
    lines.append(f"  alone leg total speedup: {payload['alone_speedup']:4.2f}x")
    lines.append(
        f"  headline (pointer chase, latency-bound): {payload['headline']:4.2f}x"
    )
    return "\n".join(lines)


register(
    BenchSpec(
        name="kernel_speedup",
        target=_kernel_speedup,
        metrics=_kernel_speedup_metrics,
        timings=_kernel_speedup_timings,
        checks=_kernel_speedup_checks,
        format=_kernel_speedup_format,
        # Runs both kernels back to back; the interesting number is their
        # ratio (in timings), so allow the absolute wall more slack.
        max_regression=0.5,
    )
)

register(
    BenchSpec(
        name="kernel_speedup_full",
        target=_kernel_speedup_full,
        tier="full",
        metrics=_kernel_speedup_metrics,
        timings=_kernel_speedup_timings,
        checks=_kernel_speedup_checks,
        format=_kernel_speedup_format,
        artifact="kernel_speedup",
        max_regression=0.5,
    )
)


# ---------------------------------------------------------------------------
# 8-core intensive hot path: event versus cycle kernel on the paper cells
# ---------------------------------------------------------------------------
#: Best-of-N paired runs per cell.  Each ``_timed_pair`` call times both
#: kernels back to back, so the per-pair ratio is robust against slow
#: machine-wide drift; taking the best pair filters transient load spikes.
INTENSIVE_8CORE_REPS = 3

#: Enforced event-kernel speedup floors at the full measured window.  The
#: ceilings here are structural, not tuning slack: the event kernel must
#: stay bit-identical to the reference, and on the 8-core intensive mixes
#: most wall time is work both kernels share (command legality probes,
#: queue maintenance, DRAM state updates).  DSARP is the costlier cell:
#: its refresh candidates (forced and owed idle banks, and the writeback
#: target) follow the demand queues, so more of its cycles end a frozen
#: window and run the full reference tick.  It draws no random numbers at
#: the default pull-in budget, so there are no draw ticks to replay.  The
#: floors below are the levels both cells clear with wide margin across
#: noisy runs; the actual measured ratios are recorded in the run's
#: timings and tracked by the trend history.
INTENSIVE_8CORE_FLOORS = {"refab": 1.5, "dsarp": 1.3}


def _intensive_8core_at(cycles: int, warmup: int, reps: int) -> dict:
    rows = []
    identical = True
    for mechanism in ("refab", "dsarp"):
        config = paper_system(
            density_gb=DENSITY_GB, mechanism=mechanism, num_cores=8
        )
        workload = make_workload_category(100, index=0, num_cores=8)
        best = None
        for _ in range(reps):
            cycle_s, event_s, same = _timed_pair(config, workload, cycles, warmup)
            identical = identical and same
            if best is None or cycle_s / event_s > best[0] / best[1]:
                best = (cycle_s, event_s)
        rows.append(
            {
                "mechanism": mechanism,
                "cycle_s": best[0],
                "event_s": best[1],
                "speedup": best[0] / best[1],
            }
        )
    return {
        "cycles": cycles,
        "warmup": warmup,
        "reps": reps,
        "rows": rows,
        "identical": identical,
    }


def _intensive_8core(context: BenchContext):
    """Event-vs-cycle kernel on the 8-core intensive REFab/DSARP cells."""
    reps = INTENSIVE_8CORE_REPS if _full_window(context) else 1
    return _intensive_8core_at(context.cycles, context.warmup, reps)


def _intensive_8core_full(context: BenchContext):
    """The 8-core hot-path gate at the paper's full measured window."""
    return _intensive_8core_at(DEFAULT_CYCLES, DEFAULT_WARMUP, INTENSIVE_8CORE_REPS)


def _intensive_8core_metrics(payload) -> dict:
    return {"results_identical": 1.0 if payload["identical"] else 0.0}


def _intensive_8core_timings(payload) -> dict:
    timings = {}
    for row in payload["rows"]:
        timings[f"{row['mechanism']}_cycle_s"] = row["cycle_s"]
        timings[f"{row['mechanism']}_event_s"] = row["event_s"]
        timings[f"{row['mechanism']}_speedup"] = row["speedup"]
    return timings


def _intensive_8core_checks(payload, context: BenchContext) -> None:
    assert payload["identical"], "event and cycle kernels diverged"
    # Like the kernel_speedup gate, the speedup floors only hold at the
    # paper's full window — a reduced REPRO_CYCLES window is dominated by
    # warmup transients with few skippable idle stretches.
    if payload["cycles"] >= DEFAULT_CYCLES:
        for row in payload["rows"]:
            floor = INTENSIVE_8CORE_FLOORS[row["mechanism"]]
            assert row["speedup"] >= floor, (
                f"8-core intensive {row['mechanism']}: expected >= {floor}x "
                f"event-kernel speedup, got {row['speedup']:.2f}x"
            )


def _intensive_8core_format(payload) -> str:
    lines = [
        f"Event-kernel speedup on the 8-core intensive cells "
        f"({DENSITY_GB} Gb, {payload['cycles']} + {payload['warmup']} warmup "
        f"cycles, best of {payload['reps']} paired runs; results verified "
        f"bit-identical per run)",
    ]
    for row in payload["rows"]:
        floor = INTENSIVE_8CORE_FLOORS[row["mechanism"]]
        lines.append(
            f"  8-core intensive {row['mechanism']:6s}: "
            f"cycle {row['cycle_s']:6.2f} s -> event {row['event_s']:6.2f} s  "
            f"({row['speedup']:4.2f}x, floor {floor}x)"
        )
    lines.append(
        "  DSARP takes ~17% more kernel steps than REFab and runs no draw ticks;"
    )
    lines.append(
        "  window install is ~32-37% of every cell; see README 'Hot path'."
    )
    return "\n".join(lines)


register(
    BenchSpec(
        name="intensive_8core",
        target=_intensive_8core,
        metrics=_intensive_8core_metrics,
        timings=_intensive_8core_timings,
        checks=_intensive_8core_checks,
        format=_intensive_8core_format,
        # Paired-kernel wall time; the ratio in timings is the signal.
        max_regression=0.5,
    )
)

register(
    BenchSpec(
        name="intensive_8core_full",
        target=_intensive_8core_full,
        tier="full",
        metrics=_intensive_8core_metrics,
        timings=_intensive_8core_timings,
        checks=_intensive_8core_checks,
        format=_intensive_8core_format,
        artifact="intensive_8core",
        max_regression=0.5,
    )
)


# ---------------------------------------------------------------------------
# Scheduler-policy matrix: every registered policy, both kernels, diffed
# ---------------------------------------------------------------------------
def _scheduler_matrix(context: BenchContext):
    """Every scheduler x page-policy cell run on both kernels and diffed."""
    from repro.controller.policies import scheduler_names

    workload = make_workload_category(100, index=0, num_cores=2)
    rows = []
    for scheduler in scheduler_names():
        for page_policy in ("closed", "open"):
            base = (
                paper_system(density_gb=8, mechanism="refab", num_cores=2)
                .with_scheduler(scheduler)
                .with_page_policy(page_policy)
            )
            results = {}
            for kernel in ("cycle", "event"):
                simulator = Simulator(base.with_kernel(kernel), workload)
                results[kernel] = simulator.run(
                    context.cycles, warmup=context.warmup
                ).to_dict()
            event = results["event"]
            rows.append(
                {
                    "scheduler": scheduler,
                    "page_policy": page_policy,
                    "identical": results["event"] == results["cycle"],
                    "served_reads": event["controller_stats"]["served_reads"],
                    "average_read_latency": event["controller_stats"][
                        "average_read_latency"
                    ],
                }
            )
    return rows


def _scheduler_matrix_metrics(rows) -> dict:
    metrics = {}
    for row in rows:
        key = f"{row['scheduler']}_{row['page_policy']}".replace("-", "_")
        metrics[f"identical_{key}"] = 1.0 if row["identical"] else 0.0
        metrics[f"served_reads_{key}"] = float(row["served_reads"])
        metrics[f"avg_read_latency_{key}"] = row["average_read_latency"]
    return metrics


def _scheduler_matrix_checks(rows, context: BenchContext) -> None:
    # Kernel identity is window-insensitive: it must hold for every policy
    # cell at any REPRO_CYCLES, so the differential guarantee the default
    # scheduler enjoys extends to the whole registry.
    for row in rows:
        assert row["identical"], (
            f"kernels diverged under scheduler={row['scheduler']!r}, "
            f"page_policy={row['page_policy']!r}"
        )


def _scheduler_matrix_format(rows) -> str:
    lines = [
        "Scheduler-policy matrix (event vs cycle kernel, per-cell diff):",
        f"  {'scheduler':12s} {'page':8s} {'identical':>9s} "
        f"{'reads':>8s} {'avg read lat':>13s}",
    ]
    for row in rows:
        lines.append(
            f"  {row['scheduler']:12s} {row['page_policy']:8s} "
            f"{'yes' if row['identical'] else 'NO':>9s} "
            f"{row['served_reads']:8.0f} {row['average_read_latency']:13.2f}"
        )
    return "\n".join(lines)


register(
    BenchSpec(
        name="scheduler_matrix",
        target=_scheduler_matrix,
        metrics=_scheduler_matrix_metrics,
        checks=_scheduler_matrix_checks,
        format=_scheduler_matrix_format,
        # Twelve short simulations back to back; absolute wall time is the
        # least interesting number here, so allow extra slack.
        max_regression=0.5,
    )
)
