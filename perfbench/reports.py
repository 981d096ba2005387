"""Engine workload: cold paper reports served to a remote worker.

``remote1w`` regenerates Table 2 over the loopback TCP coordinator
(``ParallelExecutor(workers=0, serve=...)``) for one ``repro worker
--workers 1`` process, into a fresh ``SqliteStore``, then re-renders warm
from the same store, which must simulate nothing.  The window is the
golden identity (1200 + 200 cycles, seed 0) at 32 Gb only, so the fresh
Table 2 row is compared with the 32 Gb entry of
``tests/golden/table2_summary.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import repro.engine.queue as queue_module
import repro.engine.remote as remote_module
from repro.engine.executor import ParallelExecutor
from repro.engine.progress import SOURCE_SIMULATED, ProgressCollector
from repro.engine.sqlite_store import SqliteStore
from repro.report.paper import (
    GOLDEN_CYCLES,
    GOLDEN_WARMUP,
    canonical,
    generate_paper_report,
    golden_dir,
)
from repro.sim.experiments import ExperimentScale
from repro.sim.runner import ExperimentRunner
from cells import model_counts
from spans import Patcher, SpanTracer

#: Simulation processes of the remote worker.  Next to the driver's
#: coordinator and the worker's own loop, two would keep both CPUs of a
#: 2-CPU host busy and the run would time the scheduler (see README).
WORKERS = 1
ARTIFACT = "table2"
SCALE = ExperimentScale(workloads_per_category=1, sensitivity_workloads=1, densities=(32,))
#: Setups per pass, each timed; all but the last are torn down at once.
SETUPS_PER_PASS = 2
REGISTER_TIMEOUT_S = 60.0
SHUTDOWN_TIMEOUT_S = 30.0


@dataclass
class Setup:
    store: SqliteStore
    executor: ParallelExecutor
    worker: subprocess.Popen

    def close(self) -> None:
        """Shut the remote worker down and wait for it; close the store."""
        try:
            self.executor.shutdown_remote()
            try:
                self.worker.wait(timeout=SHUTDOWN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.worker.kill()
                self.worker.wait()
        finally:
            self.store.close()


def setup(directory: Path, src: Path) -> Setup:
    """Build store and executor, start the worker and wait until it has
    registered with the coordinator."""
    directory.mkdir(parents=True, exist_ok=True)
    store = SqliteStore(directory / "store.db")
    executor = ParallelExecutor(workers=0, serve=("127.0.0.1", 0))
    env = dict(os.environ, PYTHONPATH=str(src))
    with open(directory / "worker.log", "wb") as log:
        worker = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "worker",
                "--connect",
                f"127.0.0.1:{executor.coordinator.port}",
                "--workers",
                str(WORKERS),
            ],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=log,
        )
    ready = Setup(store, executor, worker)
    if not executor.coordinator.wait_for_workers(1, REGISTER_TIMEOUT_S):
        ready.close()
        raise RuntimeError("remote worker did not register with the coordinator")
    return ready


def file_digests(directory: Path) -> dict:
    """sha256 of every artifact file the report wrote (not the index)."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.glob(f"{ARTIFACT}.*"))
    }


@dataclass
class Pass:
    setups_s: list
    cold_s: float
    warm_s: float
    wall_s: float
    summary: dict
    warm_simulated: int
    #: Job key -> seconds the worker took to simulate it.
    job_s: dict
    golden_ok: bool
    cold_files: dict
    warm_files: dict
    model: dict = field(default_factory=dict)

    @property
    def job_sum_s(self) -> float:
        return sum(self.job_s.values())


def _golden_row() -> dict | None:
    directory = golden_dir()
    if directory is None:
        return None
    return json.loads((directory / "table2_summary.json").read_text())["32"]


def run_pass(directory: Path, src: Path, tracer: SpanTracer | None = None) -> Pass:
    """Set up (timed several times), report cold, re-render warm, tear down."""
    setups = []
    for repeat in range(SETUPS_PER_PASS - 1):
        start = perf_counter()
        setup(directory / f"setup{repeat}", src).close()
        setups.append(perf_counter() - start)
    wall_start = perf_counter()
    ready = setup(directory / "run", src)
    setups.append(perf_counter() - wall_start)
    try:
        events = ProgressCollector()
        report = generate_paper_report
        # The untraced pass installs no wrappers; its tracer is a stand-in.
        with Patcher(tracer or SpanTracer()) as patch:
            if tracer is not None:
                _wrap_engine_layers(patch, ready)
                report = tracer.wrap("report", generate_paper_report)
            start = perf_counter()
            cold = report(
                directory / "cold", runner=_runner(ready, events), scale=SCALE,
                names=[ARTIFACT],
            )
            cold_s = perf_counter() - start
        # A fresh runner has no memo, so every job must come from the store.
        before = ready.executor.stats.snapshot()
        start = perf_counter()
        generate_paper_report(
            directory / "warm", runner=_runner(ready), scale=SCALE, names=[ARTIFACT]
        )
        warm_s = perf_counter() - start
        warm_simulated = ready.executor.stats.delta(before).simulated
        payload = json.loads((directory / "cold" / f"{ARTIFACT}.json").read_text())
        model = summed_model_counts(ready.store) if tracer is not None else {}
    finally:
        ready.close()
    return Pass(
        setups_s=setups,
        cold_s=cold_s,
        warm_s=warm_s,
        wall_s=perf_counter() - wall_start,
        summary=cold.engine_summary,
        warm_simulated=warm_simulated,
        job_s={e.key: e.elapsed_s for e in events.events if e.source == SOURCE_SIMULATED},
        golden_ok=canonical(payload).get("32") == _golden_row(),
        cold_files=file_digests(directory / "cold"),
        warm_files=file_digests(directory / "warm"),
        model=model,
    )


def _runner(ready: Setup, progress=None) -> ExperimentRunner:
    """A runner at the golden identity window over the pass's engine."""
    return ExperimentRunner(
        cycles=GOLDEN_CYCLES,
        warmup=GOLDEN_WARMUP,
        seed=0,
        executor=ready.executor,
        store=ready.store,
        progress=progress,
    )


def _wrap_engine_layers(patch: Patcher, ready: Setup) -> None:
    patch.attribute(queue_module, "plan_shards", "engine.plan")
    patch.attribute(remote_module, "encode_job", "engine.remote.codec")
    patch.attribute(remote_module, "decode_result", "engine.remote.codec")
    patch.method(ready.executor, "run", "engine.run")
    patch.method(ready.store, "put", "engine.store.put")
    patch.method(ready.store, "get", "engine.store.get")


def summed_model_counts(store: SqliteStore) -> dict:
    """``model.*`` counts summed over every result the report stored."""
    return model_counts(store.get(key) for key in store.keys())


def check(run: Pass, pinned: dict) -> tuple[int, int]:
    """``(attempted, failed)`` simulated jobs of one pass.

    Any failed gate — golden row, pinned artifact bytes, a warm re-render
    that simulated, a simulated job without its own timing — fails every
    job of the pass; otherwise the jobs the engine retried or lost to a
    worker count as failed.
    """
    summary = run.summary
    attempted = max(1, summary["simulated"])
    correct = (
        len(run.job_s) == summary["simulated"]
        and run.golden_ok
        and run.cold_files == pinned
        and run.warm_files == pinned
        and run.warm_simulated == 0
    )
    if not correct:
        return attempted, attempted
    lost = summary["retries"] + summary["worker_failures"] + summary["reassignments"]
    return attempted, min(attempted, lost)


def end_to_end(passes) -> dict:
    """Metrics of a cold report made of the fastest pieces of the passes.

    On a shared host, other tenants only ever add time, in episodes of
    seconds to minutes.  The cold report is each job's fastest simulation
    plus the fastest remainder (dispatch, codec, store, rendering); the
    rest of the pass wall and ``setup_s`` are likewise the fastest seen.
    A job (under a second) is a finer unit than a pass, so its fastest
    repeat is more likely to fall between episodes.
    """
    simulated = passes[0].summary["simulated"]
    cold_s = sum(min(p.job_s[key] for p in passes) for key in passes[0].job_s)
    cold_s += min(p.cold_s - p.job_sum_s for p in passes)
    return {
        "sim_cycles_per_s": simulated * (GOLDEN_CYCLES + GOLDEN_WARMUP) / cold_s,
        "jobs_per_s": simulated / cold_s,
        "wall_s": cold_s + min(p.wall_s - p.cold_s for p in passes),
        "setup_s": min(s for p in passes for s in p.setups_s),
    }


def per_layer(plain: Pass, traced: Pass, tracer: SpanTracer) -> dict:
    calls, self_s = tracer.calls, tracer.self_s
    summary = plain.summary
    simulated = summary["simulated"]
    transferred = summary["bytes_sent"] + summary["bytes_received"]
    metrics = {
        "engine.plan.calls": calls["engine.plan"],
        "engine.plan.self_s": self_s["engine.plan"],
        "engine.job.sum_s": plain.job_sum_s,
        "engine.utilization": plain.job_sum_s / (WORKERS * plain.cold_s),
        "engine.store.put.calls": calls["engine.store.put"],
        "engine.store.put.self_s": self_s["engine.store.put"],
        "engine.store.get.calls": calls["engine.store.get"],
        "engine.store.get.self_s": self_s["engine.store.get"],
        "engine.remote.bytes_per_job": transferred / simulated if simulated else 0.0,
        "engine.remote.bytes_sent": summary["bytes_sent"],
        "engine.remote.bytes_received": summary["bytes_received"],
        "engine.remote.codec.self_s": self_s["engine.remote.codec"],
        "engine.remote.reassignments": summary["reassignments"],
        "report.cold_s": plain.cold_s,
        "report.render.self_s": self_s["report"],
        "report.warm_s": plain.warm_s,
    }
    for key in ("simulated", "memory_hits", "shards", "steals", "retries", "worker_failures"):
        metrics[f"engine.{key}"] = summary[key]
    metrics.update(traced.model)
    return metrics
