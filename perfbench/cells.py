"""In-process workload: 8-core simulator cells at the full window.

``intensive8`` runs mix100 (every core memory-intensive) on the paper's
32 Gb system, one :class:`Simulator` per refresh mechanism.  A *round*
constructs and runs every cell once;
the untraced benchmark repeats rounds for the requested time, and a
traced round re-runs them under :mod:`spans` wrappers to split the time
by layer.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter

import repro.sim.simulator as simulator_module
from repro.config.presets import paper_system
from repro.sim.simulator import Simulator
from repro.workloads.benchmark_suite import Benchmark
from repro.workloads.mixes import make_workload_category
from spans import Patcher, SpanTracer, TracedIterator

CYCLES = 26000
WARMUP = 2600
DENSITY_GB = 32
#: ``--seed`` picks one of this many trace-seed variants; each variant's
#: result digests are pinned in ``digests.json``.
VARIANTS = 4

#: workload -> (intensity category, mechanisms, one cell each).
WORKLOADS = {
    "intensive8": (100, ("refab", "darp", "dsarp")),
}
#: Every mechanism any cell workload runs, for per-cell metric names.
ALL_MECHANISMS = ("refab", "darp", "dsarp")


def result_digest(result) -> str:
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cell_inputs(name: str, seed: int, kernel: str | None = None):
    """``[(mechanism, config, workload, sim_seed)]`` for one workload run."""
    category, mechanisms = WORKLOADS[name]
    workload = make_workload_category(category, index=0, num_cores=8)
    cells = []
    for mechanism in mechanisms:
        config = paper_system(density_gb=DENSITY_GB, mechanism=mechanism, num_cores=8)
        if kernel is not None:
            config = config.with_kernel(kernel)
        cells.append((mechanism, config, workload, seed % VARIANTS))
    return cells


@dataclass
class Round:
    """One construction + run of every cell."""

    setup_s: float = 0.0
    run_s: float = 0.0
    setup_s_by_cell: dict = field(default_factory=dict)
    run_s_by_cell: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s


def run_round(cells) -> Round:
    out = Round()
    for mechanism, config, workload, sim_seed in cells:
        start = perf_counter()
        sim = Simulator(config, workload, seed=sim_seed)
        built = perf_counter()
        result = sim.run(CYCLES, warmup=WARMUP)
        done = perf_counter()
        out.setup_s += built - start
        out.run_s += done - built
        out.setup_s_by_cell[mechanism] = built - start
        out.run_s_by_cell[mechanism] = done - built
        out.digests[mechanism] = result_digest(result)
        out.results[mechanism] = result
    return out


def traced_round(cells, tracer: SpanTracer) -> tuple[Round, float]:
    """A round under layer wrappers; returns it and the LLC hit ratio.

    Construction is traced through class/module attributes (the objects
    do not exist yet); the run through the live instances' methods.
    Every wrapper is removed before this returns.
    """
    out = Round()
    hits = accesses = 0
    original_trace = Benchmark.trace

    def traced_trace(benchmark, seed=0):
        return TracedIterator(
            tracer, "sim.setup.trace", original_trace(benchmark, seed)
        )

    for mechanism, config, workload, sim_seed in cells:
        with Patcher(tracer) as patch:
            patch.attribute(Simulator, "_functional_warmup", "sim.setup.cache_warmup")
            patch.attribute(simulator_module, "MemorySystem", "sim.setup.memory")
            patch.replace(Benchmark, "trace", traced_trace)
            start = perf_counter()
            sim = tracer.wrap("sim.setup", Simulator)(config, workload, seed=sim_seed)
            built = perf_counter()
        with Patcher(tracer) as patch:
            _wrap_run_layers(patch, sim)
            result = sim.run(CYCLES, warmup=WARMUP)
            done = perf_counter()
        out.setup_s += built - start
        out.run_s += done - built
        out.setup_s_by_cell[mechanism] = built - start
        out.run_s_by_cell[mechanism] = done - built
        out.digests[mechanism] = result_digest(result)
        out.results[mechanism] = result
        for core in sim.cores:
            hits += core.llc.hits
            accesses += core.llc.hits + core.llc.misses
    return out, hits / accesses if accesses else 0.0


def _wrap_run_layers(patch: Patcher, sim: Simulator) -> None:
    patch.method(sim, "run", "sim.run")
    memory = sim.memory
    patch.method(memory, "tick_event", "controller.memory.tick_event")
    patch.method(memory, "access", "controller.access")
    patch.method(memory, "skip_idle_cycles", "controller.skip_idle")
    # WakeCalendar has __slots__; its one query goes through this method.
    patch.method(memory, "next_skip_event", "controller.calendar")
    patch.method(memory.device, "issue", "dram.issue")
    patch.method(memory.device, "can_issue", "dram.can_issue")
    for controller in memory.controllers:
        patch.method(controller, "tick_event", "controller.channel.tick_event")
        patch.method(controller, "tick", "controller.channel.tick")
        patch.method(controller.scheduler, "select", "controller.policies.select")
        patch.method(controller.refresh_policy, "pre_demand", "core.pre_demand")
        patch.method(controller.refresh_policy, "post_demand", "core.post_demand")
    for core in sim.cores:
        patch.method(core, "tick", "cpu.tick")
        patch.method(core.llc, "access", "cache.access")
        # Built by the traced Benchmark.trace during setup: from here on
        # its next() calls are the run phase's trace generation.
        core.trace.name = "workloads.trace"


def check(rounds, pinned: dict) -> tuple[int, int]:
    """``(attempted, failed)`` cells against the pinned digests."""
    attempted = failed = 0
    for round_ in rounds:
        for mechanism, digest in round_.digests.items():
            attempted += 1
            if pinned.get(mechanism) != digest:
                failed += 1
    return attempted, failed


def end_to_end(rounds) -> dict:
    """Metrics of a round made of each cell's fastest setup and run.

    On a shared host, other tenants only ever add time, in episodes of
    seconds to minutes; the fastest of a cell's repeats is the least
    disturbed one.  A cell (1 to 3 s) is a finer unit than a round, so
    its fastest repeat is more likely to fall between episodes.
    """
    cells = list(rounds[0].digests)

    def fastest(times: str, cell: str) -> float:
        return min(getattr(r, times)[cell] for r in rounds)

    setup_s = sum(fastest("setup_s_by_cell", cell) for cell in cells)
    run_s = sum(fastest("run_s_by_cell", cell) for cell in cells)
    return {
        "sim_cycles_per_s": len(cells) * (CYCLES + WARMUP) / run_s,
        "jobs_per_s": len(cells) / (setup_s + run_s),
        "wall_s": setup_s + run_s,
        "setup_s": setup_s,
    }


def model_counts(results) -> dict:
    """Simulated counts summed over cells; they must repeat exactly."""
    totals = dict.fromkeys(
        (
            "model.commands",
            "model.reads",
            "model.writes",
            "model.refreshes",
            "model.postponed",
            "model.write_mode_refreshes",
            "model.subarray_conflicts",
        ),
        0,
    )
    for result in results:
        controller = result.controller_stats
        refresh = result.refresh_stats
        totals["model.commands"] += controller["issued_commands"]
        totals["model.reads"] += controller["served_reads"]
        totals["model.writes"] += controller["served_writes"]
        totals["model.refreshes"] += (
            refresh["all_bank_issued"] + refresh["per_bank_issued"]
        )
        totals["model.postponed"] += refresh["postponed"]
        totals["model.write_mode_refreshes"] += refresh["write_mode_refreshes"]
        totals["model.subarray_conflicts"] += result.device_stats["subarray_conflicts"]
    return totals


def per_layer(plain: Round, traced: Round, tracer: SpanTracer, hit_ratio: float) -> dict:
    """Layer metrics of one traced round, rates from the untraced one."""
    calls, self_s, total_s = tracer.calls, tracer.self_s, tracer.total_s
    cycles = len(plain.digests) * (CYCLES + WARMUP)
    steps = calls["controller.memory.tick_event"]
    run_wall = total_s["sim.run"]
    attributed = sum(
        seconds for name, seconds in self_s.items() if not name.startswith("sim.setup")
    )
    metrics = {
        "sim.run.self_s": self_s["sim.run"],
        "sim.kernel.steps": steps,
        "sim.kernel.skip_ratio": 1.0 - steps / cycles,
        "sim.host_us_per_command": plain.run_s / calls["dram.issue"] * 1e6,
        "sim.setup.cache_warmup_s": self_s["sim.setup.cache_warmup"],
        "sim.setup.trace_s": self_s["sim.setup.trace"],
        "sim.setup.memory_s": self_s["sim.setup.memory"],
        "sim.unattributed_s": run_wall - attributed,
        "cache.hit_ratio": hit_ratio,
        "controller.fast_path_ratio": 1.0
        - calls["controller.channel.tick"] / calls["controller.channel.tick_event"],
    }
    for mechanism in ALL_MECHANISMS:
        seconds = plain.run_s_by_cell.get(mechanism)
        metrics[f"sim.cell.{mechanism}.cycles_per_s"] = (
            (CYCLES + WARMUP) / seconds if seconds else 0.0
        )
    for name in (
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
    ):
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    metrics["controller.memory.tick_event.self_s"] = self_s[
        "controller.memory.tick_event"
    ]
    metrics["controller.skip_idle.self_s"] = self_s["controller.skip_idle"]
    metrics.update(model_counts(plain.results.values()))
    return metrics
