"""Simulation job specifications.

A :class:`SimulationJob` captures everything that determines one simulation
outcome — the system configuration, the workload, the measured window and
the seed — as a picklable value object.  Jobs travel across process
boundaries (the :class:`~repro.engine.executor.ParallelExecutor` ships them
to worker processes) and their :meth:`~SimulationJob.key` is the one
identity under which results are memoized, stored in a
:class:`~repro.engine.store.ResultStore`, checked on the remote wire and
named on disk.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional

from repro.config.serialize import check_fields, to_plain
from repro.config.system import SystemConfig
from repro.controller.policies import scheduler_class
from repro.obs.log import get_logger
from repro.workloads.mixes import Workload

if TYPE_CHECKING:  # avoid repro.sim <-> repro.engine import cycle
    from repro.cache.warm import WarmStates
    from repro.sim.results import SimulationResult

log = get_logger(__name__)


@dataclass(frozen=True)
class SimulationJob:
    """One simulation to perform, identified by its :meth:`key`."""

    config: SystemConfig
    workload: Workload
    cycles: int
    warmup: int
    seed: int

    def __post_init__(self) -> None:
        # Jobs also arrive over the remote wire, and a malformed window
        # would otherwise simulate (and be cached under its own key)
        # silently: a negative warmup runs as 0.
        check_fields(self)
        if self.cycles < 1:
            raise ValueError(f"cycles must be positive, got {self.cycles}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be non-negative, got {self.warmup}")

    def to_dict(self) -> dict:
        """JSON form of the job: the full configuration, the workload with
        every benchmark's parameters, the window and the seed."""
        return {
            "config": self.config.to_dict(),
            "workload": to_plain(self.workload),
            "cycles": self.cycles,
            "warmup": self.warmup,
            "seed": self.seed,
        }

    def key(self) -> str:
        """The job's identity: sha256 of the canonical JSON of :meth:`to_dict`.

        Every field that can change a result is in it, so no field list has
        to be kept in step with the config.  Three fields are left out
        because they never change one: the execution ``kernel`` (the two
        are bit-identical), the observability settings ``obs``, and
        ``row_hit_cap`` under a scheduler that does not read it.  Derived
        once per job and kept.
        """
        return self._key

    @cached_property
    def _key(self) -> str:
        plain = self.to_dict()
        config = plain["config"]
        del config["kernel"], config["obs"]
        if not scheduler_class(self.config.controller.scheduler).uses_row_hit_cap:
            del config["controller"]["row_hit_cap"]
        encoded = json.dumps(plain, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Short human-readable label for progress reporting."""
        return (
            f"{self.workload.name}/{self.config.refresh.mechanism.value}"
            f"@{self.config.dram.density_gb}Gb"
        )

    def estimated_cost(self) -> float:
        """Relative wall-clock estimate, for shard planning.

        Simulated cycles (warmup plus the measured window) times the core
        count tracks the per-cycle work the kernel performs; the shard
        planner (:func:`repro.engine.queue.plan_shards`) balances shards
        by this so an 8-core full-window cell does not share a shard with
        a dozen cheap single-core alone runs.
        """
        return float(max(1, self.cycles + self.warmup)) * float(
            max(1, self.config.cpu.num_cores)
        )

    def run(self, warm_states: Optional["WarmStates"] = None) -> "SimulationResult":
        """Execute the simulation this job describes.

        ``warm_states`` is the running process's holder of warmed LLC
        states; passing the same one to every job lets jobs that share a
        benchmark and warm seed skip each other's cache warmups.  Results
        are identical with or without it.

        When the configuration arms the tracer and names a trace
        directory, the trace is persisted next to the result — this also
        runs inside pool workers, since the job (and its
        :class:`~repro.config.obs_config.ObsConfig`) pickles across the
        process boundary.
        """
        # Imported here to keep job specs importable without pulling the
        # whole simulator into every worker that only plans batches.
        from repro.sim.simulator import Simulator

        log.debug(
            "simulating %s (%d+%d cycles, seed %d)",
            self.describe(),
            self.warmup,
            self.cycles,
            self.seed,
        )
        simulator = Simulator(
            self.config, self.workload, seed=self.seed, warm_states=warm_states
        )
        result = simulator.run(self.cycles, warmup=self.warmup)
        obs = self.config.obs
        if obs.trace and obs.trace_dir:
            self._write_trace(simulator, result)
        return result

    def _write_trace(self, simulator, result: "SimulationResult") -> None:
        """Persist the run's command trace (and epoch samples) to disk."""
        from pathlib import Path

        from repro.obs.epochs import merge_epoch_samples
        from repro.obs.trace import trace_header, write_trace

        tracer = simulator.memory.tracer
        if tracer is None:
            return
        obs = self.config.obs
        extra = {
            "device_stats": result.device_stats,
            "refresh_stats": result.refresh_stats,
            "controller_stats": result.controller_stats,
            "epoch_interval": obs.epoch_interval,
            "epochs": [sample.as_dict() for sample in simulator.epoch_samples],
        }
        if simulator.epoch_samples:
            extra["epoch_totals"] = merge_epoch_samples(simulator.epoch_samples)
        header = trace_header(
            workload=self.workload.name,
            mechanism=self.config.refresh.mechanism.value,
            density_gb=self.config.dram.density_gb,
            cycles=self.cycles,
            warmup=self.warmup,
            seed=self.seed,
            job_key=self.key(),
            tracer=tracer,
            extra=extra,
        )
        directory = Path(obs.trace_dir)
        directory.mkdir(parents=True, exist_ok=True)
        suffix = "jsonl" if obs.trace_format == "jsonl" else "bin"
        name = self.describe().replace("/", "_").replace("@", "_")
        path = directory / f"{name}_{self.key()[:12]}.{suffix}"
        write_trace(path, header, tracer.records, fmt=obs.trace_format)
        log.debug(
            "wrote trace %s (%d records, %d dropped)",
            path,
            len(tracer.records),
            tracer.dropped,
        )


def execute_job(
    job: SimulationJob, warm_states: Optional["WarmStates"] = None
) -> "SimulationResult":
    """Module-level entry point for process-pool workers (picklable)."""
    return job.run(warm_states)
