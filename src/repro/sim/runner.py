"""Experiment runner with result caching, built on the experiment engine.

Reproducing the paper's figures requires many simulations sharing common
pieces (the REFab baseline, the alone-run IPCs of each benchmark, ...).
The :class:`ExperimentRunner` memoizes every simulation it performs, keyed
by its job's :meth:`~repro.engine.jobs.SimulationJob.key`, so the figure-
and table-level experiments can be composed without repeating work.

Execution is delegated to the :mod:`repro.engine` subsystem: the runner
*plans* batches of :class:`~repro.engine.jobs.SimulationJob` specs and
submits them through a :class:`~repro.engine.executor.JobExecutor`.  With a
:class:`~repro.engine.executor.ParallelExecutor` the batch fans out across
cores, and with a persistent :class:`~repro.engine.store.ResultStore` the
results are shared across processes, benchmarks and CI runs.  The
single-call API (:meth:`ExperimentRunner.simulate`, ...) is a thin wrapper
over the batched one (:meth:`simulate_many`, :meth:`run_many`,
:meth:`compare_many`).
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Iterable, Optional, Sequence

from repro.config.obs_config import ObsConfig
from repro.config.presets import paper_system
from repro.config.refresh_config import RefreshMechanism
from repro.config.system import SystemConfig
from repro.obs.log import get_logger
from repro.engine.executor import JobExecutor, SerialExecutor
from repro.engine.jobs import SimulationJob
from repro.engine.progress import SOURCE_MEMORY, JobEvent, ProgressCallback
from repro.engine.store import ResultStore
from repro.sim.results import MechanismComparison, SimulationResult, WorkloadResult
from repro.workloads.benchmark_suite import Benchmark
from repro.workloads.mixes import Workload, make_workload, make_workload_category

#: Default measured window, in DRAM cycles (~39 us of DDR3-1333 time, i.e.
#: ten all-bank refresh intervals at 32 ms retention).
DEFAULT_CYCLES = 26000
#: Default warmup window (one refresh interval).
DEFAULT_WARMUP = 2600

log = get_logger(__name__)


def default_cycles() -> int:
    """Measured-window length, overridable through ``REPRO_CYCLES``."""
    return int(os.environ.get("REPRO_CYCLES", DEFAULT_CYCLES))


def default_warmup() -> int:
    """Warmup length, overridable through ``REPRO_WARMUP``."""
    return int(os.environ.get("REPRO_WARMUP", DEFAULT_WARMUP))


class ExperimentRunner:
    """Plans, runs and caches simulations for the experiment harness.

    Parameters
    ----------
    cycles, warmup, seed:
        The measured window shared by every simulation this runner plans.
    executor:
        Engine executor the job batches are submitted through; defaults to
        a :class:`~repro.engine.executor.SerialExecutor`.  Pass a
        :class:`~repro.engine.executor.ParallelExecutor` to fan batches
        out over worker processes.
    store:
        Optional persistent result store consulted before simulating and
        warmed with every fresh result.
    progress:
        Optional callback receiving one
        :class:`~repro.engine.progress.JobEvent` per resolved job.
    kernel:
        Optional execution-kernel override (``"event"`` or ``"cycle"``)
        applied to every configuration this runner simulates.  The two
        kernels produce bit-identical results (enforced by the
        differential suite in ``tests/test_kernel_equivalence.py``), so
        the kernel is not part of the job key and cached results are
        shared across kernels.
    scheduler, page_policy:
        Optional controller-policy overrides applied to every configuration
        this runner simulates (including the alone runs), mirroring the
        ``--scheduler`` / ``--page-policy`` CLI flags.  Unlike the kernel,
        these *do* change results, so they are part of every job key.
    obs:
        Optional :class:`~repro.config.obs_config.ObsConfig` applied to
        every configuration this runner simulates (the ``--trace`` /
        ``--epoch-interval`` CLI flags).  Like the kernel, observability
        never changes results and is excluded from job keys — but
        note the flip side: a job resolved from a store or memory cache
        skips simulation entirely and therefore writes no trace.
    """

    def __init__(
        self,
        cycles: Optional[int] = None,
        warmup: Optional[int] = None,
        seed: int = 0,
        executor: Optional[JobExecutor] = None,
        store: Optional[ResultStore] = None,
        progress: Optional[ProgressCallback] = None,
        kernel: Optional[str] = None,
        scheduler: Optional[str] = None,
        page_policy: Optional[str] = None,
        obs: Optional[ObsConfig] = None,
    ):
        self.cycles = cycles if cycles is not None else default_cycles()
        self.warmup = warmup if warmup is not None else default_warmup()
        self.seed = seed
        self.executor = executor if executor is not None else SerialExecutor()
        self.store = store
        self.progress = progress
        self.kernel = kernel
        self.scheduler = scheduler
        self.page_policy = page_policy
        self.obs = obs
        # Bad overrides fail fast, here, by the config's own checks.
        self._effective_config(paper_system())
        self.memory_hits = 0
        #: (config, workload, window) -> the job planned for it, so each
        #: pair's overrides are applied and its key derived once.
        self._jobs: dict[tuple, SimulationJob] = {}
        #: Job key -> result.
        self._simulation_cache: dict[str, SimulationResult] = {}

    # -- job planning ------------------------------------------------------------
    def _effective_config(self, config: SystemConfig) -> SystemConfig:
        """Apply this runner's kernel/policy overrides to a configuration.

        Every job goes through this (see :meth:`_job`), so cache lookups
        and the jobs that populate the cache always agree on the
        (post-override) identity.
        """
        if self.kernel is not None and config.kernel != self.kernel:
            config = config.with_kernel(self.kernel)
        if self.scheduler is not None and config.controller.scheduler != self.scheduler:
            config = config.with_scheduler(self.scheduler)
        if (
            self.page_policy is not None
            and config.controller.page_policy != self.page_policy
        ):
            config = config.with_page_policy(self.page_policy)
        if self.obs is not None and config.obs != self.obs:
            config = replace(config, obs=self.obs)
        return config

    def _job(self, config: SystemConfig, workload: Workload) -> SimulationJob:
        """The job this runner plans for a pair, built once per pair."""
        memo = (config, workload, self.cycles, self.warmup, self.seed)
        job = self._jobs.get(memo)
        if job is None:
            job = self._jobs[memo] = SimulationJob(
                config=self._effective_config(config),
                workload=workload,
                cycles=self.cycles,
                warmup=self.warmup,
                seed=self.seed,
            )
        return job

    def _result_for(self, config: SystemConfig, workload: Workload) -> SimulationResult:
        """Cached result if present, without touching the hit counters."""
        cached = self._simulation_cache.get(self._job(config, workload).key())
        if cached is not None:
            return cached
        return self.simulate(config, workload)

    # -- raw simulations ---------------------------------------------------------
    def simulate(self, config: SystemConfig, workload: Workload) -> SimulationResult:
        """Run (or recall) one simulation."""
        return self.simulate_many([(config, workload)])[0]

    def simulate_many(
        self, pairs: Iterable[tuple[SystemConfig, Workload]]
    ) -> list[SimulationResult]:
        """Run (or recall) a batch of simulations, preserving order.

        Cache misses are planned as one job batch and submitted through
        the engine executor, so independent simulations run concurrently
        when the executor is parallel.
        """
        pairs = list(pairs)
        jobs = [self._job(config, workload) for config, workload in pairs]
        keys = [job.key() for job in jobs]
        missing: list[SimulationJob] = []
        missing_keys: set[str] = set()
        missing_positions: list[int] = []
        for index, (job, key) in enumerate(zip(jobs, keys)):
            if key in self._simulation_cache or key in missing_keys:
                # Either already known, or a duplicate within this batch
                # that the first occurrence will resolve — no new work.
                self.memory_hits += 1
                if self.progress is not None:
                    self.progress(
                        JobEvent(
                            index=index,
                            total=len(jobs),
                            key=key,
                            label=job.describe(),
                            source=SOURCE_MEMORY,
                        )
                    )
            else:
                missing.append(job)
                missing_keys.add(key)
                missing_positions.append(index)
        if missing:
            log.debug(
                "batch of %d jobs: %d cache hits, %d to execute",
                len(jobs),
                len(jobs) - len(missing),
                len(missing),
            )
            progress = self.progress
            forward = None
            if progress is not None:
                # The executor numbers events within the missing-only
                # sub-batch; renumber them into this batch's index space so
                # the [i/total] counters stay consistent with memory hits.
                def forward(event: JobEvent) -> None:
                    progress(
                        replace(
                            event,
                            index=missing_positions[event.index],
                            total=len(jobs),
                        )
                    )

            results = self.executor.run(missing, store=self.store, progress=forward)
            for job, result in zip(missing, results):
                self._simulation_cache[job.key()] = result
        return [self._simulation_cache[key] for key in keys]

    # -- alone runs for weighted speedup ---------------------------------------------
    def _alone_config(self, config: SystemConfig) -> SystemConfig:
        return (
            config.with_mechanism(RefreshMechanism.NONE).with_cores(1).with_density(8)
        )

    @staticmethod
    def _alone_workload(benchmark: Benchmark) -> Workload:
        return make_workload([benchmark], name=f"alone_{benchmark.name}", seed=0)

    def alone_ipc(self, benchmark: Benchmark, config: SystemConfig) -> float:
        """IPC of a benchmark running alone (single core, no refresh).

        The alone IPC only normalizes the weighted-speedup metric; using the
        refresh-free system for it keeps the normalization identical across
        mechanisms, so mechanism orderings are unaffected.  The alone run is
        also pinned to the 8 Gb density: without refresh the density only
        changes unused refresh timings, and pinning it lets the alone runs
        be shared across density sweeps.
        """
        return self._alone_ipc(benchmark, self._alone_config(config))

    def _alone_ipc(self, benchmark: Benchmark, alone_config: SystemConfig) -> float:
        result = self._result_for(alone_config, self._alone_workload(benchmark))
        return max(result.cores[0].ipc, 1e-6)

    def alone_ipcs(self, workload: Workload, config: SystemConfig) -> list[float]:
        alone_config = self._alone_config(config)
        return [
            self._alone_ipc(benchmark, alone_config)
            for benchmark in workload.benchmarks
        ]

    # -- workload-level experiments --------------------------------------------------
    def run_workload(self, workload: Workload, config: SystemConfig) -> WorkloadResult:
        """Simulate a workload and derive its system-level metrics."""
        return self.run_many([(workload, config)])[0]

    def run_many(
        self, pairs: Sequence[tuple[Workload, SystemConfig]]
    ) -> list[WorkloadResult]:
        """Batched :meth:`run_workload`: one engine submission for everything.

        The batch contains every main simulation *and* every distinct
        alone-run simulation the weighted-speedup normalization needs, so a
        parallel executor can fan the whole figure-level sweep out at once.
        """
        pairs = list(pairs)
        plan: list[tuple[SystemConfig, Workload]] = [
            (config, workload) for workload, config in pairs
        ]
        planned_alone: set[str] = set()
        for workload, config in pairs:
            alone_config = self._alone_config(config)
            for benchmark in workload.benchmarks:
                alone_workload = self._alone_workload(benchmark)
                alone_key = self._job(alone_config, alone_workload).key()
                if alone_key not in planned_alone:
                    planned_alone.add(alone_key)
                    plan.append((alone_config, alone_workload))
        log.debug(
            "run_many: %d workload runs + %d alone runs planned",
            len(pairs),
            len(plan) - len(pairs),
        )
        self.simulate_many(plan)
        # Assembly is all cache hits now that the batch has run.
        return [
            WorkloadResult(
                simulation=self._result_for(config, workload),
                alone_ipcs=self.alone_ipcs(workload, config),
            )
            for workload, config in pairs
        ]

    def compare(
        self,
        workload: Workload,
        base_config: SystemConfig,
        mechanisms: Iterable[RefreshMechanism | str],
    ) -> MechanismComparison:
        """Run one workload under several refresh mechanisms."""
        return self.compare_many([workload], base_config, mechanisms)[0]

    def compare_many(
        self,
        workloads: Sequence[Workload],
        base_config: SystemConfig,
        mechanisms: Iterable[RefreshMechanism | str],
    ) -> list[MechanismComparison]:
        """Batched :meth:`compare`: every (workload, mechanism) in one batch."""
        mechanisms = list(mechanisms)
        configs = [base_config.with_mechanism(mechanism) for mechanism in mechanisms]
        results = self.run_many(
            [(workload, config) for workload in workloads for config in configs]
        )
        comparisons = []
        for workload_index, workload in enumerate(workloads):
            comparison = MechanismComparison(
                workload=workload.name, density_gb=base_config.dram.density_gb
            )
            for mechanism_index, config in enumerate(configs):
                name = config.refresh.mechanism.value
                comparison.results[name] = results[
                    workload_index * len(configs) + mechanism_index
                ]
            comparisons.append(comparison)
        return comparisons

    # -- bookkeeping -------------------------------------------------------------
    def cache_size(self) -> int:
        """Number of distinct simulations known to this runner."""
        return len(self._simulation_cache)

    def summary(self) -> dict:
        """Counters for run reporting: where every planned job came from."""
        summary = self.executor.stats.as_dict()
        summary["jobs"] += self.memory_hits
        summary["memory_hits"] = self.memory_hits
        return summary


# -- module-level conveniences ------------------------------------------------------
_DEFAULT_RUNNER: Optional[ExperimentRunner] = None


def get_default_runner() -> ExperimentRunner:
    """A process-wide runner so tests, examples and benches share the cache."""
    global _DEFAULT_RUNNER
    if _DEFAULT_RUNNER is None:
        _DEFAULT_RUNNER = ExperimentRunner()
    return _DEFAULT_RUNNER


def run_workload(
    workload: Workload,
    density_gb: int = 8,
    mechanism: RefreshMechanism | str = RefreshMechanism.REFAB,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    **config_kwargs,
) -> WorkloadResult:
    """Convenience wrapper: run one workload on the paper's system."""
    runner = (
        get_default_runner()
        if cycles is None and warmup is None
        else ExperimentRunner(cycles=cycles, warmup=warmup)
    )
    config = paper_system(
        density_gb=density_gb,
        mechanism=mechanism,
        num_cores=workload.num_cores,
        **config_kwargs,
    )
    return runner.run_workload(workload, config)


def run_mechanism_comparison(
    density_gb: int = 8,
    mechanisms: Iterable[RefreshMechanism | str] = ("refab", "refpb", "dsarp", "none"),
    workload: Optional[Workload] = None,
    category: int = 100,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    num_cores: int = 8,
    **config_kwargs,
) -> MechanismComparison:
    """Convenience wrapper: compare mechanisms on one workload."""
    if workload is None:
        workload = make_workload_category(category, index=0, num_cores=num_cores)
    runner = (
        get_default_runner()
        if cycles is None and warmup is None
        else ExperimentRunner(cycles=cycles, warmup=warmup)
    )
    config = paper_system(
        density_gb=density_gb, num_cores=workload.num_cores, **config_kwargs
    )
    return runner.compare(workload, config, mechanisms)
