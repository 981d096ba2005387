"""Reused LLC warmups give the results of warming every core afresh.

A :class:`~repro.cache.warm.WarmStates` holder lets simulations, and jobs
of one executor or worker process, restore each other's functionally
warmed LLCs.  These tests pin that the reuse is invisible in results.
"""

import pytest

from repro.cache.warm import WarmStates
from repro.config.presets import paper_system
from repro.engine.executor import ParallelExecutor, SerialExecutor
from repro.engine.jobs import SimulationJob
from repro.sim.simulator import Simulator
from repro.workloads.benchmark_suite import get_benchmark
from repro.workloads.mixes import make_workload, make_workload_category

from tests.conftest import small_system

CYCLES = 600
WARMUP = 100
MECHANISMS = ("refab", "darp", "dsarp")


def mix100():
    workload = make_workload_category(100, index=0, num_cores=8)
    names = [benchmark.name for benchmark in workload.benchmarks]
    assert len(set(names)) < len(names), "the mix must repeat a benchmark"
    return workload


def test_mix100_shared_holder_matches_fresh_simulators():
    workload = mix100()
    holder = WarmStates()
    for mechanism in MECHANISMS:
        config = paper_system(density_gb=32, mechanism=mechanism, num_cores=8)
        shared = Simulator(config, workload, warm_states=holder)
        fresh = Simulator(config, workload)
        shared_result = shared.run(CYCLES, warmup=WARMUP)
        assert shared_result.to_dict() == fresh.run(CYCLES, warmup=WARMUP).to_dict()
    # 8 cores at 2 GiB offsets: one warmup per distinct benchmark, in
    # the first simulation only.
    distinct = len(set(workload.benchmarks))
    assert holder.misses == distinct
    assert holder.hits == len(MECHANISMS) * workload.num_cores - distinct


def test_a_single_simulation_warms_each_distinct_benchmark_once():
    workload = mix100()
    config = paper_system(density_gb=32, mechanism="refab", num_cores=8)
    sim = Simulator(config, workload)
    assert sim.warm_states.misses == len(set(workload.benchmarks))


def test_zero_warmup_accesses_leave_every_cache_cold():
    workload = make_workload([get_benchmark("gcc_like")] * 2)
    config = paper_system(density_gb=8, mechanism="none", num_cores=2)
    holder = WarmStates()
    Simulator(config, workload, warm_states=holder)
    cold = Simulator(
        config, workload, functional_warmup_accesses=0, warm_states=holder
    )
    assert all(core.llc._cache.occupancy() == 0 for core in cold.cores)
    assert (holder.hits, holder.misses) == (1, 1)


def job_batch() -> list[SimulationJob]:
    workloads = [
        make_workload([get_benchmark("random_access")] * 2),
        make_workload([get_benchmark("stream_copy"), get_benchmark("random_access")]),
    ]
    return [
        SimulationJob(
            config=small_system(mechanism),
            workload=workload,
            cycles=CYCLES,
            warmup=WARMUP,
            seed=0,
        )
        for workload in workloads
        for mechanism in ("refab", "darp")
    ]


@pytest.fixture(scope="module")
def fresh_results():
    return [
        Simulator(job.config, job.workload, seed=job.seed)
        .run(job.cycles, warmup=job.warmup)
        .to_dict()
        for job in job_batch()
    ]


def test_serial_executor_batch_matches_fresh_simulations(fresh_results):
    executor = SerialExecutor()
    results = executor.run(job_batch())
    assert [result.to_dict() for result in results] == fresh_results
    # random_access warms once for the whole batch.
    assert executor.warm_states.misses == 2
    assert executor.warm_states.hits == 6


def test_parallel_executor_batch_matches_fresh_simulations(fresh_results):
    results = ParallelExecutor(workers=2).run(job_batch())
    assert [result.to_dict() for result in results] == fresh_results
