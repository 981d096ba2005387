"""repro: reproduction of "Improving DRAM Performance by Parallelizing
Refreshes with Accesses" (Chang et al., HPCA 2014).

The package implements, from scratch, a cycle-level DRAM system simulator
(DDR3-1333 timing model with ranks, banks and subarrays), an FR-FCFS memory
controller with write batching, an out-of-order-lite multi-core front end
with a writeback last-level cache, a Micron-style DRAM power model, and the
paper's refresh mechanisms:

* **DARP**  — Dynamic Access Refresh Parallelization (out-of-order per-bank
  refresh plus write-refresh parallelization),
* **SARP**  — Subarray Access Refresh Parallelization (serving accesses to
  idle subarrays of a refreshing bank),
* **DSARP** — the combination of both,

together with the baselines they are compared against: all-bank refresh,
per-bank refresh, elastic refresh, DDR4 fine-granularity refresh and
adaptive refresh.

Quickstart
----------
>>> from repro import paper_system, run_mechanism_comparison
>>> result = run_mechanism_comparison(
...     density_gb=32, mechanisms=("refab", "refpb", "dsarp", "none"),
...     cycles=6000,
... )
>>> sorted(result.weighted_speedup, key=result.weighted_speedup.get)
"""

from repro.config import (
    CacheConfig,
    ControllerConfig,
    CPUConfig,
    DRAMConfig,
    DRAMOrganization,
    DRAMTimings,
    RefreshConfig,
    RefreshMechanism,
    SystemConfig,
    baseline_densities,
    mechanism_names,
    paper_system,
)
from repro.engine import (
    InMemoryStore,
    ParallelExecutor,
    SerialExecutor,
    SimulationJob,
    SqliteStore,
)
from repro.sim.results import SimulationResult, WorkloadResult
from repro.sim.runner import ExperimentRunner, run_mechanism_comparison, run_workload
from repro.sim.simulator import Simulator
from repro.sweep import Axis, SweepSpec, WorkloadSpec, run_sweep
from repro.version import __version__
from repro.workloads import (
    Benchmark,
    Workload,
    benchmark_suite,
    make_workload,
    make_workload_category,
)

__all__ = [
    "__version__",
    "SimulationJob",
    "SerialExecutor",
    "ParallelExecutor",
    "InMemoryStore",
    "SqliteStore",
    "SystemConfig",
    "DRAMConfig",
    "DRAMOrganization",
    "DRAMTimings",
    "ControllerConfig",
    "CPUConfig",
    "CacheConfig",
    "RefreshConfig",
    "RefreshMechanism",
    "paper_system",
    "baseline_densities",
    "mechanism_names",
    "Simulator",
    "SimulationResult",
    "WorkloadResult",
    "ExperimentRunner",
    "run_workload",
    "run_mechanism_comparison",
    "Axis",
    "SweepSpec",
    "WorkloadSpec",
    "run_sweep",
    "Benchmark",
    "Workload",
    "benchmark_suite",
    "make_workload",
    "make_workload_category",
]
