"""Multi-programmed workload construction.

The paper's 100 workloads are random mixes of benchmarks grouped into five
categories by the fraction of memory-intensive members: 0 %, 25 %, 50 %,
75 % and 100 % (20 workloads per category).  :func:`make_workload_category`
reproduces that construction for an arbitrary core count, and
:func:`make_workload_sweep` builds the per-category sweep used by the
figure-level experiments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Literal, get_args

from repro.config.serialize import check_fields
from repro.obs.log import get_logger
from repro.workloads.benchmark_suite import (
    Benchmark,
    intensive_benchmarks,
    non_intensive_benchmarks,
)

log = get_logger(__name__)

#: The five memory-intensity categories used throughout the evaluation.
IntensityCategory = Literal[0, 25, 50, 75, 100]
INTENSITY_CATEGORIES: tuple[int, ...] = get_args(IntensityCategory)


@dataclass(frozen=True)
class Workload:
    """A multi-programmed workload: one benchmark per core."""

    name: str
    benchmarks: tuple[Benchmark, ...]
    #: Memory-intensity category (percentage of intensive benchmarks), if known.
    category: int = -1
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def num_cores(self) -> int:
        return len(self.benchmarks)


def make_workload(
    benchmarks: list[Benchmark] | tuple[Benchmark, ...],
    name: str | None = None,
    seed: int = 0,
) -> Workload:
    """Build a workload from an explicit benchmark list."""
    benchmarks = tuple(benchmarks)
    if not benchmarks:
        raise ValueError("a workload needs at least one benchmark")
    if name is None:
        name = "+".join(b.name for b in benchmarks)
    return Workload(name=name, benchmarks=benchmarks, seed=seed)


def make_workload_category(
    category: int,
    index: int = 0,
    num_cores: int = 8,
    seed: int = 0,
) -> Workload:
    """Build one random workload of a given memory-intensity category.

    ``category`` is the percentage of memory-intensive benchmarks in the
    mix (one of :data:`INTENSITY_CATEGORIES`).  The construction is
    deterministic in (category, index, num_cores, seed).
    """
    if category not in INTENSITY_CATEGORIES:
        raise ValueError(
            f"category must be one of {INTENSITY_CATEGORIES}, got {category}"
        )
    rng = random.Random((seed, category, index, num_cores).__hash__())
    num_intensive = round(num_cores * category / 100)
    intensive_pool = intensive_benchmarks()
    quiet_pool = non_intensive_benchmarks()
    picks = [rng.choice(intensive_pool) for _ in range(num_intensive)]
    picks += [rng.choice(quiet_pool) for _ in range(num_cores - num_intensive)]
    rng.shuffle(picks)
    log.debug(
        "mix%03d_%02d: %s",
        category,
        index,
        "+".join(benchmark.name for benchmark in picks),
    )
    return Workload(
        name=f"mix{category:03d}_{index:02d}",
        benchmarks=tuple(picks),
        category=category,
        seed=seed + index,
    )


def make_workload_sweep(
    workloads_per_category: int = 2,
    num_cores: int = 8,
    seed: int = 0,
    categories: tuple[int, ...] = INTENSITY_CATEGORIES,
) -> list[Workload]:
    """Build the per-category workload sweep used by the figure experiments.

    The paper uses 20 workloads per category (100 total); the default here
    is much smaller so the reproduction runs in reasonable time — pass a
    larger ``workloads_per_category`` to approach the paper's scale.
    """
    sweep = []
    for category in categories:
        for index in range(workloads_per_category):
            sweep.append(
                make_workload_category(
                    category, index=index, num_cores=num_cores, seed=seed
                )
            )
    return sweep


def memory_intensive_workloads(
    count: int = 4, num_cores: int = 8, seed: int = 0
) -> list[Workload]:
    """Random memory-intensive workloads (used by the sensitivity studies).

    Mirrors Section 5's "16 randomly selected memory-intensive workloads"
    used for the tFAW, subarray-count, core-count and retention studies.
    """
    return [
        make_workload_category(100, index=i, num_cores=num_cores, seed=seed + 1000)
        for i in range(count)
    ]
