"""Synthetic address-trace generators.

Each generator yields an infinite stream of :class:`TraceEntry` records.
They are deliberately simple, seeded and reproducible; their parameters are
chosen per benchmark (see :mod:`repro.workloads.benchmark_suite`) to mimic
the memory behaviour classes of the paper's workloads:

* ``streaming_trace``  — sequential sweeps over a large footprint
  (STREAM-like): every access misses the LLC, row-buffer locality is high.
* ``strided_trace``    — constant-stride sweeps (stencil/matrix-like):
  misses with moderate row locality.
* ``random_trace``     — uniformly random lines over the footprint
  (HPCC RandomAccess-like): misses with minimal row locality.
* ``mixed_trace``      — alternating bursts of streaming and random access
  (transaction-processing-like).

``dependent_fraction`` controls how many loads are flagged as depending on
earlier outstanding loads (pointer chasing).  Dependent loads serialize the
core's memory-level parallelism, which is what makes a workload sensitive
to the latency added by refresh operations.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.workloads.trace import TraceEntry

LINE_BYTES = 64


def _gap(rng: random.Random, memory_fraction: float) -> int:
    """Draw the number of non-memory instructions before the next access.

    ``memory_fraction`` is the fraction of instructions that are memory
    accesses; gaps follow a geometric-like distribution with the matching
    mean so intensity is controlled precisely in expectation.
    """
    if memory_fraction >= 1.0:
        return 0
    mean_gap = (1.0 - memory_fraction) / memory_fraction
    # Exponential draw, truncated to keep the tail bounded.
    gap = rng.expovariate(1.0 / mean_gap) if mean_gap > 0 else 0.0
    return min(int(gap), int(mean_gap * 8) + 1)


def _entry(
    rng: random.Random,
    address: int,
    memory_fraction: float,
    write_fraction: float,
    dependent_fraction: float,
) -> TraceEntry:
    # Draw order (write, dependence, gap) is part of every trace's identity.
    is_write = rng.random() < write_fraction
    depends = (not is_write) and rng.random() < dependent_fraction
    return TraceEntry(_gap(rng, memory_fraction), address, is_write, depends)


def streaming_trace(
    footprint_bytes: int,
    memory_fraction: float,
    write_fraction: float,
    seed: int = 0,
    run_length: int = 128,
    dependent_fraction: float = 0.05,
) -> Iterator[TraceEntry]:
    """Sequential streams: long runs of consecutive cache lines.

    ``run_length`` consecutive lines are touched before jumping to a new
    random position, which keeps DRAM row-buffer locality high while still
    spreading accesses over banks.
    """
    rng = random.Random(seed)
    lines = max(1, footprint_bytes // LINE_BYTES)
    position = rng.randrange(lines)
    remaining = run_length
    while True:
        if remaining == 0:
            position = rng.randrange(lines)
            remaining = run_length
        address = (position % lines) * LINE_BYTES
        yield _entry(rng, address, memory_fraction, write_fraction, dependent_fraction)
        position += 1
        remaining -= 1


def strided_trace(
    footprint_bytes: int,
    memory_fraction: float,
    write_fraction: float,
    stride_bytes: int = 256,
    seed: int = 0,
    dependent_fraction: float = 0.1,
) -> Iterator[TraceEntry]:
    """Constant-stride sweeps over the footprint."""
    rng = random.Random(seed)
    if stride_bytes < LINE_BYTES:
        raise ValueError("stride must be at least one cache line")
    position = 0
    footprint = max(stride_bytes, footprint_bytes)
    while True:
        address = position % footprint
        yield _entry(rng, address, memory_fraction, write_fraction, dependent_fraction)
        position += stride_bytes


def random_trace(
    footprint_bytes: int,
    memory_fraction: float,
    write_fraction: float,
    seed: int = 0,
    dependent_fraction: float = 0.7,
) -> Iterator[TraceEntry]:
    """Uniformly random line accesses (GUPS / HPCC RandomAccess-like)."""
    rng = random.Random(seed)
    lines = max(1, footprint_bytes // LINE_BYTES)
    while True:
        address = rng.randrange(lines) * LINE_BYTES
        yield _entry(rng, address, memory_fraction, write_fraction, dependent_fraction)


def mixed_trace(
    footprint_bytes: int,
    memory_fraction: float,
    write_fraction: float,
    seed: int = 0,
    burst_length: int = 64,
    streaming_share: float = 0.5,
    dependent_fraction: float = 0.4,
) -> Iterator[TraceEntry]:
    """Alternating bursts of streaming and random accesses (TPC-like)."""
    rng = random.Random(seed)
    stream = streaming_trace(
        footprint_bytes,
        memory_fraction,
        write_fraction,
        seed=seed + 1,
        dependent_fraction=dependent_fraction / 4,
    )
    scatter = random_trace(
        footprint_bytes,
        memory_fraction,
        write_fraction,
        seed=seed + 2,
        dependent_fraction=dependent_fraction,
    )
    while True:
        source = stream if rng.random() < streaming_share else scatter
        for _ in range(burst_length):
            yield next(source)


GENERATORS = {
    "streaming": streaming_trace,
    "strided": strided_trace,
    "random": random_trace,
    "mixed": mixed_trace,
}
