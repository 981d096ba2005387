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

A pattern only supplies its address stream; :func:`_draw_entries` is the
one loop that draws every access's write, dependence and gap.  The loop
and its address stream share one random generator, and the stream draws
when the loop resumes it, so each access's draws come in the order
address, write, dependence, gap.  That order is every trace's identity.

:func:`_draw_accesses` is the same loop for a cache warmup, which needs
only each access's address and write flag: it makes the very same draws
in the same order but builds no entry and computes no gap.  Every
generator takes the loop to use as ``draw``, so a warm stream and a
trace of one seed come from one address stream.
"""

from __future__ import annotations

import math
import random
from itertools import islice
from typing import Callable, Iterator

from repro.workloads.trace import TraceEntry

LINE_BYTES = 64


def _draw_entries(
    rng: random.Random,
    addresses: Iterator[int],
    memory_fraction: float,
    write_fraction: float,
    dependent_fraction: float,
) -> Iterator[TraceEntry]:
    """Turn an address stream into trace entries, drawing from ``rng``.

    A store never depends on anything, so the dependence draw is made for
    loads only.  ``memory_fraction`` is the fraction of instructions that
    are memory accesses: the gap of non-memory instructions before each
    access is an exponential draw with the matching mean (exactly
    ``Random.expovariate``'s arithmetic), truncated to keep the tail
    bounded, so intensity is controlled precisely in expectation.  When
    every instruction is an access no gap is drawn.
    """
    draw = rng.random
    log = math.log
    # TraceEntry's generated constructor is Python code; build the tuple
    # directly instead.
    new = tuple.__new__
    if memory_fraction < 1.0:
        mean_gap = (1.0 - memory_fraction) / memory_fraction
        lambd = 1.0 / mean_gap
        cap = int(mean_gap * 8) + 1
    else:
        lambd = cap = 0
    for address in addresses:
        is_write = draw() < write_fraction
        depends = not is_write and draw() < dependent_fraction
        if lambd:
            gap = int(-log(1.0 - draw()) / lambd)
            if gap > cap:
                gap = cap
        else:
            gap = 0
        yield new(TraceEntry, (gap, address, is_write, depends))


def _draw_accesses(
    rng: random.Random,
    addresses: Iterator[int],
    memory_fraction: float,
    write_fraction: float,
    dependent_fraction: float,
) -> Iterator[tuple[int, bool]]:
    """:func:`_draw_entries`'s draws, yielding only ``(address, is_write)``.

    The dependence and gap draws are made (so the stream and every later
    access see the same generator state) and their values dropped.
    """
    draw = rng.random
    gaps = memory_fraction < 1.0
    for address in addresses:
        is_write = draw() < write_fraction
        if not is_write:
            draw()
        if gaps:
            draw()
        yield address, is_write


#: The loop a generator runs over its address stream.
Draw = Callable[..., Iterator]


def _streaming_addresses(
    rng: random.Random, footprint_bytes: int, run_length: int
) -> Iterator[int]:
    lines = max(1, footprint_bytes // LINE_BYTES)
    while True:
        start = rng.randrange(lines)
        for position in range(start, start + run_length):
            yield (position % lines) * LINE_BYTES


def streaming_trace(
    footprint_bytes: int,
    memory_fraction: float,
    write_fraction: float,
    seed: int = 0,
    run_length: int = 128,
    dependent_fraction: float = 0.05,
    draw: Draw = _draw_entries,
) -> Iterator[TraceEntry]:
    """Sequential streams: long runs of consecutive cache lines.

    ``run_length`` consecutive lines are touched before jumping to a new
    random position, which keeps DRAM row-buffer locality high while still
    spreading accesses over banks.
    """
    if run_length < 1:
        raise ValueError("run_length must be at least one line")
    rng = random.Random(seed)
    return draw(
        rng,
        _streaming_addresses(rng, footprint_bytes, run_length),
        memory_fraction,
        write_fraction,
        dependent_fraction,
    )


def _strided_addresses(footprint_bytes: int, stride_bytes: int) -> Iterator[int]:
    footprint = max(stride_bytes, footprint_bytes)
    position = 0
    while True:
        yield position % footprint
        position += stride_bytes


def strided_trace(
    footprint_bytes: int,
    memory_fraction: float,
    write_fraction: float,
    stride_bytes: int = 256,
    seed: int = 0,
    dependent_fraction: float = 0.1,
    draw: Draw = _draw_entries,
) -> Iterator[TraceEntry]:
    """Constant-stride sweeps over the footprint."""
    if stride_bytes < LINE_BYTES:
        raise ValueError("stride must be at least one cache line")
    return draw(
        random.Random(seed),
        _strided_addresses(footprint_bytes, stride_bytes),
        memory_fraction,
        write_fraction,
        dependent_fraction,
    )


def _random_addresses(rng: random.Random, footprint_bytes: int) -> Iterator[int]:
    # ``rng.randrange(lines)``, inlined: the same rejection sampling over
    # ``getrandbits`` that ``Random.randrange`` does, without its
    # per-call argument checks.
    getrandbits = rng.getrandbits
    lines = max(1, footprint_bytes // LINE_BYTES)
    bits = lines.bit_length()
    while True:
        line = getrandbits(bits)
        while line >= lines:
            line = getrandbits(bits)
        yield line * LINE_BYTES


def random_trace(
    footprint_bytes: int,
    memory_fraction: float,
    write_fraction: float,
    seed: int = 0,
    dependent_fraction: float = 0.7,
    draw: Draw = _draw_entries,
) -> Iterator[TraceEntry]:
    """Uniformly random line accesses (GUPS / HPCC RandomAccess-like)."""
    rng = random.Random(seed)
    return draw(
        rng,
        _random_addresses(rng, footprint_bytes),
        memory_fraction,
        write_fraction,
        dependent_fraction,
    )


def _mixed_entries(
    rng: random.Random,
    stream: Iterator[TraceEntry],
    scatter: Iterator[TraceEntry],
    burst_length: int,
    streaming_share: float,
) -> Iterator[TraceEntry]:
    draw = rng.random
    while True:
        yield from islice(stream if draw() < streaming_share else scatter, burst_length)


def mixed_trace(
    footprint_bytes: int,
    memory_fraction: float,
    write_fraction: float,
    seed: int = 0,
    burst_length: int = 64,
    streaming_share: float = 0.5,
    dependent_fraction: float = 0.4,
    draw: Draw = _draw_entries,
) -> Iterator[TraceEntry]:
    """Alternating bursts of streaming and random accesses (TPC-like).

    The two sources keep their own seeds and positions across bursts;
    this trace's own generator only picks each burst's source.
    """
    return _mixed_entries(
        random.Random(seed),
        streaming_trace(
            footprint_bytes,
            memory_fraction,
            write_fraction,
            seed=seed + 1,
            dependent_fraction=dependent_fraction / 4,
            draw=draw,
        ),
        random_trace(
            footprint_bytes,
            memory_fraction,
            write_fraction,
            seed=seed + 2,
            dependent_fraction=dependent_fraction,
            draw=draw,
        ),
        burst_length,
        streaming_share,
    )


GENERATORS = {
    "streaming": streaming_trace,
    "strided": strided_trace,
    "random": random_trace,
    "mixed": mixed_trace,
}
