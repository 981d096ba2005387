"""Trace representation consumed by the core model.

A trace is an (infinite) stream of :class:`TraceEntry` records, each
describing a memory instruction preceded by a number of non-memory
instructions.  Addresses are byte addresses within the benchmark's private
footprint; the simulator relocates each core's footprint to a disjoint
region of physical memory.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple


class TraceEntry(NamedTuple):
    """One memory instruction and the non-memory instructions before it.

    An immutable record that is cheap to build positionally, since the
    generators build one per access (for the timed run and for every
    LLC warmup).
    """

    #: Number of non-memory instructions executed before this access.
    gap: int
    #: Byte address of the access (within the benchmark's footprint).
    address: int
    #: True for a store, False for a load.
    is_write: bool
    #: True when this load depends on earlier outstanding loads (pointer
    #: chasing): the core cannot issue it until those loads complete, which
    #: makes the benchmark latency-sensitive rather than bandwidth-bound.
    depends: bool = False


def take(trace: Iterator[TraceEntry], count: int) -> list[TraceEntry]:
    """Materialize the first ``count`` entries of a trace (for testing).

    A trace shorter than ``count`` yields its materialized prefix rather
    than letting the generator's bare ``StopIteration`` escape into the
    caller (where, inside another generator, PEP 479 would turn it into a
    ``RuntimeError`` far from the truncated source).
    """
    result = []
    for _ in range(count):
        try:
            result.append(next(trace))
        except StopIteration:
            break
    return result


def summarize(entries: list[TraceEntry]) -> dict:
    """Aggregate statistics of a trace sample (used in tests and examples)."""
    if not entries:
        return {
            "accesses": 0,
            "instructions": 0,
            "write_fraction": 0.0,
            "memory_fraction": 0.0,
        }
    accesses = len(entries)
    instructions = sum(entry.gap + 1 for entry in entries)
    writes = sum(1 for entry in entries if entry.is_write)
    return {
        "accesses": accesses,
        "instructions": instructions,
        "write_fraction": writes / accesses,
        "memory_fraction": accesses / instructions,
    }
