"""Set-associative writeback cache with LRU replacement."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional


@dataclass(frozen=True)
class CacheAccessResult:
    """Outcome of a cache access."""

    hit: bool
    #: Line-aligned address of a dirty victim that must be written back,
    #: or None if the access caused no writeback.
    writeback_address: Optional[int] = None


#: Shared outcomes of every access without a writeback (results are
#: immutable, so one instance each serves every cache).
HIT = CacheAccessResult(hit=True)
MISS = CacheAccessResult(hit=False)


class CacheSnapshot(NamedTuple):
    """A cache's resident lines, compactly: enough to rebuild every set.

    Sets are laid out one after another in LRU order (least recently used
    first): set ``i`` owns ``lengths[i]`` consecutive entries of ``tags``
    and of ``dirty`` (one byte per line, 0 or 1).
    """

    num_sets: int
    associativity: int
    line_bytes: int
    lengths: array
    tags: array
    dirty: bytes


class SetAssociativeCache:
    """A write-allocate, writeback, LRU set-associative cache.

    Stores misses allocate the line directly (no fill read is modelled for
    stores); load misses are reported to the caller, which is responsible
    for fetching the line from DRAM.  This matches the paper's observation
    that DRAM writes are exclusively dirty-line writebacks from the LLC.
    """

    def __init__(self, size_bytes: int, associativity: int, line_bytes: int):
        if size_bytes % (associativity * line_bytes):
            raise ValueError("cache size must be a multiple of way size")
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (associativity * line_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")
        # Each set is a dict mapping tag -> dirty flag whose insertion
        # order is the LRU order (least recently used first): a hit
        # re-inserts its tag at the end, a miss evicts the first tag.
        self._sets: list[dict[int, bool]] = [{} for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    # -- address helpers ----------------------------------------------------
    def _index_and_tag(self, address: int) -> tuple[int, int]:
        line = address // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def line_address(self, address: int) -> int:
        """Line-aligned form of ``address``."""
        return (address // self.line_bytes) * self.line_bytes

    # -- access --------------------------------------------------------------
    def access(self, address: int, is_write: bool) -> CacheAccessResult:
        """Perform a load or store; returns hit status and any writeback."""
        tag, index = divmod(address // self.line_bytes, self.num_sets)
        cache_set = self._sets[index]
        if tag in cache_set:
            dirty = cache_set.pop(tag)
            cache_set[tag] = dirty or is_write
            self.hits += 1
            return HIT

        self.misses += 1
        result = MISS
        if len(cache_set) >= self.associativity:
            victim_tag = next(iter(cache_set))
            if cache_set.pop(victim_tag):
                victim_line = victim_tag * self.num_sets + index
                result = CacheAccessResult(
                    hit=False, writeback_address=victim_line * self.line_bytes
                )
                self.writebacks += 1
        cache_set[tag] = is_write
        return result

    def fill(self, accesses: Iterable[tuple[int, bool]], offset: int = 0) -> None:
        """Apply many accesses for their effect on the cache state only.

        ``accesses`` yields ``(address, is_write)`` pairs (a benchmark's
        :meth:`~repro.workloads.benchmark_suite.Benchmark.warm_accesses`),
        each accessed at ``offset + address``.  Every set ends with the
        lines, LRU order and dirty flags that :meth:`access` would leave;
        no statistics are counted and no results are built.  This is how
        an LLC is functionally warmed.
        """
        sets = self._sets
        line_bytes = self.line_bytes
        num_sets = self.num_sets
        ways = self.associativity
        for address, is_write in accesses:
            tag, index = divmod((offset + address) // line_bytes, num_sets)
            cache_set = sets[index]
            if tag in cache_set:
                cache_set[tag] = cache_set.pop(tag) or is_write
            else:
                if len(cache_set) >= ways:
                    del cache_set[next(iter(cache_set))]
                cache_set[tag] = is_write

    def contains(self, address: int) -> bool:
        """True if the line holding ``address`` is resident (no LRU update)."""
        index, tag = self._index_and_tag(address)
        return tag in self._sets[index]

    def occupancy(self) -> int:
        """Number of resident lines."""
        return sum(len(s) for s in self._sets)

    # -- snapshot / restore ---------------------------------------------------
    def snapshot(self) -> CacheSnapshot:
        """Capture every set's lines (tags and dirty bits) in LRU order.

        Adding ``k * line_bytes * num_sets`` to every address a cache has
        seen adds ``k`` to every tag and changes nothing else (set index,
        LRU order and dirty bits are the same), so a snapshot restored
        with ``tag_base=k`` is the state that accesses shifted by ``k``
        spans would have built.
        """
        lengths = array("I")
        tags = array("q")
        dirty = bytearray()
        for cache_set in self._sets:
            lengths.append(len(cache_set))
            tags.extend(cache_set)
            dirty.extend(cache_set.values())
        return CacheSnapshot(
            self.num_sets,
            self.associativity,
            self.line_bytes,
            lengths,
            tags,
            bytes(dirty),
        )

    def restore(self, snapshot: CacheSnapshot, tag_base: int = 0) -> None:
        """Replace every set with ``snapshot``'s, tags plus ``tag_base``.

        Every set is a new object, so caches restored from one snapshot
        never share state; statistics start from zero.
        """
        geometry = (snapshot.num_sets, snapshot.associativity, snapshot.line_bytes)
        if geometry != (self.num_sets, self.associativity, self.line_bytes):
            raise ValueError(
                f"snapshot of a {geometry} cache cannot restore a "
                f"{(self.num_sets, self.associativity, self.line_bytes)} cache"
            )
        tags = [tag + tag_base for tag in snapshot.tags]
        dirty = [flag == 1 for flag in snapshot.dirty]
        sets = []
        start = 0
        for length in snapshot.lengths:
            end = start + length
            sets.append(dict(zip(tags[start:end], dirty[start:end])))
            start = end
        self._sets = sets
        self.reset_stats()

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
