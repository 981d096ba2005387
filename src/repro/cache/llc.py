"""Per-core last-level cache slice."""

from __future__ import annotations

from repro.cache.set_assoc import (
    CacheAccessResult,
    CacheSnapshot,
    SetAssociativeCache,
)
from repro.config.cpu_config import CacheConfig


class LastLevelCache:
    """The private LLC slice of one core (512 KB, 16-way, 64 B lines)."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self._cache = SetAssociativeCache(
            size_bytes=config.size_bytes,
            associativity=config.associativity,
            line_bytes=config.line_bytes,
        )

    def access(self, address: int, is_write: bool) -> CacheAccessResult:
        """Look up / allocate the line containing ``address``."""
        return self._cache.access(address, is_write)

    def line_address(self, address: int) -> int:
        return self._cache.line_address(address)

    def contains(self, address: int) -> bool:
        """True if the line holding ``address`` is resident (no LRU update)."""
        return self._cache.contains(address)

    def snapshot(self) -> CacheSnapshot:
        """Resident lines and dirty bits in LRU order (see the cache's)."""
        return self._cache.snapshot()

    def restore(self, snapshot: CacheSnapshot, tag_base: int = 0) -> None:
        """Rebuild every set from ``snapshot``, tags plus ``tag_base``."""
        self._cache.restore(snapshot, tag_base)

    @property
    def hits(self) -> int:
        return self._cache.hits

    @property
    def misses(self) -> int:
        return self._cache.misses

    @property
    def writebacks(self) -> int:
        return self._cache.writebacks

    @property
    def miss_rate(self) -> float:
        return self._cache.miss_rate

    def mpki(self, instructions: int) -> float:
        """LLC misses per thousand instructions."""
        if instructions <= 0:
            return 0.0
        return self._cache.misses * 1000.0 / instructions

    def reset_stats(self) -> None:
        self._cache.reset_stats()
