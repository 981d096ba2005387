"""Per-core last-level cache slice."""

from __future__ import annotations

from repro.cache.set_assoc import SetAssociativeCache
from repro.config.cpu_config import CacheConfig


class LastLevelCache(SetAssociativeCache):
    """The private LLC slice of one core (512 KB, 16-way, 64 B lines)."""

    def __init__(self, config: CacheConfig):
        super().__init__(
            size_bytes=config.size_bytes,
            associativity=config.associativity,
            line_bytes=config.line_bytes,
        )
        self.config = config

    def mpki(self, instructions: int) -> float:
        """LLC misses per thousand instructions."""
        if instructions <= 0:
            return 0.0
        return self.misses * 1000.0 / instructions
