"""Last-level cache model.

Each core owns a private 512 KB, 16-way, 64 B-line writeback LLC slice
(Table 1).  Load misses become DRAM reads; dirty evictions become DRAM
writes — the writeback traffic whose batching DARP's write-refresh
parallelization exploits.
"""

from repro.cache.llc import LastLevelCache
from repro.cache.set_assoc import CacheAccessResult, CacheSnapshot, SetAssociativeCache
from repro.cache.warm import WarmStates

__all__ = [
    "SetAssociativeCache",
    "CacheAccessResult",
    "CacheSnapshot",
    "LastLevelCache",
    "WarmStates",
]
