"""A bounded holder of functionally warmed LLC states, for reuse.

Warming an LLC means streaming tens of thousands of trace accesses
through the cache model, yet the warmed state depends only on the cache
geometry, the benchmark, the warm trace's seed, the access count and the
core's address offset (and on the offset only up to a tag shift, see
:meth:`~repro.cache.set_assoc.SetAssociativeCache.snapshot`).  Cores and
jobs that agree on those reuse one warmup: the first warms a scratch
cache and snapshots it, and every LLC restores the snapshot, building
each set only when it is first touched.  Snapshots are immutable, so
every restore can share one.  One holder serves one process's
simulations; it is passed in, never module state.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable

from repro.cache.set_assoc import CacheSnapshot


class WarmStates:
    """Least-recently-used map from a warmup's inputs to its snapshot."""

    #: Snapshots kept.  A warmed 512 KB LLC snapshot is ~130 KB (flat
    #: tags and dirty flags), so a full holder stays a few MB.
    CAPACITY = 32

    def __init__(self) -> None:
        self._snapshots: OrderedDict[Hashable, CacheSnapshot] = OrderedDict()
        #: Warmups served from a stored snapshot / computed by ``warm``.
        self.hits = 0
        self.misses = 0

    def fetch(self, key: Hashable, warm: Callable[[], CacheSnapshot]) -> CacheSnapshot:
        """The snapshot stored under ``key``, computing it with ``warm`` once."""
        snapshots = self._snapshots
        snapshot = snapshots.get(key)
        if snapshot is not None:
            snapshots.move_to_end(key)
            self.hits += 1
            return snapshot
        self.misses += 1
        snapshot = snapshots[key] = warm()
        if len(snapshots) > self.CAPACITY:
            snapshots.popitem(last=False)
        return snapshot

    def __len__(self) -> int:
        return len(self._snapshots)
