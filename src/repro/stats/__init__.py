"""Statistics dataclasses with declarative merge semantics.

Every statistics holder in the simulator (controller, device, channel,
refresh policy, core, epoch samples, engine executor) is a dataclass that
mixes in :class:`StatsStruct`, and the dataclass is the only place its
counters are declared.  Each field is a raw counter that merges across
instances by summing, unless its metadata says ``{"merge": MAX}``; the
class-level ``RATIOS`` tuple declares the ratios derived from them
(:class:`WeightedAverage`).  Merging happens in exactly one place —
:meth:`StatsStruct.merge_dicts` — instead of being re-implemented at every
aggregation site.

The crucial property is that *derived* values are never merged directly:
a weighted average is recomputed from the merged raw totals.  Summing
per-channel ``average_read_latency`` values produces a meaningless
sum-of-averages; merging ``total_read_latency`` and ``served_reads`` and
dividing once is the only behaviour a ratio can express.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import ClassVar, Iterable

#: Field-metadata merge kind of a counter that merges by maximum (a peak).
MAX = "max"


@dataclass(frozen=True)
class WeightedAverage:
    """A derived ratio: ``scale * total / count`` over *merged* raw fields.

    ``total`` and ``count`` name raw fields of the same stats class.
    Because the ratio is computed after the raw fields merge, averaging
    across instances is automatically weighted by ``count`` — per-instance
    averages never participate in a merge.
    """

    name: str
    total: str
    count: str
    scale: float = 1.0

    def compute(self, values: dict) -> float:
        count = values[self.count]
        if count <= 0:
            return 0.0
        return self.scale * values[self.total] / count

    def of(self, stats) -> float:
        """The ratio over one stats object's own counters."""
        return self.compute(vars(stats))


@functools.cache
def _layout(cls: type) -> tuple[tuple[str, ...], frozenset[str]]:
    """A stats dataclass's counter names and the subset merged by MAX."""
    fields = dataclasses.fields(cls)
    maxed = frozenset(f.name for f in fields if f.metadata.get("merge") == MAX)
    return tuple(f.name for f in fields), maxed


class StatsStruct:
    """Mixin giving a stats dataclass ``as_dict``/``reset``/merge/diff.

    Every dataclass field is a raw counter with a default, which
    :meth:`reset` restores.
    """

    #: Ratios derived from the (merged) counters.
    RATIOS: ClassVar[tuple[WeightedAverage, ...]] = ()

    def as_dict(self) -> dict:
        """Raw counters plus the derived ratios."""
        names, _ = _layout(type(self))
        values = {name: getattr(self, name) for name in names}
        for ratio in self.RATIOS:
            values[ratio.name] = ratio.compute(values)
        return values

    def reset(self) -> None:
        """Restore every counter to its dataclass default."""
        for field in dataclasses.fields(self):
            if field.default is not dataclasses.MISSING:
                setattr(self, field.name, field.default)
            elif field.default_factory is not dataclasses.MISSING:
                setattr(self, field.name, field.default_factory())
            else:
                raise TypeError(
                    f"{type(self).__name__}.{field.name} has no default to "
                    f"reset to"
                )

    @classmethod
    def merge_dicts(cls, dicts: Iterable[dict]) -> dict:
        """Merge several :meth:`as_dict` payloads into one.

        Counters sum, or take the maximum when declared MAX; derived
        values present in the inputs are *discarded* and recomputed from
        the merged counters.
        """
        names, maxed = _layout(cls)
        ratio_names = {ratio.name for ratio in cls.RATIOS}
        merged = dict.fromkeys(names, 0)
        for payload in dicts:
            for key, value in payload.items():
                if key in maxed:
                    merged[key] = max(merged[key], value)
                elif key not in ratio_names:
                    merged[key] += value
        for ratio in cls.RATIOS:
            merged[ratio.name] = ratio.compute(merged)
        return merged

    @classmethod
    def diff(cls, current: dict, since: dict) -> dict:
        """Field-wise movement between two :meth:`as_dict` payloads.

        Only meaningful for summed (cumulative) counters; derived ratios
        are recomputed from the differenced counters.
        """
        names, _ = _layout(cls)
        values = {name: current[name] - since.get(name, 0) for name in names}
        for ratio in cls.RATIOS:
            values[ratio.name] = ratio.compute(values)
        return values


__all__ = ["MAX", "StatsStruct", "WeightedAverage"]
