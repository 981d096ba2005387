"""Declarative statistics schemas with explicit merge semantics.

Every statistics holder in the simulator (controller, device, channel,
refresh policy, core, engine executor) declares a :class:`StatsSchema`:
the counter fields it owns, how each merges across instances (``sum`` or
``max``), and the ratios derived from them (:class:`WeightedAverage`).
Merging then happens in exactly one place — :meth:`StatsSchema.merge` —
instead of being re-implemented ad hoc at every aggregation site.

The crucial property the schema enforces is that *derived* values are
never merged directly: a weighted average is recomputed from the merged
raw totals.  Summing per-channel ``average_read_latency`` values (the bug
this module was introduced to make impossible) produces a meaningless
sum-of-averages; merging ``total_read_latency`` and ``served_reads`` and
dividing once is the only behaviour the schema can express.

Schemas register themselves in a process-wide registry under a short name
(``"controller"``, ``"device"``, ...), so aggregation code can look up
merge semantics by name and tests can enumerate every holder.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar, Iterable, Optional

#: Merge kinds a raw field may declare.
SUM = "sum"
MAX = "max"
MERGE_KINDS = (SUM, MAX)


@dataclass(frozen=True)
class StatField:
    """One raw counter: a name and how it merges across instances."""

    name: str
    merge: str = SUM

    def __post_init__(self) -> None:
        if self.merge not in MERGE_KINDS:
            raise ValueError(
                f"unknown merge kind {self.merge!r} for field {self.name!r}; "
                f"expected one of {MERGE_KINDS}"
            )


@dataclass(frozen=True)
class WeightedAverage:
    """A derived ratio: ``scale * total / count`` over *merged* raw fields.

    ``total`` and ``count`` name raw fields of the same schema.  Because
    the ratio is computed after the raw fields merge, averaging across
    instances is automatically weighted by ``count`` — per-instance
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


class StatsSchema:
    """Field declarations and merge semantics for one statistics holder."""

    def __init__(
        self,
        name: str,
        fields: Iterable[StatField | str],
        derived: Iterable[WeightedAverage] = (),
    ):
        self.name = name
        self.fields: tuple[StatField, ...] = tuple(
            field if isinstance(field, StatField) else StatField(field)
            for field in fields
        )
        self.derived: tuple[WeightedAverage, ...] = tuple(derived)
        names = [field.name for field in self.fields]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ValueError(
                f"schema {name!r} declares duplicate fields: "
                f"{', '.join(sorted(duplicates))}"
            )
        declared = set(names)
        for ratio in self.derived:
            missing = {ratio.total, ratio.count} - declared
            if missing:
                raise ValueError(
                    f"derived stat {ratio.name!r} of schema {name!r} references "
                    f"undeclared fields: {', '.join(sorted(missing))}"
                )
            if ratio.name in declared:
                raise ValueError(
                    f"derived stat {ratio.name!r} of schema {name!r} collides "
                    f"with a raw field"
                )
        self._merge_of = {field.name: field.merge for field in self.fields}
        self._derived_names = {ratio.name for ratio in self.derived}

    # -- introspection -----------------------------------------------------
    def derived_names(self) -> tuple[str, ...]:
        return tuple(ratio.name for ratio in self.derived)

    # -- serialization -----------------------------------------------------
    def as_dict(self, obj) -> dict:
        """Raw fields read off ``obj`` plus the derived ratios."""
        values = {field.name: getattr(obj, field.name) for field in self.fields}
        for ratio in self.derived:
            values[ratio.name] = ratio.compute(values)
        return values

    # -- aggregation -------------------------------------------------------
    def merge(self, dicts: Iterable[dict]) -> dict:
        """Merge several :meth:`as_dict` payloads into one.

        Raw fields combine according to their declared kind; derived
        values present in the inputs are *discarded* and recomputed from
        the merged raw fields.  Keys the schema does not declare are
        summed — statistics holders may carry implementation-specific
        extras (a policy subclass's private counter) without registering
        a new schema, and summing is the only safe default for counters.
        """
        merged: dict = {field.name: 0 for field in self.fields}
        merge_of = self._merge_of
        derived_names = self._derived_names
        for payload in dicts:
            for key, value in payload.items():
                if key in derived_names:
                    continue
                kind = merge_of.get(key)
                if kind == MAX:
                    current = merged.get(key, value)
                    merged[key] = value if value > current else current
                else:
                    merged[key] = merged.get(key, 0) + value
        for ratio in self.derived:
            merged[ratio.name] = ratio.compute(merged)
        return merged

    def diff(self, current: dict, since: dict) -> dict:
        """Field-wise movement between two :meth:`as_dict` payloads.

        Only meaningful for ``sum``-merged fields (cumulative counters);
        derived ratios are recomputed from the differenced raw fields.
        """
        values = {
            field.name: current[field.name] - since.get(field.name, 0)
            for field in self.fields
        }
        for ratio in self.derived:
            values[ratio.name] = ratio.compute(values)
        return values


#: Process-wide schema registry, keyed by schema name.
_REGISTRY: dict[str, StatsSchema] = {}


def register_schema(schema: StatsSchema) -> StatsSchema:
    """Add a schema to the registry; duplicate names are an error."""
    if schema.name in _REGISTRY:
        raise ValueError(f"a stats schema named {schema.name!r} is already registered")
    _REGISTRY[schema.name] = schema
    return schema


def get_schema(name: str) -> StatsSchema:
    """Look up a registered schema; unknown names list the alternatives."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown stats schema {name!r}; registered: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None


def schema_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def merge_stats(name: str, dicts: Iterable[dict]) -> dict:
    """Merge payloads under the named schema's declared semantics."""
    return get_schema(name).merge(dicts)


class StatsStruct:
    """Mixin giving a stats dataclass schema-driven ``as_dict``/``reset``.

    The concrete dataclass sets ``SCHEMA`` to its registered
    :class:`StatsSchema`; every raw field of the schema must be a
    dataclass field with a default, which :meth:`reset` restores.
    """

    SCHEMA: ClassVar[Optional[StatsSchema]] = None

    def as_dict(self) -> dict:
        return self.SCHEMA.as_dict(self)

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
        """Merge :meth:`as_dict` payloads under this class's schema."""
        return cls.SCHEMA.merge(dicts)
