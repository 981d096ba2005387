"""Declarative sweep specifications.

A :class:`SweepSpec` describes a multi-axis design-space exploration as
data: named axes over :class:`~repro.config.system.SystemConfig` knobs,
the refresh mechanisms to compare at every point, and the workload set to
drive each configuration with.  Specs are plain values — serializable to
and from JSON — so sweeps can live in version-controlled files and be
executed by the ``python -m repro sweep`` CLI, instead of each new
combination of axes requiring a hand-written loop in
:mod:`repro.sim.experiments`.

The execution and analysis layers live next door:
:mod:`repro.sweep.compile` expands a spec into deterministic
:class:`~repro.engine.jobs.SimulationJob` batches, and
:mod:`repro.sweep.analyze` post-processes the collected results.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Literal, Sequence

from repro.config.refresh_config import MechanismName
from repro.config.serialize import check_fields, from_plain, to_plain
from repro.workloads.mixes import INTENSITY_CATEGORIES, IntensityCategory

#: Axis names applied as :func:`~repro.config.presets.paper_system` keywords.
PRESET_AXES: tuple[str, ...] = (
    "density_gb",
    "num_cores",
    "retention_ms",
    "subarrays_per_bank",
    "rows_per_bank",
)

#: Axis names applied as DRAM-timing overrides after the preset is built.
TIMING_AXES: tuple[str, ...] = ("tfaw", "trrd")

#: Axis names applied as memory-controller policy overrides (the scheduler
#: and page-management policies of ``repro.controller.policies``).
CONTROLLER_AXES: tuple[str, ...] = ("scheduler", "page_policy", "row_hit_cap")

#: Axis names applied to the workload construction instead of the config.
WORKLOAD_AXES: tuple[str, ...] = ("workload_seed",)

#: Every axis name a spec may sweep over.
KNOWN_AXES: tuple[str, ...] = (
    PRESET_AXES + TIMING_AXES + CONTROLLER_AXES + WORKLOAD_AXES
)
AxisName = Literal[KNOWN_AXES]


class SpecError(ValueError):
    """A sweep spec is malformed (unknown axis, bad expansion, ...)."""


@dataclass(frozen=True)
class Axis:
    """One named dimension of the design space."""

    name: AxisName
    values: tuple

    def __post_init__(self) -> None:
        check_fields(self, SpecError)
        if not self.values:
            raise SpecError(f"axis {self.name!r} has no values")


@dataclass(frozen=True)
class WorkloadSpec:
    """Which workloads to drive every design point with.

    ``kind="intensive"`` builds ``count`` random memory-intensive
    workloads (the paper's sensitivity-study set, Section 5);
    ``kind="category_sweep"`` builds ``count`` workloads per
    memory-intensity category (the figure-level sweep set).
    """

    kind: Literal["intensive", "category_sweep"] = "intensive"
    count: int = 2
    num_cores: int = 8
    seed: int = 0
    categories: tuple[IntensityCategory, ...] = INTENSITY_CATEGORIES

    def __post_init__(self) -> None:
        check_fields(self, SpecError)
        if self.count < 1:
            raise SpecError(f"workload count must be positive, got {self.count}")
        if self.num_cores < 1:
            raise SpecError(f"num_cores must be positive, got {self.num_cores}")
        if not self.categories:
            raise SpecError("a category_sweep needs at least one category")


@dataclass(frozen=True)
class SweepSpec:
    """A declarative multi-axis design-space sweep.

    Parameters
    ----------
    name:
        Identifier for the sweep (names the artifact directory).
    axes:
        The swept dimensions, expanded according to ``expansion``:
        ``"grid"`` takes the cross product in declaration order,
        ``"zip"`` pairs equal-length axes position-wise.
    mechanisms:
        Refresh mechanisms compared at every design point.
    baseline:
        The mechanism improvements are normalized to; must be one of
        ``mechanisms``.  Empty (the default) means the first mechanism.
    base:
        Fixed configuration knobs shared by every point (same keys as the
        axes); an axis value overrides a ``base`` entry of the same name.
    workloads:
        The workload set (see :class:`WorkloadSpec`).
    """

    name: str
    axes: tuple[Axis, ...]
    mechanisms: tuple[MechanismName, ...] = ("refpb", "sarppb")
    baseline: str = ""
    expansion: Literal["grid", "zip"] = "grid"
    base: dict[AxisName, object] = field(default_factory=dict)
    workloads: WorkloadSpec = field(default_factory=WorkloadSpec)
    description: str = ""

    def __post_init__(self) -> None:
        check_fields(self, SpecError)
        if not self.name:
            raise SpecError("a sweep spec needs a non-empty name")
        if not self.axes:
            raise SpecError("a sweep spec needs at least one axis")
        names = [axis.name for axis in self.axes]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise SpecError(f"duplicate axes: {', '.join(sorted(duplicates))}")
        if self.expansion == "zip":
            lengths = {len(axis.values) for axis in self.axes}
            if len(lengths) > 1:
                raise SpecError(
                    "zip expansion requires equal-length axes, got lengths "
                    f"{sorted(len(a.values) for a in self.axes)}"
                )
        if not self.mechanisms:
            raise SpecError("a sweep spec needs at least one mechanism")
        if not self.baseline:
            object.__setattr__(self, "baseline", self.mechanisms[0])
        if self.baseline not in self.mechanisms:
            raise SpecError(
                f"baseline {self.baseline!r} is not among the swept mechanisms "
                f"{self.mechanisms}"
            )

    # -- introspection -----------------------------------------------------
    def axis_names(self) -> tuple[str, ...]:
        return tuple(axis.name for axis in self.axes)

    def num_points(self) -> int:
        """Number of design points the axes expand to."""
        if self.expansion == "zip":
            return len(self.axes[0].values)
        product = 1
        for axis in self.axes:
            product *= len(axis.values)
        return product

    def with_axis_values(self, name: str, values: Sequence) -> "SweepSpec":
        """Return a copy with one axis' values replaced."""
        axes = tuple(
            Axis(axis.name, tuple(values)) if axis.name == name else axis
            for axis in self.axes
        )
        return replace(self, axes=axes)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        return to_plain(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        """Inverse of :meth:`to_dict`; a malformed spec raises
        :class:`SpecError` naming the offending key."""
        return from_plain(cls, data, SpecError)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"invalid sweep spec JSON: {error}") from None
        if not isinstance(data, dict):
            raise SpecError("a sweep spec must be a JSON object")
        return cls.from_dict(data)

    def save(self, path: str | os.PathLike) -> Path:
        """Write the spec to a JSON file; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | os.PathLike) -> "SweepSpec":
        """Read a spec from a JSON file."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def point_key(point: dict) -> tuple:
    """Canonical hashable identity of a design point (sorted axis items)."""
    return tuple(sorted(point.items()))


def describe_point(point: dict) -> str:
    """Short human-readable rendering of a design point."""
    return ", ".join(f"{name}={value}" for name, value in sorted(point.items()))
