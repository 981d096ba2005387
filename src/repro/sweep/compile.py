"""Compilation and execution of sweep specs.

:func:`expand_points` turns a :class:`~repro.sweep.spec.SweepSpec` into its
deterministic list of design points; :func:`build_config` and
:func:`build_workloads` realize one point as a
:class:`~repro.config.system.SystemConfig` and workload set; and
:func:`run_sweep` plans every (workload, config, mechanism) simulation of
the whole sweep as **one** batch through an
:class:`~repro.sim.runner.ExperimentRunner`, so a parallel executor fans
the entire design space out at once and a warm
:class:`~repro.engine.store.ResultStore` makes re-sweeps free.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional

from repro.config.presets import paper_system
from repro.config.serialize import check_fields, from_plain, to_plain
from repro.config.system import SystemConfig
from repro.sim.runner import ExperimentRunner, get_default_runner
from repro.sweep.spec import (
    CONTROLLER_AXES,
    PRESET_AXES,
    SpecError,
    SweepSpec,
    describe_point,
    point_key,
)
from repro.workloads.mixes import (
    Workload,
    make_workload_sweep,
    memory_intensive_workloads,
)


def expand_points(spec: SweepSpec) -> list[dict]:
    """Expand a spec's axes into its ordered list of design points.

    Each point is a ``{axis_name: value}`` dict.  Grid expansion takes the
    cross product of the axes in declaration order (the last axis varies
    fastest); zip expansion pairs the axes position-wise.  The order is a
    pure function of the spec, so re-running a sweep plans the identical
    job sequence.
    """
    names = spec.axis_names()
    if spec.expansion == "zip":
        rows = zip(*(axis.values for axis in spec.axes))
    else:
        rows = itertools.product(*(axis.values for axis in spec.axes))
    return [dict(zip(names, row)) for row in rows]


def build_config(spec: SweepSpec, point: dict) -> SystemConfig:
    """Realize one design point as a system configuration.

    The point's values override the spec's ``base`` knobs; preset-level
    knobs are forwarded to :func:`~repro.config.presets.paper_system`, the
    timing knobs (``tfaw`` / ``trrd``) are applied on top (mirroring the
    paper's Table 4 sweep), and the controller-policy knobs
    (``scheduler`` / ``page_policy`` / ``row_hit_cap``) override the
    controller configuration.  When ``tfaw`` is swept without an explicit
    ``trrd``, ``tRRD`` follows the paper's ``max(1, tFAW // 5)`` pairing.
    """
    knobs = dict(spec.base)
    knobs.update(point)
    preset_kwargs = {name: knobs[name] for name in PRESET_AXES if name in knobs}
    config = paper_system(**preset_kwargs)
    if "tfaw" in knobs or "trrd" in knobs:
        # tFAW is checked before tRRD is derived from it.
        timings = config.dram.timings
        timings = replace(timings, tFAW=knobs.get("tfaw", timings.tFAW))
        timings = replace(timings, tRRD=knobs.get("trrd", max(1, timings.tFAW // 5)))
        config = replace(config, dram=replace(config.dram, timings=timings))
    controller_kwargs = {
        name: knobs[name] for name in CONTROLLER_AXES if name in knobs
    }
    if controller_kwargs:
        config = replace(
            config, controller=replace(config.controller, **controller_kwargs)
        )
    return config


def build_workloads(spec: SweepSpec, point: dict) -> list[Workload]:
    """Build the workload set driving one design point.

    The workload construction follows the spec's :class:`WorkloadSpec`,
    with the ``num_cores`` and ``workload_seed`` axes (when swept)
    overriding its fixed values — a core-count axis must change the
    workloads and the configuration together, as in the paper's Table 3.
    """
    workload_spec = spec.workloads
    num_cores = point.get(
        "num_cores",
        spec.base.get("num_cores", workload_spec.num_cores),
    )
    seed = point.get(
        "workload_seed",
        spec.base.get("workload_seed", workload_spec.seed),
    )
    if workload_spec.kind == "intensive":
        return memory_intensive_workloads(
            count=workload_spec.count, num_cores=num_cores, seed=seed
        )
    return make_workload_sweep(
        workloads_per_category=workload_spec.count,
        num_cores=num_cores,
        seed=seed,
        categories=workload_spec.categories,
    )


@dataclass
class SweepCell:
    """One measured (design point, workload, mechanism) combination."""

    point: dict
    workload: str
    category: int
    mechanism: str
    weighted_speedup: float
    harmonic_speedup: float
    maximum_slowdown: float
    energy_per_access_nj: float
    #: Raw energy counts behind an access-weighted mean (Figure 14): the
    #: total energy (nJ) and the number of accesses it served.
    energy_nj: float = 0.0
    accesses: int = 0

    def __post_init__(self) -> None:
        check_fields(self)

    def to_dict(self) -> dict:
        return to_plain(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepCell":
        return from_plain(cls, data)


@dataclass
class SweepResult:
    """Everything a sweep produced: the spec, its points and all cells.

    Cells are ordered point-major (then workload, then mechanism), the
    same deterministic order the sweep was planned in.
    """

    spec: SweepSpec
    points: list[dict]
    cells: list[SweepCell]

    def mechanisms(self) -> tuple[str, ...]:
        return self.spec.mechanisms

    def workload_names(self) -> list[str]:
        """Distinct workload names, in first-seen (plan) order."""
        seen: dict[str, None] = {}
        for cell in self.cells:
            seen.setdefault(cell.workload, None)
        return list(seen)

    def cell_index(self) -> dict[tuple, SweepCell]:
        """Lookup table keyed by (point key, workload, mechanism)."""
        return {
            (point_key(cell.point), cell.workload, cell.mechanism): cell
            for cell in self.cells
        }


def plan_sweep(
    spec: SweepSpec,
) -> tuple[list[dict], list[tuple[Workload, SystemConfig]], list[tuple[int, Workload, str]]]:
    """Expand a spec into its (workload, config) simulation plan.

    Returns the expanded points, the ordered (workload, config) pairs to
    run, and per-pair provenance ``(point_index, workload, mechanism)``
    used to assemble :class:`SweepCell` records after execution.

    Every point's configuration and workloads are built here, so a spec
    that parses but names an impossible point (a non-positive density,
    ...) raises :class:`~repro.sweep.spec.SpecError` before anything runs.
    """
    points = expand_points(spec)
    pairs: list[tuple[Workload, SystemConfig]] = []
    provenance: list[tuple[int, Workload, str]] = []
    for point_index, point in enumerate(points):
        try:
            config = build_config(spec, point)
            workloads = build_workloads(spec, point)
        except ValueError as error:
            raise SpecError(
                f"design point {describe_point(point)} cannot be built: {error}"
            ) from None
        for workload in workloads:
            for mechanism in spec.mechanisms:
                pairs.append((workload, config.with_mechanism(mechanism)))
                provenance.append((point_index, workload, mechanism))
    return points, pairs, provenance


def run_sweep(
    spec: SweepSpec,
    runner: Optional[ExperimentRunner] = None,
) -> SweepResult:
    """Execute a sweep spec end to end and collect its cells.

    The whole design space is submitted as a single engine batch
    (including the alone-run simulations that normalize weighted speedup),
    so with a :class:`~repro.engine.executor.ParallelExecutor` every
    simulation of the sweep fans out concurrently, and with a persistent
    store a repeated sweep performs zero new simulations.
    """
    runner = runner if runner is not None else get_default_runner()
    points, pairs, provenance = plan_sweep(spec)
    results = runner.run_many(pairs)
    cells = [
        SweepCell(
            point=points[point_index],
            workload=workload.name,
            category=workload.category,
            mechanism=mechanism,
            weighted_speedup=result.weighted_speedup,
            harmonic_speedup=result.harmonic_speedup,
            maximum_slowdown=result.maximum_slowdown,
            energy_per_access_nj=result.energy_per_access_nj,
            energy_nj=result.simulation.energy["total_nj"],
            accesses=result.simulation.energy["accesses"],
        )
        for (point_index, workload, mechanism), result in zip(provenance, results)
    ]
    return SweepResult(spec=spec, points=points, cells=cells)


def describe_plan(spec: SweepSpec) -> str:
    """One-paragraph summary of what a spec expands to (for the CLI).

    The workload count is derived from the spec alone — every point
    builds the same number of workloads, so nothing needs constructing
    here.
    """
    points = spec.num_points()
    workload_spec = spec.workloads
    workloads = workload_spec.count
    if workload_spec.kind == "category_sweep":
        workloads *= len(workload_spec.categories)
    simulations = points * workloads * len(spec.mechanisms)
    axes = " x ".join(
        f"{axis.name}[{len(axis.values)}]" for axis in spec.axes
    )
    return (
        f"sweep {spec.name!r}: {axes} -> {points} points x "
        f"{workloads} workloads x {len(spec.mechanisms)} mechanisms = "
        f"{simulations} measured simulations (+ alone runs)"
    )
