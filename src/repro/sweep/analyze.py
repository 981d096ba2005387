"""Post-processing of sweep results.

Three analyses over the :class:`~repro.sweep.compile.SweepCell` grid:

* :func:`pareto_frontier` — the performance/energy trade-off: per design
  configuration (point x mechanism), average weighted speedup versus
  energy per access, with the non-dominated configurations flagged,
* :func:`sensitivity` — per-axis sensitivity tables: how much each
  mechanism improves over the spec's baseline at every value of every
  swept axis (gmean across workloads and the other axes),
* :func:`best_per_workload` — the best configuration for every workload.

:func:`summarize` renders all three through
:mod:`repro.analysis.tables` into the ``summary.md`` artifact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.metrics.speedup import average_percent_improvement
from repro.sweep.compile import SweepCell, SweepResult
from repro.sweep.spec import describe_point, point_key


@dataclass
class ConfigSummary:
    """Aggregate outcome of one design configuration (point x mechanism)."""

    point: dict
    mechanism: str
    #: Arithmetic mean weighted speedup across the workload set.
    weighted_speedup: float
    #: Mean energy per access (nJ) across the workload set.
    energy_per_access_nj: float
    #: True if no other configuration is at least as good on both metrics
    #: and strictly better on one.
    on_frontier: bool = False


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def config_summaries(result: SweepResult) -> list[ConfigSummary]:
    """Aggregate the cell grid per (point, mechanism) configuration."""
    grouped: dict[tuple, list[SweepCell]] = {}
    order: list[tuple] = []
    for cell in result.cells:
        key = (point_key(cell.point), cell.mechanism)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(cell)
    summaries = []
    for key in order:
        cells = grouped[key]
        summaries.append(
            ConfigSummary(
                point=dict(cells[0].point),
                mechanism=cells[0].mechanism,
                weighted_speedup=_mean([c.weighted_speedup for c in cells]),
                energy_per_access_nj=_mean([c.energy_per_access_nj for c in cells]),
            )
        )
    return summaries


def _dominates(a: ConfigSummary, b: ConfigSummary) -> bool:
    """True if ``a`` is at least as good as ``b`` everywhere, better once.

    Weighted speedup is maximized and energy per access minimized.
    """
    at_least_as_good = (
        a.weighted_speedup >= b.weighted_speedup
        and a.energy_per_access_nj <= b.energy_per_access_nj
    )
    strictly_better = (
        a.weighted_speedup > b.weighted_speedup
        or a.energy_per_access_nj < b.energy_per_access_nj
    )
    return at_least_as_good and strictly_better


def pareto_frontier(result: SweepResult) -> list[ConfigSummary]:
    """Every configuration, frontier members flagged and sorted first.

    Returns all :func:`config_summaries` with ``on_frontier`` set, ordered
    frontier-first by descending weighted speedup, so the head of the list
    reads as the performance/energy trade-off curve.
    """
    summaries = config_summaries(result)
    for candidate in summaries:
        candidate.on_frontier = not any(
            _dominates(other, candidate) for other in summaries if other is not candidate
        )
    return sorted(
        summaries,
        key=lambda s: (not s.on_frontier, -s.weighted_speedup, s.energy_per_access_nj),
    )


def sensitivity(result: SweepResult) -> dict[str, dict[object, dict[str, float]]]:
    """Per-axis sensitivity of every mechanism's improvement over baseline.

    Returns ``{axis: {value: {mechanism: gmean_percent_improvement}}}``:
    for each swept axis value, the gmean percentage weighted-speedup
    improvement of each non-baseline mechanism over the spec's baseline,
    pooled across the workload set and every other axis.
    """
    spec = result.spec
    baseline = spec.baseline
    index = result.cell_index()
    gains: dict[str, dict[object, dict[str, list[float]]]] = {
        axis.name: {value: {} for value in axis.values} for axis in spec.axes
    }
    for cell in result.cells:
        if cell.mechanism == baseline:
            continue
        base_cell = index.get((point_key(cell.point), cell.workload, baseline))
        if base_cell is None or base_cell.weighted_speedup <= 0:
            continue
        gain = (cell.weighted_speedup / base_cell.weighted_speedup - 1.0) * 100.0
        for axis_name, value in cell.point.items():
            bucket = gains[axis_name][value].setdefault(cell.mechanism, [])
            bucket.append(gain)
    tables: dict[str, dict[object, dict[str, float]]] = {}
    for axis_name, per_value in gains.items():
        tables[axis_name] = {
            value: {
                mechanism: average_percent_improvement(values)
                for mechanism, values in mechanisms.items()
            }
            for value, mechanisms in per_value.items()
        }
    return tables


def _workload_label(cell: SweepCell) -> str:
    """Identity a cell's workload is ranked under.

    Workload *names* (``mix100_00``) do not encode the axes that change
    the workload itself — sweeping ``num_cores`` or ``workload_seed``
    builds a different benchmark mix (and a different weighted-speedup
    scale) under the same name.  Ranking across those would compare
    incomparable workloads, so the distinguishing axis values become part
    of the label.
    """
    qualifiers = [
        f"{axis}={cell.point[axis]}"
        for axis in ("num_cores", "workload_seed")
        if axis in cell.point
    ]
    if not qualifiers:
        return cell.workload
    return f"{cell.workload} ({', '.join(qualifiers)})"


def best_per_workload(result: SweepResult) -> dict[str, ConfigSummary]:
    """The highest-weighted-speedup configuration for every workload.

    Workloads are keyed by :func:`_workload_label`, so design points that
    rebuild the workload (core-count or seed axes) rank separately.
    """
    best: dict[str, SweepCell] = {}
    for cell in result.cells:
        label = _workload_label(cell)
        incumbent = best.get(label)
        if incumbent is None or cell.weighted_speedup > incumbent.weighted_speedup:
            best[label] = cell
    return {
        label: ConfigSummary(
            point=dict(cell.point),
            mechanism=cell.mechanism,
            weighted_speedup=cell.weighted_speedup,
            energy_per_access_nj=cell.energy_per_access_nj,
        )
        for label, cell in best.items()
    }


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
def format_pareto(summaries: list[ConfigSummary]) -> str:
    """Text table of every configuration, frontier members starred."""
    rows = [
        [
            "*" if summary.on_frontier else "",
            describe_point(summary.point),
            summary.mechanism,
            f"{summary.weighted_speedup:.4f}",
            f"{summary.energy_per_access_nj:.3f}",
        ]
        for summary in summaries
    ]
    return format_table(
        ["Pareto", "Design point", "Mechanism", "Avg WS", "Energy/access (nJ)"],
        rows,
        title="Pareto frontier (weighted speedup vs energy per access)",
    )


def format_sensitivity(
    tables: dict[str, dict[object, dict[str, float]]],
    baseline: str,
) -> str:
    """Text tables: one per swept axis, mechanisms as columns."""
    sections = []
    for axis_name, per_value in tables.items():
        mechanisms = sorted({m for row in per_value.values() for m in row})
        if not mechanisms:
            continue
        rows = [
            [str(value)] + [f"{per_value[value].get(m, 0.0):+.2f}" for m in mechanisms]
            for value in per_value
        ]
        sections.append(
            format_table(
                [axis_name] + [f"{m} (% vs {baseline})" for m in mechanisms],
                rows,
                title=f"Sensitivity to {axis_name}",
            )
        )
    return "\n\n".join(sections)


def format_best_per_workload(best: dict[str, ConfigSummary]) -> str:
    rows = [
        [
            workload,
            describe_point(summary.point),
            summary.mechanism,
            f"{summary.weighted_speedup:.4f}",
        ]
        for workload, summary in best.items()
    ]
    return format_table(
        ["Workload", "Best design point", "Mechanism", "WS"],
        rows,
        title="Best configuration per workload",
    )


def summarize(result: SweepResult) -> str:
    """Render the full sweep analysis as a markdown document."""
    spec = result.spec
    axes = ", ".join(
        f"{axis.name} in {list(axis.values)}" for axis in spec.axes
    )
    frontier = pareto_frontier(result)
    lines = [
        f"# Sweep summary: {spec.name}",
        "",
        spec.description or "(no description)",
        "",
        f"- axes ({spec.expansion}): {axes}",
        f"- mechanisms: {', '.join(spec.mechanisms)} (baseline: {spec.baseline})",
        f"- workloads: {spec.workloads.kind} x {spec.workloads.count}"
        f" ({spec.workloads.num_cores} cores)",
        f"- design points: {len(result.points)}; measured cells: {len(result.cells)}",
        "",
        "```",
        format_pareto(frontier),
        "```",
        "",
        "```",
        format_sensitivity(sensitivity(result), spec.baseline),
        "```",
        "",
        "```",
        format_best_per_workload(best_per_workload(result)),
        "```",
        "",
    ]
    return "\n".join(lines)
