"""Paper experiment definitions: a sweep spec and an aggregate per result.

Every simulated result of the paper is a grid of refresh mechanism x one
swept knob (usually DRAM density) x workload, reduced to a few numbers.
Each such result is written here as two pieces:

* a spec factory (``figure6_spec``, ...) mapping an :class:`ExperimentScale`
  to the declarative :class:`~repro.sweep.spec.SweepSpec` of its grid, and
* an aggregate (``figure6_refab_performance_loss``, ...) reducing the
  :class:`~repro.sweep.compile.SweepResult` to the result's payload.

:data:`repro.sim.registry.EXPERIMENTS` pairs them, so running an
experiment is ``aggregate(run_sweep(spec(scale), runner))``: one engine
batch for the whole grid, every density included, with the runner's
memoization and result store shared across experiments.  Each spec is
named after its aggregate, and ``repro sweep <name>`` runs it alone.
Table 2 reduces Figure 12's grid.  Only Figure 5 (closed-form) and the
DARP component breakdown (whose "DARP without write-refresh
parallelization" variant is not a mechanism a spec can name) remain
plain functions.

The default scale (workloads per category, simulated cycles) is far
below the paper's 100 workloads x 256 M cycles so the whole harness runs
on a laptop; set ``REPRO_FULL=1`` or pass explicit parameters to scale up.

Each aggregate's docstring's first line describes the experiment on every
surface, and its body quotes the paper's own numbers.  The aggregates
iterate cells in plan order (point, then workload, then mechanism), so
every floating-point accumulation matches a per-density loop over
``compare_many`` bit for bit.
"""

from __future__ import annotations

import inspect
import os
from dataclasses import dataclass
from typing import Callable, Optional

from repro.config.presets import paper_system
from repro.metrics.speedup import average_percent_improvement, geometric_mean
from repro.sim.projections import RefreshLatencyPoint, refresh_latency_trend
from repro.sim.runner import ExperimentRunner, get_default_runner
from repro.sweep.compile import SweepCell, SweepResult
from repro.sweep.spec import Axis, SweepSpec, WorkloadSpec
from repro.workloads.mixes import INTENSITY_CATEGORIES, make_workload_sweep

#: The paper's three evaluated DRAM densities (Gb).
DEFAULT_DENSITIES: tuple[int, ...] = (8, 16, 32)


@dataclass(frozen=True)
class ExperimentScale:
    """How large to make each experiment."""

    workloads_per_category: int = 1
    sensitivity_workloads: int = 2
    densities: tuple[int, ...] = DEFAULT_DENSITIES

    @classmethod
    def from_environment(cls) -> "ExperimentScale":
        """Default scale, enlarged when ``REPRO_FULL`` is set."""
        if os.environ.get("REPRO_FULL"):
            return cls(workloads_per_category=4, sensitivity_workloads=4)
        return cls()


def default_scale() -> ExperimentScale:
    return ExperimentScale.from_environment()


# ---------------------------------------------------------------------------
# Spec and aggregation helpers
# ---------------------------------------------------------------------------
def _spec(
    aggregate: Callable,
    scale: ExperimentScale,
    mechanisms: tuple[str, ...],
    baseline: str = "refab",
    axis: Optional[Axis] = None,
    intensive: bool = False,
    base: Optional[dict] = None,
) -> SweepSpec:
    """A one-axis spec named and described after its aggregate.

    The axis defaults to the scale's densities.  The workloads are the
    figure-level set (``scale.workloads_per_category`` per intensity
    category), or with ``intensive`` the sensitivity-study set
    (``scale.sensitivity_workloads`` random memory-intensive mixes).
    """
    description = (inspect.getdoc(aggregate) or "").split("\n", 1)[0].rstrip(".")
    if intensive:
        workloads = WorkloadSpec(kind="intensive", count=scale.sensitivity_workloads)
    else:
        workloads = WorkloadSpec(
            kind="category_sweep", count=scale.workloads_per_category
        )
    return SweepSpec(
        name=aggregate.__name__,
        description=description,
        axes=(axis or Axis("density_gb", scale.densities),),
        mechanisms=mechanisms,
        baseline=baseline,
        base=base or {},
        workloads=workloads,
    )


def _by_point(sweep: SweepResult) -> dict[object, dict[str, dict[str, SweepCell]]]:
    """Cells as ``{axis value: {workload: {mechanism: cell}}}``, in plan order.

    Every spec here has one axis, so its value names the design point.
    Plain dicts keep insertion order: points come in axis order, and a
    point's workloads and mechanisms in the order the spec planned them.
    """
    (axis,) = sweep.spec.axis_names()
    table: dict[object, dict[str, dict[str, SweepCell]]] = {}
    for cell in sweep.cells:
        per_point = table.setdefault(cell.point[axis], {})
        per_point.setdefault(cell.workload, {})[cell.mechanism] = cell
    return table


def _normalized(cells: dict[str, SweepCell], baseline: str) -> dict[str, float]:
    """Every mechanism's weighted speedup normalized to ``baseline``'s."""
    base = cells[baseline].weighted_speedup
    return {name: cell.weighted_speedup / base for name, cell in cells.items()}


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------------
# Figure 5: refresh-latency scaling trend
# ---------------------------------------------------------------------------
def figure5_refresh_latency_trend(
    densities: tuple[int, ...] = (1, 8, 16, 24, 32, 40, 48, 56, 64),
) -> list[RefreshLatencyPoint]:
    """Figure 5: projected tRFCab versus DRAM density (no simulation).

    The paper's Projection 2 gives 530 ns at 16 Gb, 890 ns at 32 Gb and
    1.6 us at 64 Gb; Projection 1 is the more pessimistic extrapolation.
    """
    return refresh_latency_trend(densities)


# ---------------------------------------------------------------------------
# Figures 6 and 7: performance loss of the refresh baselines vs the ideal
# ---------------------------------------------------------------------------
def figure6_refab_performance_loss(sweep: SweepResult) -> dict[int, dict[int, float]]:
    """Figure 6: % WS loss of REFab vs the no-refresh ideal.

    The paper reports the loss growing with both density and memory
    intensity: 8.2 % at 8 Gb and 19.9 % at 32 Gb on average for
    memory-intensive workloads.

    Returns ``{category: {density: loss_percent}}`` with an extra key
    ``-1`` holding the all-category average per density.
    """
    grid = _by_point(sweep)
    losses: dict[int, dict[int, list[float]]] = {
        category: {density: [] for density in grid} for category in INTENSITY_CATEGORIES
    }
    for density, per_workload in grid.items():
        for cells in per_workload.values():
            loss = (1.0 - _normalized(cells, "none")["refab"]) * 100.0
            losses[cells["refab"].category][density].append(loss)
    result: dict[int, dict[int, float]] = {
        category: {density: _mean(values) for density, values in per_density.items()}
        for category, per_density in losses.items()
    }
    result[-1] = {
        density: sum(result[c][density] for c in INTENSITY_CATEGORIES)
        / len(INTENSITY_CATEGORIES)
        for density in grid
    }
    return result


def figure6_spec(scale: ExperimentScale) -> SweepSpec:
    return _spec(figure6_refab_performance_loss, scale, ("none", "refab"), "none")


def figure7_refab_vs_refpb_loss(sweep: SweepResult) -> dict[int, dict[str, float]]:
    """Figure 7: average % WS loss of REFab and REFpb vs the ideal, per density.

    The paper shows per-bank refresh recovering part of all-bank
    refresh's loss at every density, while still leaving a significant
    gap at 32 Gb.
    """
    result: dict[int, dict[str, float]] = {}
    for density, per_workload in _by_point(sweep).items():
        losses: dict[str, list[float]] = {"refab": [], "refpb": []}
        for cells in per_workload.values():
            normalized = _normalized(cells, "none")
            for mechanism, values in losses.items():
                values.append((1.0 - normalized[mechanism]) * 100.0)
        result[density] = {name: _mean(values) for name, values in losses.items()}
    return result


def figure7_spec(scale: ExperimentScale) -> SweepSpec:
    return _spec(figure7_refab_vs_refpb_loss, scale, ("none", "refab", "refpb"), "none")


# ---------------------------------------------------------------------------
# Figure 12 and Table 2: the main per-workload evaluation
# ---------------------------------------------------------------------------
MAIN_MECHANISMS: tuple[str, ...] = ("refab", "refpb", "darp", "sarppb", "dsarp")


def figure12_workload_sweep(
    sweep: SweepResult,
) -> dict[int, dict[str, dict[str, float]]]:
    """Figure 12: per-workload WS normalized to REFab, per density.

    The paper plots REFpb, DARP, SARPpb and DSARP for every workload and
    density, each normalized to all-bank refresh.

    Returns ``{density: {workload_name: {mechanism: normalized_ws}}}``.
    """
    return {
        density: {
            workload: _normalized(cells, "refab")
            for workload, cells in per_workload.items()
        }
        for density, per_workload in _by_point(sweep).items()
    }


def figure12_spec(scale: ExperimentScale) -> SweepSpec:
    return _spec(figure12_workload_sweep, scale, MAIN_MECHANISMS)


def table2_improvement_summary(
    sweep: SweepResult,
) -> dict[int, dict[str, dict[str, float]]]:
    """Table 2: max and gmean WS improvement over REFpb and REFab.

    The paper's headline: DSARP's gmean improvement over REFpb is 3.3 % /
    7.2 % / 15.2 % at 8 / 16 / 32 Gb, larger over REFab, and it grows with
    density.

    Runs on Figure 12's grid; see :func:`table2_from_figure12`.
    """
    return table2_from_figure12(figure12_workload_sweep(sweep))


def table2_from_figure12(
    per_density: dict[int, dict[str, dict[str, float]]],
) -> dict[int, dict[str, dict[str, float]]]:
    """Reduce a Figure 12 payload to Table 2.

    Returns ``{density: {mechanism: {"max_refpb", "gmean_refpb",
    "max_refab", "gmean_refab"}}}`` (all in percent) for DARP, SARPpb and
    DSARP.
    """
    result: dict[int, dict[str, dict[str, float]]] = {}
    for density, per_workload in per_density.items():
        result[density] = {}
        for mechanism in ("darp", "sarppb", "dsarp"):
            over_refab = []
            over_refpb = []
            for norms in per_workload.values():
                over_refab.append((norms[mechanism] - 1.0) * 100.0)
                over_refpb.append((norms[mechanism] / norms["refpb"] - 1.0) * 100.0)
            result[density][mechanism] = {
                "max_refpb": max(over_refpb),
                "gmean_refpb": average_percent_improvement(over_refpb),
                "max_refab": max(over_refab),
                "gmean_refab": average_percent_improvement(over_refab),
            }
    return result


# ---------------------------------------------------------------------------
# Figure 13 and Figure 14: all mechanisms, performance and energy
# ---------------------------------------------------------------------------
ALL_MECHANISMS: tuple[str, ...] = (
    "refab",
    "refpb",
    "elastic",
    "darp",
    "sarpab",
    "sarppb",
    "dsarp",
    "none",
)


def figure13_all_mechanisms(sweep: SweepResult) -> dict[int, dict[str, float]]:
    """Figure 13: average % WS improvement over REFab for every mechanism.

    The paper's ordering at every density is REFab < elastic refresh
    (~1.8 %) <= REFpb < DARP, SARPab, SARPpb < DSARP <= No-REF, with
    DSARP capturing most of the ideal No-REF benefit.
    """
    result: dict[int, dict[str, float]] = {}
    for density, per_workload in _by_point(sweep).items():
        improvements: dict[str, list[float]] = {m: [] for m in sweep.spec.mechanisms}
        for cells in per_workload.values():
            for mechanism, value in _normalized(cells, "refab").items():
                improvements[mechanism].append((value - 1.0) * 100.0)
        result[density] = {
            mechanism: average_percent_improvement(values)
            for mechanism, values in improvements.items()
        }
    return result


def figure13_spec(scale: ExperimentScale) -> SweepSpec:
    return _spec(figure13_all_mechanisms, scale, ALL_MECHANISMS)


def figure14_energy_per_access(sweep: SweepResult) -> dict[int, dict[str, float]]:
    """Figure 14: average energy per access (nJ) for every mechanism.

    The paper reports DSARP reducing energy per access versus REFab by
    3.0 % / 5.2 % / 9.0 % at 8 / 16 / 32 Gb, mostly by amortizing
    background energy over a shorter execution.

    The average is weighted by the number of accesses each workload serves
    (total energy over total accesses).  An unweighted mean would be
    dominated by the 0 %-intensive mix, whose handful of DRAM accesses make
    its per-access energy mostly background noise.
    """
    result: dict[int, dict[str, float]] = {}
    for density, per_workload in _by_point(sweep).items():
        total_energy: dict[str, float] = {m: 0.0 for m in sweep.spec.mechanisms}
        total_accesses: dict[str, int] = {m: 0 for m in sweep.spec.mechanisms}
        for cells in per_workload.values():
            for mechanism, cell in cells.items():
                total_energy[mechanism] += cell.energy_nj
                total_accesses[mechanism] += cell.accesses
        result[density] = {
            mechanism: total_energy[mechanism] / max(1, total_accesses[mechanism])
            for mechanism in total_energy
        }
    return result


def figure14_spec(scale: ExperimentScale) -> SweepSpec:
    return _spec(figure14_energy_per_access, scale, ALL_MECHANISMS)


# ---------------------------------------------------------------------------
# Figure 15: DSARP gains versus memory intensity
# ---------------------------------------------------------------------------
def figure15_memory_intensity(
    sweep: SweepResult,
) -> dict[int, dict[int, dict[str, float]]]:
    """Figure 15: DSARP % WS gain over REFab and REFpb by intensity category.

    The paper shows DSARP's gain over REFab growing with the fraction of
    memory-intensive benchmarks in the workload, at every density.

    Returns ``{category: {density: {"vs_refab": pct, "vs_refpb": pct}}}``.
    """
    grid = _by_point(sweep)
    gains: dict[int, dict[int, dict[str, list[float]]]] = {
        category: {density: {"vs_refab": [], "vs_refpb": []} for density in grid}
        for category in INTENSITY_CATEGORIES
    }
    for density, per_workload in grid.items():
        for cells in per_workload.values():
            normalized = _normalized(cells, "refab")
            bucket = gains[cells["refab"].category][density]
            bucket["vs_refab"].append((normalized["dsarp"] - 1.0) * 100.0)
            bucket["vs_refpb"].append(
                (normalized["dsarp"] / normalized["refpb"] - 1.0) * 100.0
            )
    return {
        category: {
            density: {key: _mean(values) for key, values in buckets.items()}
            for density, buckets in per_density.items()
        }
        for category, per_density in gains.items()
    }


def figure15_spec(scale: ExperimentScale) -> SweepSpec:
    return _spec(figure15_memory_intensity, scale, ("refab", "refpb", "dsarp"))


# ---------------------------------------------------------------------------
# Table 3: core-count sensitivity
# ---------------------------------------------------------------------------
def table3_core_count(sweep: SweepResult) -> dict[int, dict[str, float]]:
    """Table 3: DSARP vs REFab across core counts (WS, HS, fairness, energy).

    The paper reports every improvement growing with core count: 16 % /
    20 % / 27 % WS improvement for 2 / 4 / 8 cores at 32 Gb.
    """
    result: dict[int, dict[str, float]] = {}
    for cores, per_workload in _by_point(sweep).items():
        ws_gains, hs_gains, slowdown_reductions, energy_reductions = [], [], [], []
        for cells in per_workload.values():
            refab, dsarp = cells["refab"], cells["dsarp"]
            ws_gains.append(
                (dsarp.weighted_speedup / refab.weighted_speedup - 1.0) * 100.0
            )
            hs_gains.append(
                (dsarp.harmonic_speedup / refab.harmonic_speedup - 1.0) * 100.0
            )
            slowdown_reductions.append(
                (1.0 - dsarp.maximum_slowdown / refab.maximum_slowdown) * 100.0
            )
            energy_reductions.append(
                (1.0 - dsarp.energy_per_access_nj / refab.energy_per_access_nj) * 100.0
            )
        result[cores] = {
            "weighted_speedup_improvement": _mean(ws_gains),
            "harmonic_speedup_improvement": _mean(hs_gains),
            "maximum_slowdown_reduction": _mean(slowdown_reductions),
            "energy_per_access_reduction": _mean(energy_reductions),
        }
    return result


def table3_spec(scale: ExperimentScale) -> SweepSpec:
    return _spec(
        table3_core_count,
        scale,
        ("refab", "dsarp"),
        axis=Axis("num_cores", (2, 4, 8)),
        intensive=True,
        base={"density_gb": 32},
    )


# ---------------------------------------------------------------------------
# Tables 4 and 5: tFAW / tRRD and subarrays-per-bank sensitivity of SARPpb
# ---------------------------------------------------------------------------
def _sarppb_gain_by_point(sweep: SweepResult) -> dict[int, float]:
    """Gmean % WS gain of SARPpb over REFpb at every design point."""
    return {
        value: average_percent_improvement(
            [
                (_normalized(cells, "refpb")["sarppb"] - 1.0) * 100.0
                for cells in per_workload.values()
            ]
        )
        for value, per_workload in _by_point(sweep).items()
    }


def table4_tfaw_sensitivity(sweep: SweepResult) -> dict[int, float]:
    """Table 4: % WS improvement of SARPpb over REFpb as tFAW/tRRD vary.

    The paper reports the gain growing as tFAW shrinks, from 10.3 % at
    tFAW = 30 cycles to 14.0 % at tFAW = 5 cycles: a looser activation
    budget lets more accesses proceed in parallel with refreshes.
    """
    return _sarppb_gain_by_point(sweep)


def table4_spec(scale: ExperimentScale) -> SweepSpec:
    # tRRD follows the paper's max(1, tFAW // 5) pairing, applied by the
    # sweep compiler when tfaw is swept without an explicit trrd.
    return _spec(
        table4_tfaw_sensitivity,
        scale,
        ("refpb", "sarppb"),
        baseline="refpb",
        axis=Axis("tfaw", (5, 10, 15, 20, 25, 30)),
        intensive=True,
        base={"density_gb": 32},
    )


def table5_subarray_sensitivity(sweep: SweepResult) -> dict[int, float]:
    """Table 5: % WS improvement of SARPpb over REFpb vs subarrays per bank.

    With one subarray per bank every access to a refreshing bank
    conflicts, so SARP cannot help.  The paper reports the gain growing
    from 0 % at one subarray to 16.9 % at 64, saturating beyond ~16.
    """
    return _sarppb_gain_by_point(sweep)


def table5_spec(scale: ExperimentScale) -> SweepSpec:
    return _spec(
        table5_subarray_sensitivity,
        scale,
        ("refpb", "sarppb"),
        baseline="refpb",
        axis=Axis("subarrays_per_bank", (1, 2, 4, 8, 16, 32, 64)),
        intensive=True,
        base={"density_gb": 32},
    )


# ---------------------------------------------------------------------------
# Table 6: 64 ms retention time
# ---------------------------------------------------------------------------
def table6_refresh_interval(sweep: SweepResult) -> dict[int, dict[str, float]]:
    """Table 6: DSARP improvement over REFpb / REFab at 64 ms retention.

    Doubling the retention time halves the refresh rate, so every gain
    shrinks relative to 32 ms; the paper still shows DSARP improving over
    both baselines, by more at higher density.
    """
    result: dict[int, dict[str, float]] = {}
    for density, per_workload in _by_point(sweep).items():
        over_refab, over_refpb = [], []
        for cells in per_workload.values():
            normalized = _normalized(cells, "refab")
            over_refab.append((normalized["dsarp"] - 1.0) * 100.0)
            over_refpb.append((normalized["dsarp"] / normalized["refpb"] - 1.0) * 100.0)
        result[density] = {
            "max_refpb": max(over_refpb),
            "gmean_refpb": average_percent_improvement(over_refpb),
            "max_refab": max(over_refab),
            "gmean_refab": average_percent_improvement(over_refab),
        }
    return result


def table6_spec(scale: ExperimentScale) -> SweepSpec:
    return _spec(
        table6_refresh_interval,
        scale,
        ("refab", "refpb", "dsarp"),
        intensive=True,
        base={"retention_ms": 64.0},
    )


# ---------------------------------------------------------------------------
# Figure 16: DDR4 fine-granularity refresh and adaptive refresh
# ---------------------------------------------------------------------------
FGR_MECHANISMS: tuple[str, ...] = ("refab", "fgr2x", "fgr4x", "ar", "dsarp")


def figure16_fgr_comparison(sweep: SweepResult) -> dict[int, dict[str, float]]:
    """Figure 16: WS normalized to REFab for FGR 2x/4x, AR and DSARP.

    The paper shows DDR4 fine-granularity refresh at 2x/4x degrading
    performance relative to REFab, because tRFC does not scale down with
    the refresh rate; adaptive refresh stays within ~1 % of REFab, and
    DSARP outperforms all of them.
    """
    result: dict[int, dict[str, float]] = {}
    for density, per_workload in _by_point(sweep).items():
        ratios: dict[str, list[float]] = {m: [] for m in sweep.spec.mechanisms}
        for cells in per_workload.values():
            for mechanism, value in _normalized(cells, "refab").items():
                ratios[mechanism].append(value)
        result[density] = {
            mechanism: geometric_mean(values) for mechanism, values in ratios.items()
        }
    return result


def figure16_spec(scale: ExperimentScale) -> SweepSpec:
    return _spec(figure16_fgr_comparison, scale, FGR_MECHANISMS, intensive=True)


# ---------------------------------------------------------------------------
# Ablations (Section 6.1.2): DARP component breakdown, DSARP additivity
# ---------------------------------------------------------------------------
def darp_component_breakdown(
    runner: Optional[ExperimentRunner] = None,
    scale: Optional[ExperimentScale] = None,
) -> dict[int, dict[str, float]]:
    """Section 6.1.2: out-of-order refresh alone versus full DARP.

    The paper attributes DARP's gain to both components: out-of-order
    per-bank refresh alone improves over REFab, and write-refresh
    parallelization adds further benefit on top.

    Returns ``{density: {"out_of_order_only": pct, "darp": pct}}`` as % WS
    improvement over REFab.
    """
    runner = runner if runner is not None else get_default_runner()
    scale = scale or default_scale()
    workloads = make_workload_sweep(workloads_per_category=scale.workloads_per_category)
    pairs = []
    for density in scale.densities:
        base_config = paper_system(density_gb=density)
        configs = (
            base_config.with_mechanism("refab"),
            base_config.with_mechanism("darp"),
            base_config.with_mechanism(
                "darp", enable_write_refresh_parallelization=False
            ),
        )
        pairs += [(workload, config) for workload in workloads for config in configs]
    # One batch for every density; results come back in plan order.
    results = iter(runner.run_many(pairs))
    result: dict[int, dict[str, float]] = {}
    for density in scale.densities:
        ooo_gains, darp_gains = [], []
        for _ in workloads:
            refab, darp, ooo = next(results), next(results), next(results)
            base_ws = refab.weighted_speedup
            ooo_gains.append((ooo.weighted_speedup / base_ws - 1.0) * 100.0)
            darp_gains.append((darp.weighted_speedup / base_ws - 1.0) * 100.0)
        result[density] = {
            "out_of_order_only": average_percent_improvement(ooo_gains),
            "darp": average_percent_improvement(darp_gains),
        }
    return result


def dsarp_additivity(sweep: SweepResult) -> dict[str, float]:
    """Ablation: DARP, SARPpb and their combination DSARP over REFab (one density).

    The paper observes additive benefit (Section 6.1): DSARP performs at
    least as well as the better of its two components, with the gap
    widening at high density.
    """
    (per_workload,) = _by_point(sweep).values()
    gains: dict[str, list[float]] = {"darp": [], "sarppb": [], "dsarp": []}
    for cells in per_workload.values():
        normalized = _normalized(cells, "refab")
        for mechanism, values in gains.items():
            values.append((normalized[mechanism] - 1.0) * 100.0)
    return {
        mechanism: average_percent_improvement(values) for mechanism, values in gains.items()
    }


def dsarp_additivity_spec(scale: ExperimentScale) -> SweepSpec:
    return _spec(
        dsarp_additivity,
        scale,
        ("refab", "darp", "sarppb", "dsarp"),
        axis=Axis("density_gb", (32,)),
    )
