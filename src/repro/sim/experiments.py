"""Paper experiment definitions: one function per figure / table.

Every function reproduces the *structure* of one of the paper's results —
the same mechanisms, sweeps and aggregation — on the synthetic workload
suite.  The default scale (workloads per category, simulated cycles) is far
below the paper's 100 workloads x 256 M cycles so the whole harness runs on
a laptop; set ``REPRO_FULL=1`` or pass explicit parameters to scale up.

All functions share an :class:`~repro.sim.runner.ExperimentRunner`, whose
memoization ensures that, e.g., the REFab baseline runs are simulated only
once even though several figures need them.

Each docstring's first line describes the experiment on every surface,
and its body quotes the paper's own numbers.
:data:`repro.sim.registry.EXPERIMENTS` pairs each function with its
tables, chart, benchmark metrics and trend checks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.config.presets import paper_system
from repro.config.refresh_config import RefreshMechanism
from repro.metrics.speedup import average_percent_improvement, geometric_mean
from repro.sim.projections import RefreshLatencyPoint, refresh_latency_trend
from repro.sim.runner import ExperimentRunner, get_default_runner
from repro.workloads.mixes import (
    INTENSITY_CATEGORIES,
    Workload,
    make_workload_sweep,
    memory_intensive_workloads,
)

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


def _runner(runner: Optional[ExperimentRunner]) -> ExperimentRunner:
    return runner if runner is not None else get_default_runner()


def _sweep_workloads(scale: ExperimentScale) -> list[Workload]:
    return make_workload_sweep(workloads_per_category=scale.workloads_per_category)


def _sensitivity_workloads(scale: ExperimentScale) -> list[Workload]:
    return memory_intensive_workloads(count=scale.sensitivity_workloads)


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
def figure6_refab_performance_loss(
    runner: Optional[ExperimentRunner] = None,
    scale: Optional[ExperimentScale] = None,
) -> dict[int, dict[int, float]]:
    """Figure 6: % WS loss of REFab vs the no-refresh ideal.

    The paper reports the loss growing with both density and memory
    intensity: 8.2 % at 8 Gb and 19.9 % at 32 Gb on average for
    memory-intensive workloads.

    Returns ``{category: {density: loss_percent}}`` with an extra key
    ``-1`` holding the all-category average per density.
    """
    runner = _runner(runner)
    scale = scale or default_scale()
    workloads = _sweep_workloads(scale)
    losses: dict[int, dict[int, list[float]]] = {
        category: {density: [] for density in scale.densities}
        for category in INTENSITY_CATEGORIES
    }
    for density in scale.densities:
        base_config = paper_system(density_gb=density)
        comparisons = runner.compare_many(
            workloads, base_config, (RefreshMechanism.NONE, RefreshMechanism.REFAB)
        )
        for workload, comparison in zip(workloads, comparisons):
            normalized = comparison.normalized_to(RefreshMechanism.NONE.value)
            loss = (1.0 - normalized[RefreshMechanism.REFAB.value]) * 100.0
            losses[workload.category][density].append(loss)
    result: dict[int, dict[int, float]] = {}
    for category, per_density in losses.items():
        result[category] = {
            density: (sum(vals) / len(vals) if vals else 0.0)
            for density, vals in per_density.items()
        }
    result[-1] = {
        density: sum(result[c][density] for c in INTENSITY_CATEGORIES)
        / len(INTENSITY_CATEGORIES)
        for density in scale.densities
    }
    return result


def figure7_refab_vs_refpb_loss(
    runner: Optional[ExperimentRunner] = None,
    scale: Optional[ExperimentScale] = None,
) -> dict[int, dict[str, float]]:
    """Figure 7: average % WS loss of REFab and REFpb vs the ideal, per density.

    The paper shows per-bank refresh recovering part of all-bank
    refresh's loss at every density, while still leaving a significant
    gap at 32 Gb.
    """
    runner = _runner(runner)
    scale = scale or default_scale()
    workloads = _sweep_workloads(scale)
    result: dict[int, dict[str, float]] = {}
    for density in scale.densities:
        base_config = paper_system(density_gb=density)
        losses = {"refab": [], "refpb": []}
        comparisons = runner.compare_many(
            workloads,
            base_config,
            (RefreshMechanism.NONE, RefreshMechanism.REFAB, RefreshMechanism.REFPB),
        )
        for comparison in comparisons:
            normalized = comparison.normalized_to(RefreshMechanism.NONE.value)
            losses["refab"].append((1.0 - normalized["refab"]) * 100.0)
            losses["refpb"].append((1.0 - normalized["refpb"]) * 100.0)
        result[density] = {
            mech: sum(values) / len(values) for mech, values in losses.items()
        }
    return result


# ---------------------------------------------------------------------------
# Figure 12 and Table 2: the main per-workload evaluation
# ---------------------------------------------------------------------------
MAIN_MECHANISMS: tuple[str, ...] = ("refab", "refpb", "darp", "sarppb", "dsarp")


def figure12_workload_sweep(
    runner: Optional[ExperimentRunner] = None,
    scale: Optional[ExperimentScale] = None,
    mechanisms: Sequence[str] = MAIN_MECHANISMS,
) -> dict[int, dict[str, dict[str, float]]]:
    """Figure 12: per-workload WS normalized to REFab, per density.

    The paper plots REFpb, DARP, SARPpb and DSARP for every workload and
    density, each normalized to all-bank refresh.

    Returns ``{density: {workload_name: {mechanism: normalized_ws}}}``.
    """
    runner = _runner(runner)
    scale = scale or default_scale()
    workloads = _sweep_workloads(scale)
    result: dict[int, dict[str, dict[str, float]]] = {}
    for density in scale.densities:
        base_config = paper_system(density_gb=density)
        per_workload: dict[str, dict[str, float]] = {}
        comparisons = runner.compare_many(workloads, base_config, mechanisms)
        for workload, comparison in zip(workloads, comparisons):
            per_workload[workload.name] = comparison.normalized_to("refab")
        result[density] = per_workload
    return result


def table2_improvement_summary(
    runner: Optional[ExperimentRunner] = None,
    scale: Optional[ExperimentScale] = None,
    sweep: Optional[dict[int, dict[str, dict[str, float]]]] = None,
) -> dict[int, dict[str, dict[str, float]]]:
    """Table 2: max and gmean WS improvement over REFpb and REFab.

    The paper's headline: DSARP's gmean improvement over REFpb is 3.3 % /
    7.2 % / 15.2 % at 8 / 16 / 32 Gb, larger over REFab, and it grows with
    density.

    Returns ``{density: {mechanism: {"max_refpb", "gmean_refpb",
    "max_refab", "gmean_refab"}}}`` (all in percent) for DARP, SARPpb and
    DSARP.
    """
    if sweep is None:
        sweep = figure12_workload_sweep(runner=runner, scale=scale)
    result: dict[int, dict[str, dict[str, float]]] = {}
    for density, per_workload in sweep.items():
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


def figure13_all_mechanisms(
    runner: Optional[ExperimentRunner] = None,
    scale: Optional[ExperimentScale] = None,
    mechanisms: Sequence[str] = ALL_MECHANISMS,
) -> dict[int, dict[str, float]]:
    """Figure 13: average % WS improvement over REFab for every mechanism.

    The paper's ordering at every density is REFab < elastic refresh
    (~1.8 %) <= REFpb < DARP, SARPab, SARPpb < DSARP <= No-REF, with
    DSARP capturing most of the ideal No-REF benefit.
    """
    runner = _runner(runner)
    scale = scale or default_scale()
    workloads = _sweep_workloads(scale)
    result: dict[int, dict[str, float]] = {}
    for density in scale.densities:
        base_config = paper_system(density_gb=density)
        improvements: dict[str, list[float]] = {m: [] for m in mechanisms}
        for comparison in runner.compare_many(workloads, base_config, mechanisms):
            normalized = comparison.normalized_to("refab")
            for mechanism in mechanisms:
                improvements[mechanism].append((normalized[mechanism] - 1.0) * 100.0)
        result[density] = {
            mechanism: average_percent_improvement(values)
            for mechanism, values in improvements.items()
        }
    return result


def figure14_energy_per_access(
    runner: Optional[ExperimentRunner] = None,
    scale: Optional[ExperimentScale] = None,
    mechanisms: Sequence[str] = ALL_MECHANISMS,
) -> dict[int, dict[str, float]]:
    """Figure 14: average energy per access (nJ) for every mechanism.

    The paper reports DSARP reducing energy per access versus REFab by
    3.0 % / 5.2 % / 9.0 % at 8 / 16 / 32 Gb, mostly by amortizing
    background energy over a shorter execution.

    The average is weighted by the number of accesses each workload serves
    (total energy over total accesses).  An unweighted mean would be
    dominated by the 0 %-intensive mix, whose handful of DRAM accesses make
    its per-access energy mostly background noise.
    """
    runner = _runner(runner)
    scale = scale or default_scale()
    workloads = _sweep_workloads(scale)
    result: dict[int, dict[str, float]] = {}
    for density in scale.densities:
        base_config = paper_system(density_gb=density)
        total_energy: dict[str, float] = {m: 0.0 for m in mechanisms}
        total_accesses: dict[str, int] = {m: 0 for m in mechanisms}
        for comparison in runner.compare_many(workloads, base_config, mechanisms):
            for mechanism in mechanisms:
                energy = comparison.results[mechanism].simulation.energy
                total_energy[mechanism] += energy["total_nj"]
                total_accesses[mechanism] += energy["accesses"]
        result[density] = {
            mechanism: total_energy[mechanism] / max(1, total_accesses[mechanism])
            for mechanism in mechanisms
        }
    return result


# ---------------------------------------------------------------------------
# Figure 15: DSARP gains versus memory intensity
# ---------------------------------------------------------------------------
def figure15_memory_intensity(
    runner: Optional[ExperimentRunner] = None,
    scale: Optional[ExperimentScale] = None,
) -> dict[int, dict[int, dict[str, float]]]:
    """Figure 15: DSARP % WS gain over REFab and REFpb by intensity category.

    The paper shows DSARP's gain over REFab growing with the fraction of
    memory-intensive benchmarks in the workload, at every density.

    Returns ``{category: {density: {"vs_refab": pct, "vs_refpb": pct}}}``.
    """
    runner = _runner(runner)
    scale = scale or default_scale()
    workloads = _sweep_workloads(scale)
    gains: dict[int, dict[int, dict[str, list[float]]]] = {
        category: {
            density: {"vs_refab": [], "vs_refpb": []} for density in scale.densities
        }
        for category in INTENSITY_CATEGORIES
    }
    for density in scale.densities:
        base_config = paper_system(density_gb=density)
        comparisons = runner.compare_many(
            workloads, base_config, ("refab", "refpb", "dsarp")
        )
        for workload, comparison in zip(workloads, comparisons):
            normalized = comparison.normalized_to("refab")
            bucket = gains[workload.category][density]
            bucket["vs_refab"].append((normalized["dsarp"] - 1.0) * 100.0)
            bucket["vs_refpb"].append(
                (normalized["dsarp"] / normalized["refpb"] - 1.0) * 100.0
            )
    result: dict[int, dict[int, dict[str, float]]] = {}
    for category, per_density in gains.items():
        result[category] = {}
        for density, buckets in per_density.items():
            result[category][density] = {
                key: (sum(vals) / len(vals) if vals else 0.0)
                for key, vals in buckets.items()
            }
    return result


# ---------------------------------------------------------------------------
# Table 3: core-count sensitivity
# ---------------------------------------------------------------------------
def table3_core_count(
    runner: Optional[ExperimentRunner] = None,
    scale: Optional[ExperimentScale] = None,
    core_counts: tuple[int, ...] = (2, 4, 8),
    density_gb: int = 32,
) -> dict[int, dict[str, float]]:
    """Table 3: DSARP vs REFab across core counts (WS, HS, fairness, energy).

    The paper reports every improvement growing with core count: 16 % /
    20 % / 27 % WS improvement for 2 / 4 / 8 cores at 32 Gb.
    """
    # Delegated to the declarative sweep subsystem (a one-axis core-count
    # spec); imported lazily because repro.sweep builds on this module.
    from repro.sweep.builtin import table3_core_count_via_sweep

    return table3_core_count_via_sweep(
        runner=_runner(runner),
        scale=scale or default_scale(),
        core_counts=core_counts,
        density_gb=density_gb,
    )


# ---------------------------------------------------------------------------
# Table 4: tFAW / tRRD sensitivity of SARPpb
# ---------------------------------------------------------------------------
def table4_tfaw_sensitivity(
    runner: Optional[ExperimentRunner] = None,
    scale: Optional[ExperimentScale] = None,
    tfaw_values: tuple[int, ...] = (5, 10, 15, 20, 25, 30),
    density_gb: int = 32,
) -> dict[int, float]:
    """Table 4: % WS improvement of SARPpb over REFpb as tFAW/tRRD vary.

    The paper reports the gain growing as tFAW shrinks, from 10.3 % at
    tFAW = 30 cycles to 14.0 % at tFAW = 5 cycles: a looser activation
    budget lets more accesses proceed in parallel with refreshes.
    """
    from repro.sweep.builtin import table4_tfaw_via_sweep

    return table4_tfaw_via_sweep(
        runner=_runner(runner),
        scale=scale or default_scale(),
        tfaw_values=tfaw_values,
        density_gb=density_gb,
    )


# ---------------------------------------------------------------------------
# Table 5: subarrays-per-bank sensitivity of SARPpb
# ---------------------------------------------------------------------------
def table5_subarray_sensitivity(
    runner: Optional[ExperimentRunner] = None,
    scale: Optional[ExperimentScale] = None,
    subarray_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64),
    density_gb: int = 32,
) -> dict[int, float]:
    """Table 5: % WS improvement of SARPpb over REFpb vs subarrays per bank.

    With one subarray per bank every access to a refreshing bank
    conflicts, so SARP cannot help.  The paper reports the gain growing
    from 0 % at one subarray to 16.9 % at 64, saturating beyond ~16.
    """
    from repro.sweep.builtin import table5_subarrays_via_sweep

    return table5_subarrays_via_sweep(
        runner=_runner(runner),
        scale=scale or default_scale(),
        subarray_counts=subarray_counts,
        density_gb=density_gb,
    )


# ---------------------------------------------------------------------------
# Table 6: 64 ms retention time
# ---------------------------------------------------------------------------
def table6_refresh_interval(
    runner: Optional[ExperimentRunner] = None,
    scale: Optional[ExperimentScale] = None,
    retention_ms: float = 64.0,
) -> dict[int, dict[str, float]]:
    """Table 6: DSARP improvement over REFpb / REFab at 64 ms retention.

    Doubling the retention time halves the refresh rate, so every gain
    shrinks relative to 32 ms; the paper still shows DSARP improving over
    both baselines, by more at higher density.
    """
    from repro.sweep.builtin import table6_refresh_interval_via_sweep

    return table6_refresh_interval_via_sweep(
        runner=_runner(runner),
        scale=scale or default_scale(),
        retention_ms=retention_ms,
    )


# ---------------------------------------------------------------------------
# Figure 16: DDR4 fine-granularity refresh and adaptive refresh
# ---------------------------------------------------------------------------
FGR_MECHANISMS: tuple[str, ...] = ("refab", "fgr2x", "fgr4x", "ar", "dsarp")


def figure16_fgr_comparison(
    runner: Optional[ExperimentRunner] = None,
    scale: Optional[ExperimentScale] = None,
    mechanisms: Sequence[str] = FGR_MECHANISMS,
) -> dict[int, dict[str, float]]:
    """Figure 16: WS normalized to REFab for FGR 2x/4x, AR and DSARP.

    The paper shows DDR4 fine-granularity refresh at 2x/4x degrading
    performance relative to REFab, because tRFC does not scale down with
    the refresh rate; adaptive refresh stays within ~1 % of REFab, and
    DSARP outperforms all of them.
    """
    runner = _runner(runner)
    scale = scale or default_scale()
    workloads = _sensitivity_workloads(scale)
    result: dict[int, dict[str, float]] = {}
    for density in scale.densities:
        base_config = paper_system(density_gb=density)
        ratios: dict[str, list[float]] = {m: [] for m in mechanisms}
        for comparison in runner.compare_many(workloads, base_config, mechanisms):
            normalized = comparison.normalized_to("refab")
            for mechanism in mechanisms:
                ratios[mechanism].append(normalized[mechanism])
        result[density] = {
            mechanism: geometric_mean(values) for mechanism, values in ratios.items()
        }
    return result


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
    runner = _runner(runner)
    scale = scale or default_scale()
    workloads = _sweep_workloads(scale)
    result: dict[int, dict[str, float]] = {}
    for density in scale.densities:
        base_config = paper_system(density_gb=density)
        ooo_only = base_config.with_mechanism(
            "darp", enable_write_refresh_parallelization=False
        )
        refab_config = base_config.with_mechanism("refab")
        darp_config = base_config.with_mechanism("darp")
        ooo_gains, darp_gains = [], []
        results = runner.run_many(
            [
                (workload, config)
                for workload in workloads
                for config in (refab_config, darp_config, ooo_only)
            ]
        )
        for offset in range(0, len(results), 3):
            refab, darp, ooo = results[offset : offset + 3]
            base_ws = refab.weighted_speedup
            ooo_gains.append((ooo.weighted_speedup / base_ws - 1.0) * 100.0)
            darp_gains.append((darp.weighted_speedup / base_ws - 1.0) * 100.0)
        result[density] = {
            "out_of_order_only": average_percent_improvement(ooo_gains),
            "darp": average_percent_improvement(darp_gains),
        }
    return result


def dsarp_additivity(
    runner: Optional[ExperimentRunner] = None,
    scale: Optional[ExperimentScale] = None,
    density_gb: int = 32,
) -> dict[str, float]:
    """Ablation: DARP, SARPpb and their combination DSARP over REFab (one density).

    The paper observes additive benefit (Section 6.1): DSARP performs at
    least as well as the better of its two components, with the gap
    widening at high density.
    """
    runner = _runner(runner)
    scale = scale or default_scale()
    workloads = _sweep_workloads(scale)
    base_config = paper_system(density_gb=density_gb)
    gains: dict[str, list[float]] = {"darp": [], "sarppb": [], "dsarp": []}
    for comparison in runner.compare_many(
        workloads, base_config, ("refab", "darp", "sarppb", "dsarp")
    ):
        normalized = comparison.normalized_to("refab")
        for mechanism in gains:
            gains[mechanism].append((normalized[mechanism] - 1.0) * 100.0)
    return {
        mechanism: average_percent_improvement(values) for mechanism, values in gains.items()
    }
