"""The paper's experiments: one :class:`Experiment` record per result.

Each record ties one of the paper's results (Tables 2-6, Figures 5-16 and
the Section 6.1.2 ablations) to everything that is done with it:

* the experiment ``function`` in :mod:`repro.sim.experiments`, whose
  docstring's first line describes the experiment on every surface and
  whose body cites the paper's numbers;
* ``tabulate``, reducing the payload to :class:`~repro.analysis.model.Table`
  blocks (the text artifact, the report's markdown and LaTeX);
* ``chart``, extracting the report's plot; ``None`` keeps the experiment
  out of ``repro report paper``;
* the ``bench`` name it is registered under in ``repro bench``, with its
  gated fidelity ``metrics`` and its paper-trend ``checks``.

``repro list/run/profile``, :func:`repro.report.paper.generate_paper_report`
and the benchmark suite (:mod:`repro.bench.suite`) all iterate
:data:`EXPERIMENTS`, so adding an experiment means adding one record.

The ``checks`` assert the paper's trends on a payload.  They hold at the
full measured window only; the benchmark suite skips them for simulating
experiments under a reduced ``REPRO_CYCLES`` window.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.analysis import figures, tables
from repro.analysis.model import Chart, Table
from repro.metrics.speedup import geometric_mean
from repro.sim import experiments
from repro.sim.experiments import ExperimentScale
from repro.sim.runner import ExperimentRunner


@dataclass(frozen=True)
class Experiment:
    """One paper result and how every surface renders and checks it."""

    name: str
    title: str
    function: Callable
    tabulate: Callable[[object], Union[Table, list[Table]]]
    bench: str
    chart: Optional[Callable[[object], Chart]] = None
    metrics: Optional[Callable[[object], dict]] = None
    checks: Optional[Callable[[object], None]] = None

    @property
    def description(self) -> str:
        """The first line of the experiment function's docstring."""
        doc = inspect.getdoc(self.function) or ""
        return doc.split("\n", 1)[0].strip().rstrip(".")

    @property
    def simulates(self) -> bool:
        """Whether the function takes a runner (Figure 5 is closed-form)."""
        return "runner" in inspect.signature(self.function).parameters

    def run(self, runner: ExperimentRunner, scale: ExperimentScale) -> object:
        """Compute the experiment's payload."""
        if not self.simulates:
            return self.function()
        return self.function(runner=runner, scale=scale)

    def tables(self, payload: object) -> list[Table]:
        """The payload's table blocks, always as a list."""
        blocks = self.tabulate(payload)
        return blocks if isinstance(blocks, list) else [blocks]

    def text(self, payload: object) -> str:
        """The fixed-width text artifact: every block, blank-line separated."""
        return "\n\n".join(block.to_text() for block in self.tables(payload))


# -- metrics and checks -------------------------------------------------------
#
# Metric keys are flat strings (``dsarp_gmean_refab_32gb``) so benchmark
# documents diff cleanly.  Only deterministic simulation outputs go in.


def _flat(template: str) -> Callable[[dict], dict]:
    """Metrics keyed by ``template`` over a ``{outer: {inner: value}}`` payload."""

    def metrics(result: dict) -> dict:
        return {
            template.format(outer=outer, inner=inner): value
            for outer, entry in result.items()
            for inner, value in entry.items()
        }

    return metrics


def _figure5_metrics(points) -> dict:
    by_density = {p.density_gb: p for p in points}
    return {
        f"projection2_ns_{density}gb": by_density[density].projection2_ns
        for density in (16, 32, 64)
    } | {"projection1_ns_64gb": by_density[64].projection1_ns}


def _figure5_checks(points) -> None:
    by_density = {p.density_gb: p for p in points}
    # The paper's Projection 2 values: 530 ns (16 Gb), 890 ns (32 Gb), 1.6 us (64 Gb).
    assert round(by_density[16].projection2_ns) == 530
    assert round(by_density[32].projection2_ns) == 890
    assert round(by_density[64].projection2_ns) == 1610
    # Projection 1 is the more pessimistic extrapolation.
    assert by_density[64].projection1_ns > by_density[64].projection2_ns


def _figure6_metrics(result) -> dict:
    # Category -1 is the all-category average the paper quotes.
    return {
        f"avg_loss_pct_{density}gb": loss for density, loss in result[-1].items()
    } | {
        f"intensive_loss_pct_{density}gb": loss
        for density, loss in result[100].items()
    }


def _figure6_checks(result) -> None:
    average = result[-1]
    # Refresh hurts, and hurts more at higher density (the paper's trend).
    assert average[32] > average[8] > 0
    # The most memory-intensive category suffers more than the least at 32 Gb.
    assert result[100][32] > result[0][32]


def _figure7_checks(result) -> None:
    for density, losses in result.items():
        # Per-bank refresh always loses less than all-bank refresh.
        assert losses["refpb"] < losses["refab"]
    # Both penalties grow with density.
    assert result[32]["refab"] > result[8]["refab"]
    assert result[32]["refpb"] >= result[8]["refpb"]


def _figure12_metrics(sweep) -> dict:
    metrics = {}
    for density, per_workload in sweep.items():
        for mechanism in ("refpb", "dsarp"):
            values = [norms[mechanism] for norms in per_workload.values()]
            metrics[f"{mechanism}_gmean_norm_{density}gb"] = geometric_mean(values)
    return metrics


def _figure12_checks(sweep) -> None:
    for density, per_workload in sweep.items():
        dsarp = geometric_mean([norms["dsarp"] for norms in per_workload.values()])
        refpb = geometric_mean([norms["refpb"] for norms in per_workload.values()])
        # DSARP improves over REFab on average, and beats REFpb on average.
        assert dsarp > 1.0
        assert dsarp >= refpb
    # The benefit of DSARP over REFab grows with density (the headline trend).
    dsarp_by_density = {
        density: geometric_mean([n["dsarp"] for n in per_workload.values()])
        for density, per_workload in sweep.items()
    }
    assert dsarp_by_density[32] > dsarp_by_density[8]


def _figure13_checks(result) -> None:
    for density, improvements in result.items():
        # The ideal no-refresh system bounds everything (within noise).
        for mechanism, value in improvements.items():
            assert value <= improvements["none"] + 2.0, (density, mechanism)
        # DSARP improves over REFab and over plain per-bank refresh.
        assert improvements["dsarp"] > 0
        assert improvements["dsarp"] >= improvements["refpb"] - 0.5
        # Elastic refresh gives little benefit over REFab (paper: ~1.8 %).
        assert improvements["elastic"] < improvements["dsarp"]
    # Benefits grow with density.
    assert result[32]["dsarp"] > result[8]["dsarp"]
    assert result[32]["none"] > result[8]["none"]


def _figure14_metrics(result) -> dict:
    metrics = {}
    for density, energies in result.items():
        metrics[f"dsarp_saving_vs_refab_{density}gb"] = (
            1.0 - energies["dsarp"] / energies["refab"]
        )
    return metrics


def _figure14_checks(result) -> None:
    for density, energies in result.items():
        # Refresh costs energy: the ideal no-refresh system is cheapest.
        assert energies["none"] <= energies["refab"]
        # DSARP reduces energy per access relative to all-bank refresh.
        assert energies["dsarp"] < energies["refab"]
    # The energy penalty of REFab grows with density, so DSARP's relative
    # saving grows too (paper: 3.0 % -> 9.0 %).
    saving_8 = 1 - result[8]["dsarp"] / result[8]["refab"]
    saving_32 = 1 - result[32]["dsarp"] / result[32]["refab"]
    assert saving_32 > saving_8


def _figure15_metrics(result) -> dict:
    return {
        f"vs_refab_pct_cat{category}_{density}gb": values["vs_refab"]
        for category, by_density in result.items()
        for density, values in by_density.items()
    }


def _figure15_checks(result) -> None:
    # DSARP's gain over REFab for memory-intensive workloads exceeds the
    # gain for non-intensive workloads at the highest density.
    assert result[100][32]["vs_refab"] > result[0][32]["vs_refab"]
    # And the intensive-workload gain grows with density.
    assert result[100][32]["vs_refab"] > result[100][8]["vs_refab"]


def _figure16_checks(result) -> None:
    for density, normalized in result.items():
        # Fine-granularity refresh at 4x rate is worse than plain REFab.
        assert normalized["fgr4x"] < 1.0
        # 4x is worse than 2x (its aggregate refresh overhead is larger).
        assert normalized["fgr4x"] <= normalized["fgr2x"] + 0.02
        # DSARP beats REFab, FGR and AR.
        assert normalized["dsarp"] > 1.0
        assert normalized["dsarp"] > normalized["fgr2x"]
        assert normalized["dsarp"] > normalized["ar"]


def _table2_metrics(summary) -> dict:
    return {
        f"{mechanism}_{kind}_{density}gb": value
        for density, mechanisms in summary.items()
        for mechanism, entry in mechanisms.items()
        for kind, value in entry.items()
    }


def _table2_checks(summary) -> None:
    for density, mechanisms in summary.items():
        for name, entry in mechanisms.items():
            # Max improvements bound the gmean improvements.
            assert entry["max_refab"] >= entry["gmean_refab"]
            assert entry["max_refpb"] >= entry["gmean_refpb"]
        # DSARP improves over REFab on average at every density.
        assert mechanisms["dsarp"]["gmean_refab"] > 0
    # DSARP's benefit over REFab grows with DRAM density.
    assert summary[32]["dsarp"]["gmean_refab"] > summary[8]["dsarp"]["gmean_refab"]


def _table3_checks(result) -> None:
    for cores, entry in result.items():
        # DSARP never degrades weighted speedup relative to REFab.
        assert entry["weighted_speedup_improvement"] > 0
        assert entry["energy_per_access_reduction"] > 0
    # The benefit does not shrink as core count (memory pressure) grows.
    assert (
        result[8]["weighted_speedup_improvement"]
        >= result[2]["weighted_speedup_improvement"] * 0.5
    )


def _table4_metrics(result) -> dict:
    return {f"improvement_pct_tfaw{tfaw}": value for tfaw, value in result.items()}


def _table4_checks(result) -> None:
    tfaws = sorted(result)
    # SARPpb improves over REFpb at the default tFAW of 20 cycles.
    assert result[20] > 0
    # Tightening tFAW (larger values) never increases SARPpb's benefit
    # beyond what the loosest setting achieves.
    assert max(result.values()) >= result[tfaws[-1]]


def _table5_metrics(result) -> dict:
    return {
        f"improvement_pct_{count}subarrays": value for count, value in result.items()
    }


def _table5_checks(result) -> None:
    # One subarray per bank means SARP cannot parallelize anything.
    assert abs(result[1]) < 1.5
    # More subarrays reduce the probability of a subarray conflict, so the
    # benefit at 64 subarrays exceeds the benefit at 1.
    assert result[64] > result[1]
    # And the large-subarray-count regime beats the single-subarray case by
    # a clear margin (the paper's trend).
    assert max(result[c] for c in (16, 32, 64)) > result[2]


def _table6_checks(result) -> None:
    for density, entry in result.items():
        assert entry["gmean_refab"] > -1.0  # never a real regression
    # The improvement over REFab grows with density even at 64 ms.
    assert result[32]["gmean_refab"] > result[8]["gmean_refab"]
    # And DSARP still improves over REFab at the highest density.
    assert result[32]["gmean_refab"] > 0


def _darp_components_checks(result) -> None:
    for density, entry in result.items():
        # Out-of-order refresh alone already improves over REFab.
        assert entry["out_of_order_only"] > 0
        # Full DARP is at least comparable to its out-of-order component
        # (write-refresh parallelization should not hurt).
        assert entry["darp"] >= entry["out_of_order_only"] - 1.5


def _dsarp_additivity_metrics(result) -> dict:
    return {f"{name}_improvement_pct": value for name, value in result.items()}


def _dsarp_additivity_checks(result) -> None:
    # Every component improves over REFab at 32 Gb.
    assert result["darp"] > 0
    assert result["sarppb"] > 0
    # The combination is at least as good as DARP alone (within noise) and
    # improves on REFab by more than either component degrades.
    assert result["dsarp"] >= result["darp"] - 1.0
    assert result["dsarp"] > 0


# -- the registry -------------------------------------------------------------

EXPERIMENTS: dict[str, Experiment] = {
    experiment.name: experiment
    for experiment in (
        Experiment(
            name="figure5",
            title="Figure 5: refresh latency (tRFCab) trend",
            function=experiments.figure5_refresh_latency_trend,
            tabulate=figures.tabulate_figure5,
            chart=figures.chart_figure5,
            bench="figure05_trfc_trend",
            metrics=_figure5_metrics,
            checks=_figure5_checks,
        ),
        Experiment(
            name="figure6",
            title="Figure 6: performance loss due to REFab",
            function=experiments.figure6_refab_performance_loss,
            tabulate=figures.tabulate_figure6,
            chart=figures.chart_figure6,
            bench="figure06_refab_loss",
            metrics=_figure6_metrics,
            checks=_figure6_checks,
        ),
        Experiment(
            name="figure7",
            title="Figure 7: performance loss due to REFab and REFpb",
            function=experiments.figure7_refab_vs_refpb_loss,
            tabulate=figures.tabulate_figure7,
            chart=figures.chart_figure7,
            bench="figure07_refab_vs_refpb",
            metrics=_flat("{inner}_loss_pct_{outer}gb"),
            checks=_figure7_checks,
        ),
        Experiment(
            name="figure12",
            title="Figure 12: per-workload WS normalized to REFab",
            function=experiments.figure12_workload_sweep,
            tabulate=figures.tabulate_figure12,
            chart=figures.chart_figure12,
            bench="figure12_workload_sweep",
            metrics=_figure12_metrics,
            checks=_figure12_checks,
        ),
        Experiment(
            name="figure13",
            title="Figure 13: average WS improvement over REFab",
            function=experiments.figure13_all_mechanisms,
            tabulate=figures.tabulate_figure13,
            chart=figures.chart_figure13,
            bench="figure13_all_mechanisms",
            metrics=_flat("{inner}_improvement_pct_{outer}gb"),
            checks=_figure13_checks,
        ),
        Experiment(
            name="figure14",
            title="Figure 14: energy per access",
            function=experiments.figure14_energy_per_access,
            tabulate=figures.tabulate_figure14,
            chart=figures.chart_figure14,
            bench="figure14_energy",
            metrics=_figure14_metrics,
            checks=_figure14_checks,
        ),
        Experiment(
            name="figure15",
            title="Figure 15: DSARP improvement by memory intensity",
            function=experiments.figure15_memory_intensity,
            tabulate=figures.tabulate_figure15,
            chart=figures.chart_figure15,
            bench="figure15_memory_intensity",
            metrics=_figure15_metrics,
            checks=_figure15_checks,
        ),
        Experiment(
            name="figure16",
            title="Figure 16: WS normalized to REFab (FGR / AR / DSARP)",
            function=experiments.figure16_fgr_comparison,
            tabulate=figures.tabulate_figure16,
            chart=figures.chart_figure16,
            bench="figure16_fgr",
            metrics=_flat("{inner}_norm_{outer}gb"),
            checks=_figure16_checks,
        ),
        Experiment(
            name="table2",
            title="Table 2: WS improvement of DARP/SARPpb/DSARP",
            function=experiments.table2_improvement_summary,
            tabulate=tables.tabulate_table2,
            chart=tables.chart_table2,
            bench="table2_summary",
            metrics=_table2_metrics,
            checks=_table2_checks,
        ),
        Experiment(
            name="table3",
            title="Table 3: DSARP vs REFab across core counts",
            function=experiments.table3_core_count,
            tabulate=tables.tabulate_table3,
            chart=tables.chart_table3,
            bench="table3_core_count",
            metrics=_flat("{inner}_{outer}core"),
            checks=_table3_checks,
        ),
        Experiment(
            name="table4",
            title="Table 4: SARPpb over REFpb vs tFAW",
            function=experiments.table4_tfaw_sensitivity,
            tabulate=tables.tabulate_table4,
            chart=tables.chart_table4,
            bench="table4_tfaw",
            metrics=_table4_metrics,
            checks=_table4_checks,
        ),
        Experiment(
            name="table5",
            title="Table 5: effect of subarrays per bank",
            function=experiments.table5_subarray_sensitivity,
            tabulate=tables.tabulate_table5,
            chart=tables.chart_table5,
            bench="table5_subarrays",
            metrics=_table5_metrics,
            checks=_table5_checks,
        ),
        Experiment(
            name="table6",
            title="Table 6: DSARP improvement with 64 ms retention",
            function=experiments.table6_refresh_interval,
            tabulate=tables.tabulate_table6,
            chart=tables.chart_table6,
            bench="table6_refresh_interval",
            metrics=_flat("{inner}_{outer}gb"),
            checks=_table6_checks,
        ),
        Experiment(
            name="darp_components",
            title="Section 6.1.2: DARP component breakdown",
            function=experiments.darp_component_breakdown,
            tabulate=tables.tabulate_darp_components,
            bench="ablation_darp_components",
            metrics=_flat("{inner}_pct_{outer}gb"),
            checks=_darp_components_checks,
        ),
        Experiment(
            name="dsarp_additivity",
            title="DSARP additivity ablation (32 Gb)",
            function=experiments.dsarp_additivity,
            tabulate=tables.tabulate_dsarp_additivity,
            bench="ablation_dsarp_additivity",
            metrics=_dsarp_additivity_metrics,
            checks=_dsarp_additivity_checks,
        ),
    )
}
