"""Every simulated paper result must be bit-identical through its sweep spec.

Each experiment of :data:`repro.sim.registry.EXPERIMENTS` (except
Figure 5 and the DARP component breakdown) runs as
``aggregate(run_sweep(spec(scale), runner))``.  These tests pin the
hand-rolled per-density loops the experiments used before and assert the
registry reproduces their results *exactly* — same floats, not
approximately — so the sweep path provably subsumes the legacy loops.
"""

from dataclasses import replace

import pytest

from repro.config.presets import paper_system
from repro.config.refresh_config import RefreshMechanism
from repro.metrics.speedup import average_percent_improvement, geometric_mean
from repro.sim.experiments import (
    ALL_MECHANISMS,
    FGR_MECHANISMS,
    MAIN_MECHANISMS,
    ExperimentScale,
)
from repro.sim.registry import EXPERIMENTS
from repro.sim.runner import ExperimentRunner
from repro.sweep import load_run_dir, run_sweep, write_run_dir
from repro.workloads.mixes import (
    INTENSITY_CATEGORIES,
    make_workload_sweep,
    memory_intensive_workloads,
)

TINY_SCALE = ExperimentScale(
    workloads_per_category=1, sensitivity_workloads=1, densities=(32,)
)


#: Figure 7 also runs here, so one batch across densities is checked
#: against one batch per density.
TWO_DENSITIES = replace(TINY_SCALE, densities=(8, 32))


@pytest.fixture(scope="module")
def shared_runner():
    """One runner for legacy and sweep paths, so simulations are shared."""
    return ExperimentRunner(cycles=1200, warmup=200)


def run_registry(name, runner, scale, axis=None, values=None):
    """An experiment through its registry spec, optionally on fewer axis values."""
    experiment = EXPERIMENTS[name]
    spec = experiment.spec(scale)
    if axis is not None:
        spec = spec.with_axis_values(axis, values)
    return experiment.function(run_sweep(spec, runner))


# ---------------------------------------------------------------------------
# Reference implementations: the hand-rolled loops the tables used before
# the sweep subsystem existed, copied verbatim (modulo local helpers).
# ---------------------------------------------------------------------------
def legacy_table3(runner, scale, core_counts=(2, 4, 8), density_gb=32):
    result = {}
    for cores in core_counts:
        workloads = memory_intensive_workloads(
            count=scale.sensitivity_workloads, num_cores=cores
        )
        ws_gains, hs_gains, slowdown_reductions, energy_reductions = [], [], [], []
        base_config = paper_system(density_gb=density_gb, num_cores=cores)
        comparisons = runner.compare_many(workloads, base_config, ("refab", "dsarp"))
        for comparison in comparisons:
            refab = comparison.results["refab"]
            dsarp = comparison.results["dsarp"]
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
            "weighted_speedup_improvement": sum(ws_gains) / len(ws_gains),
            "harmonic_speedup_improvement": sum(hs_gains) / len(hs_gains),
            "maximum_slowdown_reduction": sum(slowdown_reductions)
            / len(slowdown_reductions),
            "energy_per_access_reduction": sum(energy_reductions)
            / len(energy_reductions),
        }
    return result


def legacy_table4(runner, scale, tfaw_values=(5, 10, 15, 20, 25, 30), density_gb=32):
    workloads = memory_intensive_workloads(count=scale.sensitivity_workloads)
    result = {}
    for tfaw in tfaw_values:
        trrd = max(1, tfaw // 5)
        gains = []
        base = paper_system(density_gb=density_gb)
        base = replace(base, dram=base.dram.with_tfaw(tfaw, trrd))
        for comparison in runner.compare_many(workloads, base, ("refpb", "sarppb")):
            normalized = comparison.normalized_to("refpb")
            gains.append((normalized["sarppb"] - 1.0) * 100.0)
        result[tfaw] = average_percent_improvement(gains)
    return result


def legacy_table5(
    runner,
    scale,
    subarray_counts=(1, 2, 4, 8, 16, 32, 64),
    density_gb=32,
):
    workloads = memory_intensive_workloads(count=scale.sensitivity_workloads)
    result = {}
    for count in subarray_counts:
        gains = []
        base = paper_system(density_gb=density_gb, subarrays_per_bank=count)
        for comparison in runner.compare_many(workloads, base, ("refpb", "sarppb")):
            normalized = comparison.normalized_to("refpb")
            gains.append((normalized["sarppb"] - 1.0) * 100.0)
        result[count] = average_percent_improvement(gains)
    return result


def legacy_table6(runner, scale, retention_ms=64.0):
    workloads = memory_intensive_workloads(count=scale.sensitivity_workloads)
    result = {}
    for density in scale.densities:
        base_config = paper_system(density_gb=density, retention_ms=retention_ms)
        over_refab, over_refpb = [], []
        for comparison in runner.compare_many(
            workloads, base_config, ("refab", "refpb", "dsarp")
        ):
            normalized = comparison.normalized_to("refab")
            over_refab.append((normalized["dsarp"] - 1.0) * 100.0)
            over_refpb.append(
                (normalized["dsarp"] / normalized["refpb"] - 1.0) * 100.0
            )
        result[density] = {
            "max_refpb": max(over_refpb),
            "gmean_refpb": average_percent_improvement(over_refpb),
            "max_refab": max(over_refab),
            "gmean_refab": average_percent_improvement(over_refab),
        }
    return result


def legacy_figure6(runner, scale):
    workloads = make_workload_sweep(workloads_per_category=scale.workloads_per_category)
    losses = {
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
    result = {}
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


def legacy_figure7(runner, scale):
    workloads = make_workload_sweep(workloads_per_category=scale.workloads_per_category)
    result = {}
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


def legacy_figure12(runner, scale, mechanisms=MAIN_MECHANISMS):
    workloads = make_workload_sweep(workloads_per_category=scale.workloads_per_category)
    result = {}
    for density in scale.densities:
        base_config = paper_system(density_gb=density)
        per_workload = {}
        comparisons = runner.compare_many(workloads, base_config, mechanisms)
        for workload, comparison in zip(workloads, comparisons):
            per_workload[workload.name] = comparison.normalized_to("refab")
        result[density] = per_workload
    return result


def legacy_table2(sweep):
    result = {}
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


def legacy_figure13(runner, scale, mechanisms=ALL_MECHANISMS):
    workloads = make_workload_sweep(workloads_per_category=scale.workloads_per_category)
    result = {}
    for density in scale.densities:
        base_config = paper_system(density_gb=density)
        improvements = {m: [] for m in mechanisms}
        for comparison in runner.compare_many(workloads, base_config, mechanisms):
            normalized = comparison.normalized_to("refab")
            for mechanism in mechanisms:
                improvements[mechanism].append((normalized[mechanism] - 1.0) * 100.0)
        result[density] = {
            mechanism: average_percent_improvement(values)
            for mechanism, values in improvements.items()
        }
    return result


def legacy_figure14(runner, scale, mechanisms=ALL_MECHANISMS):
    workloads = make_workload_sweep(workloads_per_category=scale.workloads_per_category)
    result = {}
    for density in scale.densities:
        base_config = paper_system(density_gb=density)
        total_energy = {m: 0.0 for m in mechanisms}
        total_accesses = {m: 0 for m in mechanisms}
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


def legacy_figure15(runner, scale):
    workloads = make_workload_sweep(workloads_per_category=scale.workloads_per_category)
    gains = {
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
    result = {}
    for category, per_density in gains.items():
        result[category] = {}
        for density, buckets in per_density.items():
            result[category][density] = {
                key: (sum(vals) / len(vals) if vals else 0.0)
                for key, vals in buckets.items()
            }
    return result


def legacy_figure16(runner, scale, mechanisms=FGR_MECHANISMS):
    workloads = memory_intensive_workloads(count=scale.sensitivity_workloads)
    result = {}
    for density in scale.densities:
        base_config = paper_system(density_gb=density)
        ratios = {m: [] for m in mechanisms}
        for comparison in runner.compare_many(workloads, base_config, mechanisms):
            normalized = comparison.normalized_to("refab")
            for mechanism in mechanisms:
                ratios[mechanism].append(normalized[mechanism])
        result[density] = {
            mechanism: geometric_mean(values) for mechanism, values in ratios.items()
        }
    return result


def legacy_dsarp_additivity(runner, scale, density_gb=32):
    workloads = make_workload_sweep(workloads_per_category=scale.workloads_per_category)
    base_config = paper_system(density_gb=density_gb)
    gains = {"darp": [], "sarppb": [], "dsarp": []}
    for comparison in runner.compare_many(
        workloads, base_config, ("refab", "darp", "sarppb", "dsarp")
    ):
        normalized = comparison.normalized_to("refab")
        for mechanism in gains:
            gains[mechanism].append((normalized[mechanism] - 1.0) * 100.0)
    return {
        mechanism: average_percent_improvement(values) for mechanism, values in gains.items()
    }


class TestSweepSubsumesLegacyTables:
    def test_table3_identical(self, shared_runner):
        legacy = legacy_table3(shared_runner, TINY_SCALE, core_counts=(2, 4))
        via_sweep = run_registry(
            "table3", shared_runner, TINY_SCALE, "num_cores", (2, 4)
        )
        assert via_sweep == legacy  # exact equality, not approx

    def test_table4_identical(self, shared_runner):
        legacy = legacy_table4(shared_runner, TINY_SCALE, tfaw_values=(10, 20))
        via_sweep = run_registry("table4", shared_runner, TINY_SCALE, "tfaw", (10, 20))
        assert via_sweep == legacy

    def test_table5_identical(self, shared_runner):
        legacy = legacy_table5(shared_runner, TINY_SCALE, subarray_counts=(1, 8))
        via_sweep = run_registry(
            "table5", shared_runner, TINY_SCALE, "subarrays_per_bank", (1, 8)
        )
        assert via_sweep == legacy

    def test_table6_identical(self, shared_runner):
        legacy = legacy_table6(shared_runner, TINY_SCALE)
        via_sweep = EXPERIMENTS["table6"].run(shared_runner, TINY_SCALE)
        assert via_sweep == legacy

    def test_table2_identical(self, shared_runner):
        legacy = legacy_table2(legacy_figure12(shared_runner, TINY_SCALE))
        assert EXPERIMENTS["table2"].run(shared_runner, TINY_SCALE) == legacy


class TestSweepSubsumesLegacyFigures:
    @pytest.mark.parametrize(
        "name, legacy, scale",
        [
            pytest.param("figure6", legacy_figure6, TINY_SCALE, id="figure6"),
            pytest.param("figure7", legacy_figure7, TINY_SCALE, id="figure7"),
            pytest.param(
                "figure7", legacy_figure7, TWO_DENSITIES, id="figure7-8gb-32gb"
            ),
            pytest.param("figure12", legacy_figure12, TINY_SCALE, id="figure12"),
            pytest.param("figure13", legacy_figure13, TINY_SCALE, id="figure13"),
            pytest.param("figure14", legacy_figure14, TINY_SCALE, id="figure14"),
            pytest.param("figure15", legacy_figure15, TINY_SCALE, id="figure15"),
            pytest.param("figure16", legacy_figure16, TINY_SCALE, id="figure16"),
            pytest.param(
                "dsarp_additivity",
                legacy_dsarp_additivity,
                TINY_SCALE,
                id="dsarp_additivity",
            ),
        ],
    )
    def test_identical(self, shared_runner, name, legacy, scale):
        via_sweep = EXPERIMENTS[name].run(shared_runner, scale)
        expected = legacy(shared_runner, scale)
        assert via_sweep == expected
        # Same key order too: the text tables follow the payload's order.
        assert repr(via_sweep) == repr(expected)

    def test_figure14_from_a_reloaded_run_dir(self, shared_runner, tmp_path):
        # The raw energy counts survive results.jsonl, so the access-weighted
        # mean computed from a reloaded run directory is still bit-identical.
        experiment = EXPERIMENTS["figure14"]
        sweep = run_sweep(experiment.spec(TINY_SCALE), shared_runner)
        loaded = load_run_dir(write_run_dir(tmp_path / "run", sweep))
        assert [cell.to_dict() for cell in loaded.cells] == [
            cell.to_dict() for cell in sweep.cells
        ]
        assert all(cell.accesses > 0 for cell in loaded.cells)
        assert experiment.function(loaded) == legacy_figure14(shared_runner, TINY_SCALE)
