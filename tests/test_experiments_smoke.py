"""Smoke tests of the experiment harness at a very small scale.

These verify the registry's specs and aggregates wire workloads,
configurations and aggregation together correctly; the full-scale
versions run as benchmarks (``repro bench run --only table2_summary``, ...).
"""

import pytest

from repro.sim.experiments import (
    ExperimentScale,
    default_scale,
    figure5_refresh_latency_trend,
    table2_from_figure12,
)
from repro.sim.registry import EXPERIMENTS
from repro.sim.runner import ExperimentRunner
from repro.sweep import run_sweep

TINY_SCALE = ExperimentScale(
    workloads_per_category=1, sensitivity_workloads=1, densities=(32,)
)


@pytest.fixture(scope="module")
def tiny_runner():
    return ExperimentRunner(cycles=1500, warmup=300)


class TestScale:
    def test_default_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert default_scale().workloads_per_category == 1
        monkeypatch.setenv("REPRO_FULL", "1")
        assert default_scale().workloads_per_category > 1


class TestExperimentsSmoke:
    def test_figure5_needs_no_simulation(self):
        points = figure5_refresh_latency_trend((8, 32))
        assert len(points) == 2

    def test_figure7_structure(self, tiny_runner):
        result = EXPERIMENTS["figure7"].run(tiny_runner, TINY_SCALE)
        assert set(result) == {32}
        assert set(result[32]) == {"refab", "refpb"}

    def test_table2_from_prebuilt_sweep(self):
        sweep = {
            32: {
                "wl_a": {"refab": 1.0, "refpb": 1.02, "darp": 1.03, "sarppb": 1.05, "dsarp": 1.08},
                "wl_b": {"refab": 1.0, "refpb": 1.00, "darp": 1.01, "sarppb": 1.02, "dsarp": 1.04},
            }
        }
        summary = table2_from_figure12(sweep)
        assert summary[32]["dsarp"]["max_refab"] == pytest.approx(8.0)
        assert summary[32]["dsarp"]["gmean_refab"] == pytest.approx(6.0, abs=0.1)
        assert summary[32]["dsarp"]["max_refpb"] == pytest.approx(100 * (1.08 / 1.02 - 1), abs=0.1)

    def test_table5_structure(self, tiny_runner):
        table5 = EXPERIMENTS["table5"]
        spec = table5.spec(TINY_SCALE).with_axis_values("subarrays_per_bank", (1, 8))
        result = table5.function(run_sweep(spec, tiny_runner))
        assert set(result) == {1, 8}

    def test_dsarp_additivity_structure(self, tiny_runner):
        result = EXPERIMENTS["dsarp_additivity"].run(tiny_runner, TINY_SCALE)
        assert set(result) == {"darp", "sarppb", "dsarp"}
