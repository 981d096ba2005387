"""Tests for the statistics dataclasses (``repro.stats``).

Covers the ``StatsStruct`` contract (merge semantics, diffs, every holder
declaring its counters once) and the integration points that used to
hand-roll their merging: the cross-channel controller-stats merge (whose
sum-of-averages bug derived ratios make unexpressible), the refresh-stats
merge, and the executor-stats delta plumbing the benchmark harness uses.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import pytest

from repro.controller.memory_controller import ControllerStats
from repro.core.base import RefreshStats
from repro.cpu.core_model import CoreStats
from repro.dram.channel import ChannelStats
from repro.dram.device import DeviceStats
from repro.engine.executor import ExecutorStats
from repro.obs.epochs import EpochStats
from repro.stats import MAX, StatsStruct, WeightedAverage


@dataclass
class Latency(StatsStruct):
    RATIOS = (WeightedAverage("average_latency", "total_latency", "served"),)

    total_latency: int = 0
    served: int = 0


@dataclass
class Peak(StatsStruct):
    count: int = 0
    peak: int = field(default=0, metadata={"merge": MAX})


class TestSchemaValidation:
    def test_derived_must_reference_declared_fields(self):
        @dataclass
        class Typo(StatsStruct):
            RATIOS = (WeightedAverage("avg", "total", "n"),)

            total: int = 0

        with pytest.raises(KeyError, match="n"):
            Typo().as_dict()


class TestMergeSemantics:
    def test_sum_and_max(self):
        merged = Peak.merge_dicts(
            [{"count": 2, "peak": 5}, {"count": 3, "peak": 4}, {"count": 1, "peak": 9}]
        )
        assert merged == {"count": 6, "peak": 9}

    def test_weighted_average_recomputed_from_totals(self):
        # Channel A: 10 requests at 100; channel B: 1 request at 10.
        merged = Latency.merge_dicts(
            [
                {"total_latency": 1000, "served": 10, "average_latency": 100.0},
                {"total_latency": 10, "served": 1, "average_latency": 10.0},
            ]
        )
        # The per-instance averages (which would sum to 110) are discarded;
        # the merged average is weighted: 1010 / 11.
        assert merged["average_latency"] == pytest.approx(1010 / 11)

    def test_zero_denominator_yields_zero(self):
        merged = Latency.merge_dicts([{"total_latency": 0, "served": 0}])
        assert merged["average_latency"] == 0.0

    def test_undeclared_key_is_an_error(self):
        with pytest.raises(KeyError, match="extra"):
            Peak.merge_dicts([{"count": 1, "extra": 2}])

    def test_partial_payloads_merge(self):
        merged = DeviceStats.merge_dicts([{"reads": 1}, {"reads": 2}])
        assert merged["reads"] == 3 and merged["writes"] == 0

    def test_merge_of_empty_iterable_is_zero(self):
        assert Peak.merge_dicts([]) == {"count": 0, "peak": 0}

    def test_diff(self):
        delta = Latency.diff(
            {"total_latency": 30, "served": 3}, {"total_latency": 10, "served": 1}
        )
        assert delta == {"total_latency": 20, "served": 2, "average_latency": 10.0}


class TestHolderSchemas:
    def test_every_stats_struct_declares_its_fields_once(self):
        """The dataclass is the whole declaration: ``as_dict`` is exactly
        its fields plus its ratios, every ratio reads declared fields, and
        ``reset`` restores every field's default."""
        structs = {
            cls
            for cls in StatsStruct.__subclasses__()
            if cls.__module__.startswith("repro.")
        }
        assert structs >= {
            ChannelStats,
            ControllerStats,
            CoreStats,
            DeviceStats,
            EpochStats,
            ExecutorStats,
            RefreshStats,
        }
        for cls in structs:
            names = [f.name for f in dataclasses.fields(cls)]
            ratios = [ratio.name for ratio in cls.RATIOS]
            assert list(cls().as_dict()) == names + ratios, cls.__name__
            for ratio in cls.RATIOS:
                assert {ratio.total, ratio.count} <= set(names), ratio
                assert ratio.name not in names, ratio
            stats = cls(**dict.fromkeys(names, 7))
            stats.reset()
            assert stats == cls(), cls.__name__

    def test_as_dict_covers_every_dataclass_field(self):
        for holder in (
            ControllerStats(),
            DeviceStats(),
            ChannelStats(),
            RefreshStats(),
            CoreStats(),
            ExecutorStats(),
        ):
            payload = holder.as_dict()
            for field in dataclasses.fields(holder):
                assert field.name in payload, (
                    f"{type(holder).__name__}.as_dict() misses {field.name}"
                )

    def test_reset_restores_defaults(self):
        stats = ChannelStats(read_bursts=4, write_bursts=2, busy_cycles=99)
        stats.reset()
        assert stats == ChannelStats()

    def test_controller_average_merge_is_weighted(self):
        """The satellite bug: averages must merge from raw totals."""
        channel_a = ControllerStats(served_reads=10, total_read_latency=1000)
        channel_b = ControllerStats(served_reads=1, total_read_latency=10)
        merged = ControllerStats.merge_dicts(
            [channel_a.as_dict(), channel_b.as_dict()]
        )
        assert merged["served_reads"] == 11
        assert merged["total_read_latency"] == 1010
        assert merged["average_read_latency"] == pytest.approx(1010 / 11)
        # The old (buggy) sum-of-averages would have been 110.
        assert merged["average_read_latency"] < 100

    def test_executor_delta_via_schema(self):
        stats = ExecutorStats(jobs=5, store_hits=2, simulated=3, elapsed_s=1.5)
        earlier = ExecutorStats(jobs=2, store_hits=1, simulated=1, elapsed_s=0.5)
        delta = stats.delta(earlier)
        assert delta == ExecutorStats(jobs=3, store_hits=1, simulated=2, elapsed_s=1.0)

    def test_core_mpki_matches_schema_derivation(self):
        stats = CoreStats(instructions=2000, dram_reads_issued=3)
        assert stats.as_dict()["mpki"] == stats.mpki() == pytest.approx(1.5)


class TestSimulationIntegration:
    def test_result_averages_come_from_merged_totals(self):
        """End to end: a multi-channel run reports weighted averages."""
        from repro.config.presets import paper_system
        from repro.sim.simulator import Simulator
        from repro.workloads.benchmark_suite import get_benchmark
        from repro.workloads.mixes import make_workload

        workload = make_workload(
            [get_benchmark("stream_copy"), get_benchmark("mcf_like")], seed=0
        )
        simulator = Simulator(paper_system(num_cores=2), workload)
        result = simulator.run(1200, warmup=200)
        stats = result.controller_stats
        assert stats["served_reads"] > 0
        assert stats["average_read_latency"] == pytest.approx(
            stats["total_read_latency"] / stats["served_reads"]
        )
        # The per-channel averages must reproduce the merged value when
        # recombined — and their plain sum must not (the sum-of-averages bug).
        per_channel = [c.stats for c in simulator.memory.controllers]
        assert sum(c.served_reads for c in per_channel) == stats["served_reads"]
        summed_averages = sum(c.average_read_latency for c in per_channel)
        assert summed_averages != pytest.approx(stats["average_read_latency"])
