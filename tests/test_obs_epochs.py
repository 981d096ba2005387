"""Epoch metrics: merge semantics, run-aggregate agreement, bit-identity.

Epoch samples are deltas plus boundary snapshots; they merge as
``EpochStats`` (a ``repro.stats.StatsStruct``), so IPC and average depths
are recomputed from merged raw totals (never averaged averages) and peaks
merge with MAX.  Sampling itself must be pure
observation: a run with epochs enabled is bit-identical to one without.
"""

from __future__ import annotations

import pytest

from repro.obs.epochs import EpochSample, EpochStats, merge_epoch_samples
from repro.sim.simulator import Simulator

from tests.conftest import small_system, small_workload

CYCLES = 2000
WARMUP = 400
INTERVAL = 300


def make_sample(start, cycles, instructions, read_queue, **overrides):
    base = {
        "start": start,
        "cycles": cycles,
        "instructions": instructions,
        "stall_cycles": 0,
        "commands": 0,
        "refreshes": 0,
        "subarray_conflicts": 0,
        "read_queue": read_queue,
        "write_queue": 0,
        "open_banks": 0,
        "refreshing_banks": 0,
    }
    base.update(overrides)
    return EpochSample(**base)


@pytest.fixture(scope="module")
def sampled_run():
    config = small_system("darp").with_obs(epoch_interval=INTERVAL)
    simulator = Simulator(config, small_workload())
    result = simulator.run(CYCLES, warmup=WARMUP)
    return simulator, result


class TestMergeSemantics:
    def test_weighted_ipc_not_average_of_averages(self):
        # Epoch A: IPC 2.0 over 100 cycles; epoch B: IPC 0.5 over 900
        # cycles.  Averaging the per-epoch IPCs would give 1.25; the
        # schema-weighted merge must give the true 650/1000.
        a = make_sample(0, 100, 200, read_queue=4)
        b = make_sample(100, 900, 450, read_queue=10)
        merged = merge_epoch_samples([a, b])
        assert merged["ipc"] == pytest.approx(650 / 1000)
        assert merged["epochs"] == 2
        assert merged["cycles"] == 1000
        assert merged["instructions"] == 650

    def test_max_fields_merge_with_max(self):
        samples = [
            make_sample(0, 10, 0, read_queue=3, write_queue=9),
            make_sample(10, 10, 0, read_queue=7, write_queue=1),
            make_sample(20, 10, 0, read_queue=5, write_queue=2),
        ]
        merged = merge_epoch_samples(samples)
        assert merged["max_read_queue"] == 7
        assert merged["max_write_queue"] == 9
        # The averages use the epoch count as weight.
        assert merged["avg_read_queue"] == pytest.approx(5.0)
        assert merged["avg_write_queue"] == pytest.approx(4.0)

    def test_merge_goes_through_registered_schema(self):
        # Field additions must flow through EpochStats: merging its
        # payloads directly gives the same result as the helper, and the
        # merged record carries every EpochStats counter and ratio.
        samples = [make_sample(0, 10, 5, read_queue=1)] * 2
        merged = merge_epoch_samples(samples)
        direct = EpochStats.merge_dicts(s.stats_dict() for s in samples)
        assert merged == direct
        assert set(merged) == set(EpochStats().as_dict())

    def test_sample_ipc_property(self):
        assert make_sample(0, 200, 100, read_queue=0).ipc == pytest.approx(0.5)
        assert make_sample(0, 0, 0, read_queue=0).ipc == 0.0


class TestSamplerAgainstRun:
    def test_epoch_count_and_coverage(self, sampled_run):
        simulator, _ = sampled_run
        samples = simulator.epoch_samples
        assert len(samples) == -(-CYCLES // INTERVAL)  # ceil
        assert samples[0].start == WARMUP
        assert sum(s.cycles for s in samples) == CYCLES
        # Chunk boundaries tile the measured window without gaps.
        for previous, current in zip(samples, samples[1:]):
            assert current.start == previous.start + previous.cycles

    def test_epoch_deltas_sum_to_run_totals(self, sampled_run):
        simulator, _ = sampled_run
        merged = merge_epoch_samples(simulator.epoch_samples)
        device = simulator.memory.device.stats
        assert merged["instructions"] == sum(
            core.stats.instructions for core in simulator.cores
        )
        assert merged["stall_cycles"] == sum(
            core.stats.stall_cycles for core in simulator.cores
        )
        assert merged["commands"] == sum(
            controller.stats.issued_commands
            for controller in simulator.memory.controllers
        )
        assert merged["refreshes"] == (
            device.all_bank_refreshes + device.per_bank_refreshes
        )
        assert merged["subarray_conflicts"] == device.subarray_conflicts

    def test_sampling_is_bit_identical(self, sampled_run):
        _, sampled_result = sampled_run
        plain = Simulator(small_system("darp"), small_workload())
        assert plain.run(CYCLES, warmup=WARMUP).to_dict() == sampled_result.to_dict()

    def test_awkward_interval_is_bit_identical(self):
        # A prime interval that never divides the window exercises the
        # clamped-boundary path of the event kernel.
        config = small_system("refab").with_obs(epoch_interval=293)
        sampled = Simulator(config, small_workload()).run(CYCLES, warmup=WARMUP)
        plain = Simulator(small_system("refab"), small_workload()).run(
            CYCLES, warmup=WARMUP
        )
        assert sampled.to_dict() == plain.to_dict()

    def test_disabled_by_default(self):
        simulator = Simulator(small_system("refab"), small_workload())
        simulator.run(500, warmup=100)
        assert simulator.epoch_samples == []


def test_interval_validation():
    from repro.obs.epochs import EpochSampler

    with pytest.raises(ValueError):
        EpochSampler(0)
