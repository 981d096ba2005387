"""Unit tests for performance metrics and the DRAM power model."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.config.dram_config import DRAMConfig
from repro.dram.device import DeviceStats
from repro.dram.power_integrity import (
    SARP_ALL_BANK_SCALE,
    SARP_PER_BANK_SCALE,
    power_overhead_faw,
    scaled_tfaw_trrd,
)
from repro.metrics.speedup import (
    geometric_mean,
    harmonic_speedup,
    maximum_slowdown,
    percent_improvement,
    percent_loss,
    weighted_speedup,
)
from repro.power.dram_power import DRAMPowerModel
from repro.power.idd import MICRON_8GB_DDR3, IDDValues


class TestSpeedupMetrics:
    def test_weighted_speedup_identity(self):
        assert weighted_speedup([1.0, 2.0], [1.0, 2.0]) == pytest.approx(2.0)

    def test_weighted_speedup_degradation(self):
        assert weighted_speedup([0.5, 1.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_harmonic_speedup(self):
        assert harmonic_speedup([1.0, 1.0], [1.0, 1.0]) == pytest.approx(1.0)
        assert harmonic_speedup([0.5, 0.5], [1.0, 1.0]) == pytest.approx(0.5)

    def test_harmonic_zero_ipc(self):
        assert harmonic_speedup([0.0, 1.0], [1.0, 1.0]) == 0.0

    def test_maximum_slowdown(self):
        assert maximum_slowdown([0.5, 1.0], [1.0, 1.0]) == pytest.approx(2.0)
        assert maximum_slowdown([0.0, 1.0], [1.0, 1.0]) == math.inf

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weighted_speedup([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            weighted_speedup([], [])

    def test_non_positive_alone_ipc_rejected(self):
        with pytest.raises(ValueError):
            weighted_speedup([1.0], [0.0])

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, -1.0])

    def test_percent_helpers(self):
        assert percent_improvement(1.1, 1.0) == pytest.approx(10.0)
        assert percent_loss(0.9, 1.0) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            percent_improvement(1.0, 0.0)
        with pytest.raises(ValueError):
            percent_loss(1.0, 0.0)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=16),
    )
    @settings(max_examples=50, deadline=None)
    def test_weighted_speedup_bounded_by_core_count(self, alone):
        shared = [value / 2 for value in alone]
        ws = weighted_speedup(shared, alone)
        assert 0 < ws <= len(alone)


class TestPowerIntegrity:
    def test_equation_one(self):
        assert power_overhead_faw(100, 0) == pytest.approx(1.0)
        assert power_overhead_faw(100, 400) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            power_overhead_faw(0, 10)
        with pytest.raises(ValueError):
            power_overhead_faw(10, -1)

    def test_paper_scaling_constants(self):
        # Section 4.3.3: 2.1x during all-bank refresh, 13.8 % during per-bank.
        assert SARP_ALL_BANK_SCALE == pytest.approx(2.1)
        assert SARP_PER_BANK_SCALE == pytest.approx(1.138)

    def test_scaled_tfaw_trrd(self):
        tfaw, trrd = scaled_tfaw_trrd(20, 4, all_bank=True)
        assert tfaw == 42 and trrd == 8
        tfaw, trrd = scaled_tfaw_trrd(20, 4, all_bank=False)
        assert tfaw == 23 and trrd == 5


class TestPowerModel:
    def make_stats(self, acts=100, reads=300, writes=100, refab=10, refpb=0):
        return DeviceStats(
            activates=acts,
            reads=reads,
            writes=writes,
            precharges=acts,
            all_bank_refreshes=refab,
            per_bank_refreshes=refpb,
        )

    def test_energy_components_positive(self):
        model = DRAMPowerModel(DRAMConfig.for_density(8))
        breakdown = model.energy(self.make_stats(), elapsed_cycles=10000)
        assert breakdown.background_nj > 0
        assert breakdown.activation_nj > 0
        assert breakdown.read_write_nj > 0
        assert breakdown.refresh_nj > 0
        assert breakdown.total_nj == pytest.approx(
            breakdown.background_nj
            + breakdown.activation_nj
            + breakdown.read_write_nj
            + breakdown.refresh_nj
        )

    def test_energy_per_access(self):
        model = DRAMPowerModel(DRAMConfig.for_density(8))
        breakdown = model.energy(self.make_stats(reads=400, writes=100), 10000)
        assert breakdown.accesses == 500
        assert breakdown.energy_per_access_nj == pytest.approx(breakdown.total_nj / 500)

    def test_plain_form_keeps_fields_and_derived_values(self):
        model = DRAMPowerModel(DRAMConfig.for_density(8))
        breakdown = model.energy(self.make_stats(reads=400, writes=100), 10000)
        plain = breakdown.as_dict()
        assert set(plain) == {
            "background_nj",
            "activation_nj",
            "read_write_nj",
            "refresh_nj",
            "total_nj",
            "accesses",
            "energy_per_access_nj",
        }
        assert plain["accesses"] == 500
        assert plain["background_nj"] == breakdown.background_nj
        assert plain["total_nj"] == breakdown.total_nj
        assert plain["energy_per_access_nj"] == breakdown.total_nj / 500

    def test_zero_accesses(self):
        model = DRAMPowerModel(DRAMConfig.for_density(8))
        breakdown = model.energy(DeviceStats(), 1000)
        assert breakdown.energy_per_access_nj == 0.0

    def test_refresh_energy_grows_with_density(self):
        stats = self.make_stats()
        small = DRAMPowerModel(DRAMConfig.for_density(8)).energy(stats, 10000)
        large = DRAMPowerModel(DRAMConfig.for_density(32)).energy(stats, 10000)
        assert large.refresh_nj > small.refresh_nj

    def test_per_bank_refresh_cheaper_than_all_bank(self):
        model = DRAMPowerModel(DRAMConfig.for_density(8))
        refab = model.energy(self.make_stats(refab=8, refpb=0), 10000)
        refpb = model.energy(self.make_stats(refab=0, refpb=8), 10000)
        assert refpb.refresh_nj < refab.refresh_nj

    def test_idd_device_scaling(self):
        config = DRAMConfig.for_density(8)
        one_chip = DRAMPowerModel(config, IDDValues(devices_per_rank=1))
        eight_chips = DRAMPowerModel(config, IDDValues(devices_per_rank=8))
        stats = self.make_stats()
        assert eight_chips.energy(stats, 1000).total_nj == pytest.approx(
            8 * one_chip.energy(stats, 1000).total_nj
        )

    def test_default_idd_is_micron_8gb(self):
        assert MICRON_8GB_DDR3.vdd == pytest.approx(1.5)
        assert MICRON_8GB_DDR3.activate_current() > 0
        assert MICRON_8GB_DDR3.refresh_current() > 0
