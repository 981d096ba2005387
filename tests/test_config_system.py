"""Unit tests for system-level configuration and presets."""

import pytest

from repro.config.controller_config import ControllerConfig
from repro.config.cpu_config import CacheConfig, CPUConfig
from repro.config.presets import baseline_densities, mechanism_names, paper_system
from repro.config.refresh_config import RefreshConfig, RefreshMechanism

from tests.conftest import job_key


class TestControllerConfig:
    def test_defaults_match_table1(self):
        config = ControllerConfig()
        assert config.read_queue_entries == 64
        assert config.write_queue_entries == 64
        assert config.write_low_watermark == 32

    def test_watermark_validation(self):
        with pytest.raises(ValueError):
            ControllerConfig(write_high_watermark=16, write_low_watermark=32)
        with pytest.raises(ValueError):
            ControllerConfig(write_high_watermark=128, write_queue_entries=64)


class TestCPUAndCacheConfig:
    def test_cpu_defaults_match_table1(self):
        config = CPUConfig()
        assert config.num_cores == 8
        assert config.issue_width == 3
        assert config.instruction_window == 128
        assert config.mshrs_per_core == 8

    def test_insts_per_dram_cycle(self):
        config = CPUConfig()
        assert config.insts_per_dram_cycle == 3 * 6

    def test_cache_defaults_match_table1(self):
        config = CacheConfig()
        assert config.size_bytes == 512 * 1024
        assert config.associativity == 16
        assert config.line_bytes == 64
        assert config.num_sets == 512

    def test_cache_too_small_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=64, associativity=16, line_bytes=64).num_sets


class TestRefreshMechanism:
    def test_per_bank_classification(self):
        assert RefreshMechanism.REFPB.uses_per_bank_refresh
        assert RefreshMechanism.DARP.uses_per_bank_refresh
        assert RefreshMechanism.DSARP.uses_per_bank_refresh
        assert not RefreshMechanism.REFAB.uses_per_bank_refresh
        assert not RefreshMechanism.SARPAB.uses_per_bank_refresh

    def test_sarp_classification(self):
        assert RefreshMechanism.SARPAB.uses_sarp
        assert RefreshMechanism.SARPPB.uses_sarp
        assert RefreshMechanism.DSARP.uses_sarp
        assert not RefreshMechanism.DARP.uses_sarp
        assert not RefreshMechanism.REFPB.uses_sarp

    def test_darp_classification(self):
        assert RefreshMechanism.DARP.uses_darp_scheduling
        assert RefreshMechanism.DSARP.uses_darp_scheduling
        assert not RefreshMechanism.SARPPB.uses_darp_scheduling

    def test_fgr_modes(self):
        assert RefreshMechanism.FGR2X.fgr_mode == 2
        assert RefreshMechanism.FGR4X.fgr_mode == 4
        assert RefreshMechanism.REFAB.fgr_mode == 1

    def test_for_mechanism_accepts_strings(self):
        config = RefreshConfig.for_mechanism("dsarp")
        assert config.mechanism is RefreshMechanism.DSARP


class TestSystemConfig:
    def test_paper_system_defaults(self):
        config = paper_system()
        assert config.cpu.num_cores == 8
        assert config.dram.density_gb == 8
        assert config.refresh.mechanism is RefreshMechanism.REFAB

    def test_with_mechanism_changes_only_refresh(self):
        base = paper_system(density_gb=16)
        dsarp = base.with_mechanism("dsarp")
        assert dsarp.refresh.mechanism is RefreshMechanism.DSARP
        assert dsarp.dram.density_gb == 16
        assert dsarp.cpu == base.cpu

    def test_with_mechanism_fgr_rebuilds_dram_timings(self):
        base = paper_system(density_gb=32)
        fgr = base.with_mechanism("fgr4x")
        assert fgr.dram.fgr_mode == 4
        assert fgr.dram.timings.tREFIab < base.dram.timings.tREFIab
        # And switching back restores the normal timings.
        back = fgr.with_mechanism("refab")
        assert back.dram.timings.tREFIab == base.dram.timings.tREFIab

    def test_with_cores(self):
        config = paper_system().with_cores(4)
        assert config.cpu.num_cores == 4

    def test_with_density(self):
        config = paper_system(density_gb=8).with_density(32)
        assert config.dram.density_gb == 32
        assert config.dram.timings.tRFCab > paper_system(density_gb=8).dram.timings.tRFCab

    def test_subarrays_and_retention_knobs(self):
        config = paper_system(subarrays_per_bank=32, retention_ms=64.0)
        assert config.dram.organization.subarrays_per_bank == 32
        assert config.dram.retention_ms == 64.0

    def test_fingerprint_sensitivity(self):
        a = paper_system(density_gb=8)
        assert job_key(a) == job_key(paper_system(density_gb=8))
        assert job_key(a) != job_key(a.with_mechanism("dsarp"))
        assert job_key(a) != job_key(a.with_cores(2))
        assert job_key(a) != job_key(a.with_density(16))


class TestPresets:
    def test_baseline_densities(self):
        assert baseline_densities() == (8, 16, 32)

    def test_mechanism_names_cover_figure13(self):
        names = mechanism_names()
        for expected in ("refab", "refpb", "elastic", "darp", "sarpab", "sarppb", "dsarp", "none"):
            assert expected in names

    def test_all_mechanisms_buildable(self):
        for mechanism in RefreshMechanism:
            config = paper_system(mechanism=mechanism)
            assert config.refresh.mechanism is mechanism
