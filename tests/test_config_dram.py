"""Unit tests for DRAM configuration: timings, densities, projections, FGR."""

import math

import pytest

from repro.config.dram_config import (
    REFRESH_LATENCY_NS,
    DRAMConfig,
    DRAMOrganization,
    DRAMTimings,
    projected_trfc_ns,
)


class TestProjections:
    def test_measured_densities_return_datasheet_values(self):
        for density, expected in REFRESH_LATENCY_NS.items():
            assert projected_trfc_ns(density) == expected
            assert projected_trfc_ns(density, projection=1) == expected

    def test_projection2_matches_paper_values(self):
        # Section 3.1 / Table 1: 530 ns at 16 Gb, 890 ns at 32 Gb, ~1.6 us at 64 Gb.
        assert projected_trfc_ns(16, projection=2) == pytest.approx(530.0)
        assert projected_trfc_ns(32, projection=2) == pytest.approx(890.0)
        assert projected_trfc_ns(64, projection=2) == pytest.approx(1610.0)

    def test_projection1_is_more_pessimistic_beyond_8gb(self):
        for density in (16, 32, 64):
            assert projected_trfc_ns(density, projection=1) > projected_trfc_ns(
                density, projection=2
            )

    def test_unknown_projection_rejected(self):
        with pytest.raises(ValueError):
            projected_trfc_ns(16, projection=3)


class TestTimings:
    def test_trc_is_tras_plus_trp(self):
        t = DRAMTimings()
        assert t.tRC == t.tRAS + t.tRP

    def test_trefipb_is_one_eighth_of_trefiab(self):
        t = DRAMTimings()
        assert t.tREFIpb == t.tREFIab // 8

    def test_cycle_ns_round_trip(self):
        t = DRAMTimings()
        assert t.ns(100) == pytest.approx(150.0)
        assert t.cycles(150.0) == 100
        assert t.cycles(151.0) == 101  # rounds up

    def test_read_write_latencies(self):
        t = DRAMTimings()
        assert t.read_latency == t.tCL + t.tBL
        assert t.write_latency == t.tCWL + t.tBL


class TestOrganization:
    def test_default_matches_table1(self):
        org = DRAMOrganization()
        assert org.channels == 2
        assert org.ranks_per_channel == 2
        assert org.banks_per_rank == 8
        assert org.subarrays_per_bank == 8
        assert org.rows_per_bank == 64 * 1024
        assert org.row_size_bytes == 8192

    def test_columns_per_row(self):
        org = DRAMOrganization()
        assert org.columns_per_row == 8192 // 64

    def test_subarray_of_row(self):
        org = DRAMOrganization()
        rows_per_subarray = org.rows_per_subarray
        assert org.subarray_of_row(0) == 0
        assert org.subarray_of_row(rows_per_subarray - 1) == 0
        assert org.subarray_of_row(rows_per_subarray) == 1
        assert org.subarray_of_row(org.rows_per_bank - 1) == org.subarrays_per_bank - 1

    def test_capacity(self):
        org = DRAMOrganization()
        assert org.capacity_bytes() == 2 * 2 * 8 * 65536 * 8192


class TestDRAMConfig:
    def test_for_density_8gb_trfc_values(self):
        config = DRAMConfig.for_density(8)
        # 350 ns at 1.5 ns per cycle -> 234 cycles (rounded up).
        assert config.timings.tRFCab == math.ceil(350 / 1.5)
        # tRFCpb = tRFCab / 2.3.
        assert config.timings.tRFCpb == math.ceil(350 / 2.3 / 1.5)

    def test_for_density_32gb_uses_projection(self):
        config = DRAMConfig.for_density(32)
        assert config.timings.tRFCab == math.ceil(890 / 1.5)

    def test_trefiab_for_32ms_retention(self):
        config = DRAMConfig.for_density(8, retention_ms=32.0)
        # 32 ms / 8192 = 3.90625 us -> 2605 cycles at 1.5 ns (rounded up).
        assert config.timings.tREFIab == math.ceil(32e6 / 8192 / 1.5)

    def test_trefiab_doubles_for_64ms_retention(self):
        c32 = DRAMConfig.for_density(8, retention_ms=32.0)
        c64 = DRAMConfig.for_density(8, retention_ms=64.0)
        assert c64.timings.tREFIab == pytest.approx(2 * c32.timings.tREFIab, abs=2)

    def test_density_scaling_monotonic(self):
        trfcs = [DRAMConfig.for_density(d).timings.tRFCab for d in (8, 16, 32, 64)]
        assert trfcs == sorted(trfcs)
        assert trfcs[0] < trfcs[-1]

    def test_fgr_modes_scale_interval_and_latency(self):
        base = DRAMConfig.for_density(32, fgr_mode=1)
        fgr2 = DRAMConfig.for_density(32, fgr_mode=2)
        fgr4 = DRAMConfig.for_density(32, fgr_mode=4)
        assert fgr2.timings.tREFIab == pytest.approx(base.timings.tREFIab / 2, abs=2)
        assert fgr4.timings.tREFIab == pytest.approx(base.timings.tREFIab / 4, abs=2)
        assert fgr2.timings.tRFCab == pytest.approx(base.timings.tRFCab / 1.35, abs=2)
        assert fgr4.timings.tRFCab == pytest.approx(base.timings.tRFCab / 1.63, abs=2)

    def test_fgr_worst_case_latency_increases(self):
        # Section 6.5: 4x FGR increases the worst-case refresh latency by 2.45x
        # because four refreshes at tRFC/1.63 take longer than one at tRFC.
        base = DRAMConfig.for_density(32, fgr_mode=1)
        fgr4 = DRAMConfig.for_density(32, fgr_mode=4)
        assert 4 * fgr4.timings.tRFCab > 2.3 * base.timings.tRFCab

    def test_invalid_fgr_mode_rejected(self):
        with pytest.raises(ValueError):
            DRAMConfig.for_density(8, fgr_mode=3)

    @pytest.mark.parametrize("density", [-8, 0, True, 8.0, "8"])
    def test_non_positive_int_density_rejected(self, density):
        # A projected tRFC for these is meaningless (0 Gb projects 170 ns,
        # -8 Gb a negative latency), so refuse instead of simulating.
        with pytest.raises(ValueError, match="density_gb"):
            DRAMConfig.for_density(density)

    def test_rows_per_refresh(self):
        config = DRAMConfig.for_density(8)
        assert config.rows_per_refresh == 65536 // 8192
        fgr2 = DRAMConfig.for_density(8, fgr_mode=2)
        assert fgr2.rows_per_refresh == 65536 // (8192 * 2)

    def test_with_subarrays(self):
        config = DRAMConfig.for_density(8).with_subarrays(16)
        assert config.organization.subarrays_per_bank == 16
        # Other fields preserved.
        assert config.density_gb == 8

    def test_with_tfaw(self):
        config = DRAMConfig.for_density(8).with_tfaw(10, 2)
        assert config.timings.tFAW == 10
        assert config.timings.tRRD == 2

    def test_fingerprint_distinguishes_configs(self):
        a = DRAMConfig.for_density(8)
        b = DRAMConfig.for_density(16)
        c = DRAMConfig.for_density(8).with_subarrays(16)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        assert a.fingerprint() == DRAMConfig.for_density(8).fingerprint()
