"""DRAM organization and timing parameters.

All timing parameters are expressed in DRAM bus cycles of a DDR3-1333 device
(tCK = 1.5 ns) unless the name carries an explicit ``_ns`` suffix.  The
refresh-related parameters follow Section 3.1 and Table 1 of the paper:

* ``tRFCab`` = 350 / 530 / 890 ns for 8 / 16 / 32 Gb chips,
* ``tREFIab`` = 3.9 us for the default 32 ms retention time,
* ``tRFCpb`` = ``tRFCab`` / 2.3 (the LPDDR2-derived ratio).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Literal

from repro.config.serialize import check_fields


#: Measured all-bank refresh latencies (ns) for existing DRAM densities (Gb),
#: taken from DDR3 datasheets; these anchor the linear projections of Fig. 5.
REFRESH_LATENCY_NS: dict[int, float] = {
    1: 110.0,
    2: 160.0,
    4: 260.0,
    8: 350.0,
}

#: Ratio between all-bank and per-bank refresh latency, derived from the
#: 2 Gb LPDDR2 datasheet (tRFCab = 210 ns, tRFCpb = 90 ns), Section 3.1.
TRFC_AB_TO_PB_RATIO = 2.3

#: Number of refresh commands distributed over one retention window
#: (64 ms / 7.8 us for DDR3; the same 8192 commands apply at 32 ms / 3.9 us).
REFRESH_COMMANDS_PER_RETENTION = 8192


def projected_trfc_ns(density_gb: float, projection: int = 2) -> float:
    """Project ``tRFCab`` (ns) for a DRAM density using linear extrapolation.

    ``projection=1`` extrapolates from the 1, 2 and 4 Gb datapoints and
    ``projection=2`` (the paper's choice, more optimistic) from the 4 and
    8 Gb datapoints.  Densities with measured values return the measured
    value regardless of the projection.
    """
    if density_gb in REFRESH_LATENCY_NS:
        return REFRESH_LATENCY_NS[int(density_gb)]
    if projection == 1:
        points = [(1, 110.0), (2, 160.0), (4, 260.0)]
    elif projection == 2:
        points = [(4, 260.0), (8, 350.0)]
    else:
        raise ValueError(f"unknown projection {projection!r}; expected 1 or 2")
    n = len(points)
    mean_x = sum(p[0] for p in points) / n
    mean_y = sum(p[1] for p in points) / n
    denom = sum((p[0] - mean_x) ** 2 for p in points)
    slope = sum((p[0] - mean_x) * (p[1] - mean_y) for p in points) / denom
    intercept = mean_y - slope * mean_x
    return intercept + slope * density_gb


@dataclass(frozen=True)
class DRAMOrganization:
    """Structural organization of the DRAM system (Table 1)."""

    channels: int = 2
    ranks_per_channel: int = 2
    banks_per_rank: int = 8
    subarrays_per_bank: int = 8
    rows_per_bank: int = 65536
    row_size_bytes: int = 8192
    cacheline_bytes: int = 64

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def columns_per_row(self) -> int:
        """Number of cache-line-sized columns per DRAM row."""
        return self.row_size_bytes // self.cacheline_bytes

    @property
    def rows_per_subarray(self) -> int:
        """Rows contained in one subarray group."""
        return self.rows_per_bank // self.subarrays_per_bank

    def capacity_bytes(self) -> int:
        """Total addressable capacity of the DRAM system."""
        return (
            self.channels
            * self.ranks_per_channel
            * self.banks_per_rank
            * self.rows_per_bank
            * self.row_size_bytes
        )

    def subarray_of_row(self, row: int) -> int:
        """Return the subarray group index that contains ``row``."""
        return row // self.rows_per_subarray


@dataclass(frozen=True)
class DRAMTimings:
    """DDR3-1333 timing parameters in DRAM bus cycles (tCK = 1.5 ns)."""

    tCK_ns: float = 1.5
    tCL: int = 9
    tCWL: int = 8
    tRCD: int = 9
    tRP: int = 9
    tRAS: int = 24
    tBL: int = 4
    tCCD: int = 4
    tRTP: int = 5
    tWR: int = 10
    tWTR: int = 5
    tRTW: int = 5
    tRRD: int = 4
    tFAW: int = 20
    tREFIab: int = 2604
    tRFCab: int = 234
    tRFCpb: int = 102

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def tRC(self) -> int:
        """Row cycle time (ACT-to-ACT on the same bank)."""
        return self.tRAS + self.tRP

    @property
    def tREFIpb(self) -> int:
        """Per-bank refresh interval: one eighth of the all-bank interval."""
        return self.tREFIab // 8

    @property
    def read_latency(self) -> int:
        """Column command to end-of-burst latency for reads."""
        return self.tCL + self.tBL

    @property
    def write_latency(self) -> int:
        """Column command to end-of-burst latency for writes."""
        return self.tCWL + self.tBL

    def ns(self, cycles: int) -> float:
        """Convert a cycle count to nanoseconds."""
        return cycles * self.tCK_ns

    def cycles(self, nanoseconds: float) -> int:
        """Convert nanoseconds to (rounded-up) DRAM cycles."""
        return int(math.ceil(nanoseconds / self.tCK_ns))


@dataclass(frozen=True)
class DRAMConfig:
    """Complete DRAM configuration: organization, timings and density."""

    density_gb: int = 8
    retention_ms: float = 32.0
    organization: DRAMOrganization = field(default_factory=DRAMOrganization)
    timings: DRAMTimings = field(default_factory=DRAMTimings)
    #: Fine-granularity refresh mode: 1 (normal), 2 or 4 (DDR4 FGR).
    fgr_mode: Literal[1, 2, 4] = 1

    def __post_init__(self) -> None:
        check_fields(self)
        if self.density_gb < 1:
            raise ValueError(f"density_gb must be positive (Gb), got {self.density_gb}")

    @classmethod
    def for_density(
        cls,
        density_gb: int,
        retention_ms: float = 32.0,
        organization: DRAMOrganization | None = None,
        fgr_mode: int = 1,
        projection: int = 2,
    ) -> "DRAMConfig":
        """Build a configuration for a DRAM density (Gb).

        The refresh latencies are looked up (or linearly projected, Fig. 5)
        and converted to DRAM cycles; ``tREFIab`` follows from the retention
        time and the 8192 refresh commands per retention window.  ``fgr_mode``
        of 2 or 4 applies the DDR4 fine-granularity-refresh scaling of
        Section 6.5 (tREFI / mode, tRFC / 1.35 or / 1.63).
        """
        # Built first, so the arithmetic below sees checked values.
        config = cls(
            density_gb=density_gb,
            retention_ms=retention_ms,
            organization=organization or DRAMOrganization(),
            fgr_mode=fgr_mode,
        )
        base = config.timings
        trfc_ab_ns = projected_trfc_ns(config.density_gb, projection=projection)
        trefi_ab_ns = config.retention_ms * 1e6 / REFRESH_COMMANDS_PER_RETENTION
        if config.fgr_mode == 2:
            trefi_ab_ns /= 2.0
            trfc_ab_ns /= 1.35
        elif config.fgr_mode == 4:
            trefi_ab_ns /= 4.0
            trfc_ab_ns /= 1.63
        timings = replace(
            base,
            tRFCab=base.cycles(trfc_ab_ns),
            tRFCpb=base.cycles(trfc_ab_ns / TRFC_AB_TO_PB_RATIO),
            tREFIab=base.cycles(trefi_ab_ns),
        )
        return replace(config, timings=timings)

    def with_subarrays(self, subarrays_per_bank: int) -> "DRAMConfig":
        """Return a copy with a different number of subarrays per bank."""
        org = replace(self.organization, subarrays_per_bank=subarrays_per_bank)
        return replace(self, organization=org)

    def with_tfaw(self, tfaw: int, trrd: int) -> "DRAMConfig":
        """Return a copy with different tFAW / tRRD values (Table 4 sweep)."""
        timings = replace(self.timings, tFAW=tfaw, tRRD=trrd)
        return replace(self, timings=timings)

    @property
    def rows_per_refresh(self) -> int:
        """Rows refreshed in one bank per refresh command.

        8192 all-bank refresh commands cover every row of every bank once per
        retention window, so each command refreshes ``rows_per_bank / 8192``
        rows of each bank (at least one).  Fine-granularity refresh issues
        ``fgr_mode`` times more commands, each refreshing proportionally
        fewer rows.
        """
        per_command = self.organization.rows_per_bank
        per_command //= REFRESH_COMMANDS_PER_RETENTION * self.fgr_mode
        return max(1, per_command)
