"""Processor-core and cache configuration (Table 1 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.serialize import check_fields


@dataclass(frozen=True)
class CPUConfig:
    """Core model parameters.

    The paper evaluates 8 cores at 4 GHz with 3-wide issue, a 128-entry
    instruction window and 8 MSHRs per core.  The DRAM bus runs at 666 MHz
    (DDR3-1333), i.e. six CPU cycles per DRAM bus cycle.
    """

    num_cores: int = 8
    issue_width: int = 3
    instruction_window: int = 128
    mshrs_per_core: int = 8
    #: CPU cycles per DRAM bus cycle (4 GHz / 666 MHz).
    cpu_cycles_per_dram_cycle: int = 6

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def insts_per_dram_cycle(self) -> int:
        """Maximum instructions a core can retire per DRAM bus cycle."""
        return self.issue_width * self.cpu_cycles_per_dram_cycle


@dataclass(frozen=True)
class CacheConfig:
    """Last-level cache parameters: 512 KB, 16-way, 64 B lines per core."""

    size_bytes: int = 512 * 1024
    associativity: int = 16
    line_bytes: int = 64

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.associativity * self.line_bytes)
        if sets <= 0:
            raise ValueError("cache too small for the requested associativity")
        return sets
