"""Energy accounting following the Micron power-calculator methodology.

Energy is attributed to four components:

* **background** — standby power of every rank over the simulated interval,
* **activate/precharge** — per ACTIVATE command,
* **read/write bursts** — per column command,
* **refresh** — per refresh command (per-bank refreshes draw roughly an
  eighth of an all-bank refresh's current, Section 4.3.3).

The headline metric matches Figure 14: energy per memory access serviced,
which falls as mechanisms improve performance because the (dominant)
background energy is amortized over the same number of accesses in fewer
cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.dram_config import DRAMConfig
from repro.config.serialize import to_plain
from repro.dram.device import DeviceStats
from repro.power.idd import MICRON_8GB_DDR3, IDDValues


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy (nanojoules) attributed to each component."""

    background_nj: float
    activation_nj: float
    read_write_nj: float
    refresh_nj: float
    accesses: int

    @property
    def total_nj(self) -> float:
        return (
            self.background_nj
            + self.activation_nj
            + self.read_write_nj
            + self.refresh_nj
        )

    @property
    def energy_per_access_nj(self) -> float:
        """Energy per memory access serviced (Figure 14's metric)."""
        if self.accesses <= 0:
            return 0.0
        return self.total_nj / self.accesses

    def as_dict(self) -> dict:
        """The plain form plus the two derived values."""
        return {
            **to_plain(self),
            "total_nj": self.total_nj,
            "energy_per_access_nj": self.energy_per_access_nj,
        }


class DRAMPowerModel:
    """Computes the energy consumed by the DRAM system during a simulation."""

    def __init__(self, config: DRAMConfig, idd: IDDValues = MICRON_8GB_DDR3):
        self.config = config
        self.idd = idd

    def _event_energy_nj(self, current_ma: float, duration_cycles: float) -> float:
        """Energy of one event drawing ``current_ma`` for a cycle count.

        The IDD current is per device; every device of the rank participates
        in every command, so the energy is scaled by ``devices_per_rank``.
        """
        seconds = duration_cycles * self.config.timings.tCK_ns * 1e-9
        watts = current_ma * 1e-3 * self.idd.vdd * self.idd.devices_per_rank
        return watts * seconds * 1e9

    def energy(self, stats: DeviceStats, elapsed_cycles: int) -> EnergyBreakdown:
        """Energy breakdown for the device activity in ``stats``."""
        timings = self.config.timings
        org = self.config.organization
        idd = self.idd
        num_ranks = org.channels * org.ranks_per_channel

        background = num_ranks * self._event_energy_nj(idd.idd2n, elapsed_cycles)
        activation = stats.activates * self._event_energy_nj(
            idd.activate_current(), timings.tRC
        )
        reads = stats.reads * self._event_energy_nj(
            idd.idd4r - idd.idd3n, timings.tBL
        )
        writes = stats.writes * self._event_energy_nj(
            idd.idd4w - idd.idd3n, timings.tBL
        )
        refresh_ab = stats.all_bank_refreshes * self._event_energy_nj(
            idd.refresh_current(), timings.tRFCab
        )
        # A per-bank refresh draws roughly one eighth of an all-bank
        # refresh's current (it refreshes one bank instead of eight).
        refresh_pb = stats.per_bank_refreshes * self._event_energy_nj(
            idd.refresh_current() / org.banks_per_rank, timings.tRFCpb
        )
        accesses = stats.reads + stats.writes
        return EnergyBreakdown(
            background_nj=background,
            activation_nj=activation,
            read_write_nj=reads + writes,
            refresh_nj=refresh_ab + refresh_pb,
            accesses=accesses,
        )
