"""All-bank refresh (REFab): the commodity DDR baseline (Section 2.2.1).

Every ``tREFIab`` the controller owes one REFab command per rank.  While a
refresh is owed, demand requests to that rank are quiesced so the rank can
precharge and accept the refresh; during ``tRFCab`` the whole rank is
unavailable (unless SARP is enabled at the device level, in which case
accesses to non-refreshing subarrays proceed with inflated tFAW/tRRD).

The same policy serves the DDR4 fine-granularity-refresh modes (FGR 2x/4x):
those only change the configured ``tREFIab``/``tRFCab`` values.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import RefreshPolicy
from repro.dram.commands import Command


class AllBankRefreshPolicy(RefreshPolicy):
    """Rank-level refresh issued on schedule, with priority over demand."""

    #: Pure function of (cycle, owed refreshes, device deadlines): a
    #: frozen window may start right after an issuing tick.
    supports_post_issue_freeze = True
    schedule = "rank"

    # -- policy hooks ------------------------------------------------------------
    def pre_demand(self, cycle: int) -> Optional[Command]:
        self.accrue(cycle)
        device = self.device
        for rank, (owed,) in enumerate(self._owed):
            if owed <= 0:
                continue
            command = self._all_bank_command(rank)
            if device.can_issue(command, cycle):
                self._paid(rank)
                self.stats.all_bank_issued += 1
                return command
            precharge = self._precharge_for_refresh(cycle, rank)
            if precharge is not None:
                return precharge
        return None

    def blocks_demand(self, cycle: int, rank: int, bank: int) -> bool:
        # A rank owing a refresh stops accepting new demand so it can drain
        # and start refreshing; this is the source of REFab's penalty.
        return self._owed[rank][0] > 0

    def refresh_candidate_banks(self, rank: int) -> tuple[int, ...]:
        # An owed REFab needs every bank precharged and past its t_act, and
        # may first require precharges to any open bank of the rank.
        if self._owed[rank][0] > 0:
            return self._every_bank
        return ()
