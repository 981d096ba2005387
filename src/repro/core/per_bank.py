"""Per-bank refresh (REFpb) with the standard round-robin order (Section 2.2.2).

Every ``tREFIpb = tREFIab / 8`` one bank of the rank owes a refresh, chosen
by a strict sequential round-robin pointer: the controller has no say in
which bank is refreshed (the DRAM's internal refresh unit decides).  Only
the owed bank is quiesced, so other banks keep serving requests — the
advantage of REFpb over REFab — but an access to the owed (or refreshing)
bank must wait, and consecutive REFpb operations may not overlap within a
rank, which serializes their latency (the pathological case discussed in
Section 6.1).
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import RefreshPolicy
from repro.dram.commands import Command


class PerBankRefreshPolicy(RefreshPolicy):
    """LPDDR-style per-bank refresh in strict round-robin order."""

    #: Pure function of (cycle, owed refreshes, device deadlines): a
    #: frozen window may start right after an issuing tick.
    supports_post_issue_freeze = True
    schedule = "bank"

    def __init__(self, config, channel_id: int):
        super().__init__(config, channel_id)
        #: Per rank, the bank the DRAM's refresh counter refreshes next.
        #: The owed refreshes are the consecutive round-robin run of banks
        #: starting here, so the counter is an issue pointer over the
        #: owed table.
        self._issue_bank = [0] * self.num_ranks

    def pending_bank(self, rank: int) -> Optional[int]:
        """The bank whose refresh the rank owes next, if it owes one."""
        bank = self._issue_bank[rank]
        return bank if self._owed[rank][bank] > 0 else None

    # -- policy hooks ---------------------------------------------------------------
    def pre_demand(self, cycle: int) -> Optional[Command]:
        self.accrue(cycle)
        device = self.device
        for rank in range(self.num_ranks):
            bank = self.pending_bank(rank)
            if bank is None:
                continue
            command = self._per_bank_command(rank, bank)
            if device.can_issue(command, cycle):
                self._paid(rank, bank)
                self._issue_bank[rank] = (bank + 1) % self.num_banks
                self.stats.per_bank_issued += 1
                return command
            precharge = self._precharge_for_refresh(cycle, rank, bank)
            if precharge is not None:
                return precharge
        return None

    def blocks_demand(self, cycle: int, rank: int, bank: int) -> bool:
        # Only the bank at the head of the round-robin schedule is quiesced.
        return self.pending_bank(rank) == bank

    def refresh_candidate_banks(self, rank: int) -> tuple[int, ...]:
        # Strict round-robin: only the owed head bank can be refreshed
        # (or precharged in preparation) this cycle.
        pending = self.pending_bank(rank)
        return () if pending is None else (pending,)
