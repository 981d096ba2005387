"""DRAM rank model: a group of banks sharing activation-rate constraints.

The rank enforces the power-delivery constraints tRRD (minimum spacing
between ACTIVATEs) and tFAW (at most four ACTIVATEs per rolling window),
tracks rank-level all-bank refresh occupancy, and serializes per-bank
refreshes (the LPDDR standard disallows REFpb operations from overlapping
with each other within a rank, Section 2.2.2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.dram.bank import Bank


@dataclass
class Rank:
    """State of a single DRAM rank."""

    index: int
    banks: list[Bank]

    #: Earliest cycle an ACTIVATE may be issued anywhere in the rank (tRRD).
    next_act: int = 0
    #: Timestamps of the most recent ACTIVATEs, for the tFAW window.
    act_history: deque = field(default_factory=lambda: deque(maxlen=4))
    #: Cycle at which the in-progress all-bank refresh (if any) finishes.
    refab_until: int = 0
    #: Cycle at which the in-progress per-bank refresh (if any) finishes;
    #: REFpb commands within a rank may not overlap.
    pb_refresh_until: int = 0

    # -- statistics -------------------------------------------------------
    refab_count: int = 0
    refpb_count: int = 0

    def bank(self, index: int) -> Bank:
        return self.banks[index]

    # -- refresh state ----------------------------------------------------
    def is_under_all_bank_refresh(self, cycle: int) -> bool:
        return cycle < self.refab_until

    def is_under_per_bank_refresh(self, cycle: int) -> bool:
        return cycle < self.pb_refresh_until

    def is_refreshing(self, cycle: int) -> bool:
        """True when any refresh operation is in progress in this rank."""
        return self.is_under_all_bank_refresh(cycle) or self.is_under_per_bank_refresh(
            cycle,
        )

    # -- activation-rate constraints --------------------------------------
    def can_activate(self, cycle: int, trrd: int, tfaw: int) -> bool:
        """Check the rank-level tRRD/tFAW constraints for an ACTIVATE."""
        if cycle < self.next_act:
            return False
        if len(self.act_history) == self.act_history.maxlen:
            oldest = self.act_history[0]
            if cycle < oldest + tfaw:
                return False
        return True

    def record_activate(self, cycle: int, trrd: int) -> None:
        """Record an issued ACTIVATE for tRRD/tFAW accounting."""
        self.next_act = max(self.next_act, cycle + trrd)
        self.act_history.append(cycle)

    # -- refresh transitions ----------------------------------------------
    def start_all_bank_refresh(
        self,
        cycle: int,
        duration: int,
        sarp_enabled: bool,
    ) -> None:
        """Begin an all-bank refresh: every bank refreshes concurrently."""
        self.refab_until = cycle + duration
        self.refab_count += 1
        for bank in self.banks:
            bank.do_refresh(cycle, duration, sarp_enabled)

    def start_per_bank_refresh(
        self, cycle: int, bank_index: int, duration: int, sarp_enabled: bool
    ) -> None:
        """Begin a per-bank refresh on one bank."""
        self.pb_refresh_until = cycle + duration
        self.refpb_count += 1
        self.banks[bank_index].do_refresh(cycle, duration, sarp_enabled)

    def tick(self, cycle: int) -> None:
        """Clear expired refresh markers on the rank's banks."""
        for bank in self.banks:
            bank.end_refresh_if_done(cycle)

    # -- event horizon (cycle-skipping kernel) -----------------------------
    def next_event_cycle(self, now: int, tfaw: int) -> "int | None":
        """Earliest cycle after ``now`` at which rank-level state can change.

        Covers the rank's own timing windows (tRRD spacing, the tFAW
        rolling window, refresh completions) and every bank's deadlines.
        ``tfaw`` must be the window *currently in force* — under SARP the
        device passes the inflated value while the rank refreshes, and the
        refresh-completion candidates below cover the reversion to the
        base value.  (``next_act`` needs no such care: it was recorded as
        an absolute cycle using the tRRD in force at issue time.)
        """
        candidates = [
            deadline
            for deadline in (self.next_act, self.refab_until, self.pb_refresh_until)
            if deadline > now
        ]
        if len(self.act_history) == self.act_history.maxlen:
            deadline = self.act_history[0] + tfaw
            if deadline > now:
                candidates.append(deadline)
        for bank in self.banks:
            bank_event = bank.next_event_cycle(now)
            if bank_event is not None:
                candidates.append(bank_event)
        return min(candidates) if candidates else None

    # -- convenience ------------------------------------------------------
    def all_banks_precharged(self, cycle: int) -> bool:
        """True when every bank is precharged and able to accept a refresh."""
        return all(
            bank.open_row is None and not bank.is_refreshing(cycle)
            for bank in self.banks
        )

    def open_banks(self) -> list[Bank]:
        """Banks that currently have an open row."""
        return [bank for bank in self.banks if bank.open_row is not None]
