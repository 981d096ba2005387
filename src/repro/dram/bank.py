"""DRAM bank state machine.

A bank tracks its open row, the earliest cycles at which each command type
may legally be issued (plain int deadline fields, which the device's
legality checks read directly), and its refresh state: whether
a refresh is in progress, which subarray that refresh occupies, and the
internal refresh row counter (DARP requires a separate row counter per bank
because the number of postponed/pulled-in refreshes differs across banks,
Section 4.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.dram.subarray import Subarray, build_subarrays


@dataclass
class Bank:
    """State of a single DRAM bank."""

    index: int
    rows: int
    subarrays_per_bank: int
    rows_per_refresh: int

    #: Currently open (activated) row, or None when precharged.
    open_row: Optional[int] = None
    #: Earliest cycle an ACTIVATE may be issued to this bank.
    t_act: int = 0
    #: Earliest cycle a column read may be issued.
    t_rd: int = 0
    #: Earliest cycle a column write may be issued.
    t_wr: int = 0
    #: Earliest cycle a precharge may be issued.
    t_pre: int = 0
    #: Cycle at which the current refresh (if any) finishes.
    refresh_until: int = 0
    #: Subarray occupied by the in-progress refresh (None if not refreshing).
    refreshing_subarray: Optional[int] = None
    #: Internal refresh row counter (next row to refresh in this bank).
    refresh_row_counter: int = 0
    #: Bumped by every state transition (``do_*``); the schedulers' frozen
    #: window analysis memoizes per-bank classification keyed on this, so
    #: only banks touched since the last install are re-analyzed.
    stamp: int = 0

    # -- statistics -------------------------------------------------------
    activations: int = 0
    reads: int = 0
    writes: int = 0
    precharges: int = 0
    refreshes: int = 0
    rows_refreshed: int = 0

    subarrays: list[Subarray] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.subarrays:
            self.subarrays = build_subarrays(self.subarrays_per_bank, self.rows)

    # -- helpers ----------------------------------------------------------
    @property
    def rows_per_subarray(self) -> int:
        return self.rows // self.subarrays_per_bank

    def subarray_of(self, row: int) -> int:
        """Subarray group containing ``row``."""
        return row // self.rows_per_subarray

    def is_refreshing(self, cycle: int) -> bool:
        """True while a refresh operation occupies this bank."""
        return cycle < self.refresh_until

    def is_idle(self, cycle: int) -> bool:
        """True when the bank has no open row and no refresh in progress."""
        return self.open_row is None and not self.is_refreshing(cycle)

    def refresh_conflicts_with(self, cycle: int, row: int) -> bool:
        """True if accessing ``row`` at ``cycle`` collides with the refresh.

        Under SARP this is the *subarray conflict* check: only accesses to
        the subarray currently being refreshed have to wait.
        """
        if not self.is_refreshing(cycle):
            return False
        return self.refreshing_subarray == self.subarray_of(row)

    # -- state transitions (invoked by the device) ------------------------
    def do_activate(self, cycle: int, row: int, timings) -> None:
        """Apply an ACTIVATE command's effects on the bank's deadlines."""
        self.stamp += 1
        self.open_row = row
        self.t_rd = cycle + timings.tRCD
        self.t_wr = cycle + timings.tRCD
        self.t_pre = max(self.t_pre, cycle + timings.tRAS)
        self.t_act = max(self.t_act, cycle + timings.tRC)
        self.activations += 1
        self.subarrays[self.subarray_of(row)].record_activation()

    def do_read(self, cycle: int, timings, autoprecharge: bool) -> int:
        """Apply a column read; returns the cycle the data burst completes."""
        self.stamp += 1
        burst_end = cycle + timings.tCL + timings.tBL
        self.t_pre = max(self.t_pre, cycle + timings.tRTP)
        self.reads += 1
        if autoprecharge:
            self.open_row = None
            self.t_act = max(self.t_act, cycle + timings.tRTP + timings.tRP)
            self.precharges += 1
        return burst_end

    def do_write(self, cycle: int, timings, autoprecharge: bool) -> int:
        """Apply a column write; returns the cycle the data burst completes."""
        self.stamp += 1
        burst_end = cycle + timings.tCWL + timings.tBL
        self.t_pre = max(self.t_pre, burst_end + timings.tWR)
        self.writes += 1
        if autoprecharge:
            self.open_row = None
            self.t_act = max(self.t_act, burst_end + timings.tWR + timings.tRP)
            self.precharges += 1
        return burst_end

    def do_precharge(self, cycle: int, timings) -> None:
        """Apply an explicit precharge."""
        self.stamp += 1
        self.open_row = None
        self.t_act = max(self.t_act, cycle + timings.tRP)
        self.precharges += 1

    def do_refresh(self, cycle: int, duration: int, sarp_enabled: bool) -> None:
        """Start a refresh operation of ``duration`` cycles on this bank.

        Without SARP the bank is unavailable for the whole duration; with
        SARP only the subarray containing the refresh row counter is
        occupied and the bank may still activate rows in other subarrays.
        """
        self.stamp += 1
        subarray = self.subarray_of(self.refresh_row_counter)
        self.refresh_until = cycle + duration
        self.refreshing_subarray = subarray
        self.refresh_row_counter = (
            self.refresh_row_counter + self.rows_per_refresh
        ) % self.rows
        self.refreshes += 1
        self.rows_refreshed += self.rows_per_refresh
        self.subarrays[subarray].record_refresh()
        if not sarp_enabled:
            self.t_act = max(self.t_act, cycle + duration)

    def end_refresh_if_done(self, cycle: int) -> None:
        """Clear the refreshing-subarray marker once the refresh completes."""
        if self.refreshing_subarray is not None and cycle >= self.refresh_until:
            self.refreshing_subarray = None

    def record_subarray_conflict(self, row: int, count: int = 1) -> None:
        """Record that an access to ``row`` was blocked by a refresh."""
        self.subarrays[self.subarray_of(row)].record_conflict(count)

    # -- event horizon (cycle-skipping kernel) -----------------------------
    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle after ``now`` at which a timing window of this
        bank expires.

        The command deadlines (``t_act``/``t_rd``/``t_wr``/``t_pre``)
        and the refresh-completion cycle are the only times at which a
        command that is illegal now can become legal without any other
        state change, so they bound how far the event kernel may safely
        skip.  Deadlines already in the past are irrelevant: the
        conditions they guard are monotone in the cycle number.
        """
        candidates = [
            deadline
            for deadline in (
                self.t_act,
                self.t_rd,
                self.t_wr,
                self.t_pre,
                self.refresh_until,
            )
            if deadline > now
        ]
        return min(candidates) if candidates else None
