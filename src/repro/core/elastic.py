"""Elastic refresh (Stuecheli et al., MICRO 2010), as evaluated in Section 6.

Elastic refresh exploits the DDR standard's allowance of up to eight
postponed refresh commands: it delays a due refresh while the rank is busy
and issues postponed refreshes only after the rank has been idle for a
delay derived from the observed average idle-period length; the delay
shrinks as more refreshes pile up, and once the postpone budget is
exhausted refreshes are forced with priority over demand.

The paper finds elastic refresh barely helps (≈1.8 % over REFab) because it
neither pulls refreshes in proactively nor overlaps them with accesses —
our implementation reproduces that behaviour.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.base import RefreshPolicy
from repro.dram.commands import Command


class ElasticRefreshPolicy(RefreshPolicy):
    """All-bank refresh postponed into predicted rank-idle periods."""

    schedule = "rank"

    def __init__(self, config, channel_id: int):
        super().__init__(config, channel_id)
        # Under sustained load, elastic refresh rides its postpone budget:
        # most of the eight-command credit is already spent in steady state.
        # A short simulation window that started with the full credit would
        # let the policy push nearly all of its refresh work past the end of
        # the window, so the effective in-window credit is reduced by the
        # configured steady-state backlog.
        backlog = min(
            config.refresh.steady_state_backlog,
            config.refresh.max_postpone - 1,
        )
        self._effective_postpone = config.refresh.max_postpone - backlog
        #: Cycle at which each rank last had pending demand requests.
        self._last_busy = [0] * self.num_ranks
        #: Exponentially weighted moving average of rank idle-period lengths.
        self._avg_idle = [float(self.timings.tRFCab)] * self.num_ranks
        self._idle_since = [0] * self.num_ranks
        self._was_idle = [False] * self.num_ranks

    # -- idle-period tracking -----------------------------------------------------
    def _update_idle_tracking(self, cycle: int) -> None:
        history = max(1, self.refresh_config.elastic_history)
        for rank in range(self.num_ranks):
            busy = self.controller.rank_demand_count(rank) > 0
            if busy:
                if self._was_idle[rank]:
                    idle_length = cycle - self._idle_since[rank]
                    self._avg_idle[rank] += (
                        idle_length - self._avg_idle[rank]
                    ) / history
                self._was_idle[rank] = False
                self._last_busy[rank] = cycle
            elif not self._was_idle[rank]:
                self._was_idle[rank] = True
                self._idle_since[rank] = cycle

    def _idle_threshold(self, rank: int) -> float:
        """Idle time to wait before spending a postponed refresh.

        With few postponed refreshes the policy is patient (waits for an
        idle period longer than the average); as the backlog grows the
        threshold shrinks toward zero, and at the postpone limit refreshes
        are forced regardless.
        """
        limit = self._effective_postpone
        backlog = min(self._owed[rank][0], limit)
        patience = (limit - backlog) / limit
        return self._avg_idle[rank] * patience

    # -- schedule bookkeeping --------------------------------------------------------
    def _postpones(self, cycle: int, rank: int, slot: int) -> bool:
        # A refresh falling due while an earlier one is still owed waits.
        return self._owed[rank][0] > 1

    # -- policy hooks --------------------------------------------------------------------
    def pre_demand(self, cycle: int) -> Optional[Command]:
        self.accrue(cycle)
        self._update_idle_tracking(cycle)
        device = self.device
        for rank, (owed,) in enumerate(self._owed):
            if owed < self._effective_postpone:
                continue
            # Postpone budget exhausted: force the refresh like REFab would.
            command = self._all_bank_command(rank)
            if device.can_issue(command, cycle):
                self._paid(rank)
                self.stats.all_bank_issued += 1
                self.stats.forced += 1
                return command
            precharge = self._precharge_for_refresh(cycle, rank)
            if precharge is not None:
                return precharge
        return None

    def post_demand(self, cycle: int) -> Optional[Command]:
        device = self.device
        for rank, (owed,) in enumerate(self._owed):
            if owed <= 0:
                continue
            if self.controller.rank_demand_count(rank) > 0:
                continue
            idle_time = cycle - self._idle_since[rank] if self._was_idle[rank] else 0
            if idle_time < self._idle_threshold(rank):
                continue
            command = self._all_bank_command(rank)
            if device.can_issue(command, cycle):
                self._paid(rank)
                self.stats.all_bank_issued += 1
                return command
        return None

    def blocks_demand(self, cycle: int, rank: int, bank: int) -> bool:
        return self._owed[rank][0] >= self._effective_postpone

    def refresh_candidate_banks(self, rank: int) -> tuple[int, ...]:
        # Elastic refresh issues (and prepares) rank-wide REFab commands
        # whenever any refresh is owed.
        if self._owed[rank][0] > 0:
            return self._every_bank
        return ()

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Next due refresh, or the idle threshold of an idle rank expiring.

        With the demand queues frozen, an idle rank's accumulated idle
        time keeps growing by one per cycle; the first cycle satisfying
        ``idle_time >= threshold`` is an event the kernel must not skip
        past, because :meth:`post_demand` would start issuing then.
        """
        candidates = []
        base = super().next_event_cycle(now)
        if base is not None:
            candidates.append(base)
        for rank, (owed,) in enumerate(self._owed):
            if owed <= 0 or not self._was_idle[rank]:
                continue
            if self.controller.rank_demand_count(rank) > 0:
                continue
            trigger = self._idle_since[rank] + math.ceil(self._idle_threshold(rank))
            if trigger > now:
                candidates.append(trigger)
        return min(candidates) if candidates else None
