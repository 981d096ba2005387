"""Adaptive refresh (AR) from Mukundan et al. (ISCA 2013), Section 6.5.

DDR4 fine-granularity refresh (FGR) trades a shorter per-command refresh
latency for a higher refresh rate, but the latency does not scale down
proportionally (tRFC shrinks by only 1.35x / 1.63x while the rate doubles /
quadruples), so FGR alone hurts performance.  Adaptive refresh dynamically
switches between the normal 1x mode and the 4x mode depending on memory
pressure: under high pressure the shorter (if more frequent) 4x refreshes
reduce the worst-case blocking a demand request can experience.

The paper observes AR performs within about 1 % of REFab because the 4x
mode's aggregate overhead outweighs its latency benefit; this
implementation reproduces that trade-off by conserving total refresh work
across modes.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import RefreshPolicy
from repro.dram.commands import Command

#: tRFC shrink factor when refreshing at 4x granularity (DDR4, Section 6.5).
FGR4X_TRFC_SCALE = 1.63


class AdaptiveRefreshPolicy(RefreshPolicy):
    """All-bank refresh that adaptively switches between 1x and 4x granularity."""

    #: The granularity mode is recomputed in ``pre_demand`` before use and
    #: is idempotent under frozen queues, so post-issue freezing is safe.
    supports_post_issue_freeze = True
    schedule = "rank"
    #: Owed refresh work is counted in quarters of a 1x refresh: a 4x
    #: sub-refresh pays one quarter, a 1x refresh all four.
    due_units = 4

    def __init__(self, config, channel_id: int):
        super().__init__(config, channel_id)
        #: Duration (cycles) of one 4x sub-refresh.  DDR4 FGR shrinks tRFC by
        #: only 1.63x while quadrupling the refresh rate, so the four
        #: sub-refreshes together cost 2.45x the latency of one 1x refresh.
        self._quarter_duration = max(1, round(self.timings.tRFCab / FGR4X_TRFC_SCALE))
        #: Current mode per rank: 1 (normal) or 4 (fine granularity).
        self._mode = [1] * self.num_ranks

    # -- mode selection -----------------------------------------------------------
    def _select_mode(self, rank: int) -> int:
        """Pick the refresh granularity for the rank's next refresh.

        Fine-granularity (4x) refreshes cost more in aggregate (their tRFC
        does not shrink proportionally), so they are only worthwhile when
        the rank is lightly loaded: the shorter individual blocking window
        reduces the worst-case delay a future latency-critical request can
        see, while the extra overhead is absorbed by idleness.  Under
        pressure the policy stays in the normal 1x mode — which is why AR
        ends up performing close to REFab, as the paper observes.
        """
        pressure = self.controller.rank_demand_count(rank)
        if pressure < max(1, self.refresh_config.ar_pressure_threshold // 4):
            return 4
        return 1

    # -- policy hooks ------------------------------------------------------------------
    def pre_demand(self, cycle: int) -> Optional[Command]:
        self.accrue(cycle)
        device = self.device
        for rank, (owed,) in enumerate(self._owed):
            if owed <= 0:
                continue
            self._mode[rank] = self._select_mode(rank)
            if self._mode[rank] == 4:
                duration = self._quarter_duration
                quarters = 1
            else:
                duration = self.timings.tRFCab
                quarters = 4
            command = self._all_bank_command(rank)
            command.duration = duration
            if device.can_issue(command, cycle):
                self._paid(rank, units=quarters)
                self.stats.all_bank_issued += 1
                return command
            precharge = self._precharge_for_refresh(cycle, rank)
            if precharge is not None:
                return precharge
        return None

    def blocks_demand(self, cycle: int, rank: int, bank: int) -> bool:
        return self._owed[rank][0] > 0

    def refresh_candidate_banks(self, rank: int) -> tuple[int, ...]:
        # Owed refresh work is issued as rank-wide REFab commands (1x or
        # 4x granularity), both of which involve every bank of the rank.
        if self._owed[rank][0] > 0:
            return self._every_bank
        return ()
