"""DARP: Dynamic Access Refresh Parallelization (Section 4.2).

DARP is a per-bank refresh *scheduling* policy with two components:

1. **Out-of-order per-bank refresh** (Figure 8).  The controller — not the
   DRAM's internal round-robin counter — decides which bank to refresh.  It
   avoids refreshing banks with pending demand requests, refreshes idle
   banks instead, and exploits the JEDEC allowance of up to eight postponed
   or pulled-in refresh commands per bank.  Following the paper's erratum,
   the per-bank bookkeeping guarantees no bank ever accumulates more than
   eight outstanding (postponed) refreshes and no bank is ever refreshed
   more than eight commands ahead of its schedule.

2. **Write-refresh parallelization** (Algorithm 1).  While the channel is
   draining a write batch (writeback mode) reads cannot be served anyway, so
   the policy proactively refreshes the bank with the fewest pending demand
   requests, hiding the refresh latency behind the writes of other banks.

The per-bank bookkeeping uses a single signed *refresh debt* counter per
bank: the nominal schedule (one refresh per rank every ``tREFIpb``,
rotating round-robin) increments the debt of its nominal bank; issuing a
REFpb to a bank decrements its debt.  Positive debt therefore counts
postponed refreshes, negative debt counts pulled-in refreshes, and the
JEDEC limits become ``-max_pullin <= debt <= max_postpone``.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.base import RefreshPolicy
from repro.dram.commands import Command


class DARPPolicy(RefreshPolicy):
    """Out-of-order per-bank refresh plus write-refresh parallelization."""

    # Every per-cycle decision is a pure function of the demand queues,
    # the debt table and device deadlines — no busy/idle edge tracking —
    # so frozen windows may start right after an issuing tick.  The
    # randomized idle-bank draw is handled by draw ticks, not freezing.
    supports_post_issue_freeze = True
    uses_draw_ticks = True

    def __init__(self, config, channel_id: int):
        super().__init__(config, channel_id)
        interval = self.timings.tREFIpb
        self._next_due = [
            self._initial_due(interval, rank) for rank in range(self.num_ranks)
        ]
        self._round_robin = [0] * self.num_ranks
        #: Signed refresh debt per (rank, bank); see the module docstring.
        #: DARP pays its debt proactively (idle-bank and writeback-mode
        #: refreshes), so its steady-state debt is low and a zero start is
        #: representative — unlike elastic refresh, which rides its postpone
        #: budget under load and is therefore initialized with a backlog.
        self._debt = [[0] * self.num_banks for _ in range(self.num_ranks)]
        self._rng = random.Random(config.refresh.scheduler_seed + channel_id)
        #: Bumped whenever any debt changes; keys the replay-pool cache.
        self._debt_version = 0
        #: Cached post-demand pools: (queue version, debt version, pools).
        self._pool_cache: "tuple[int, int, list[tuple[int, list[int]]]] | None" = None

    # -- bookkeeping ---------------------------------------------------------------
    def refresh_debt(self, rank: int, bank: int) -> int:
        """Outstanding refresh debt of a bank (positive = postponed)."""
        return self._debt[rank][bank]

    def _accumulate_due(self, cycle: int) -> None:
        interval = self.timings.tREFIpb
        out_of_order = self.refresh_config.enable_out_of_order
        for rank in range(self.num_ranks):
            while cycle >= self._next_due[rank]:
                nominal = self._round_robin[rank]
                self._debt[rank][nominal] += 1
                self._debt_version += 1
                if (
                    out_of_order
                    and self._debt[rank][nominal] < self.refresh_config.max_postpone
                    and self.controller.demand_count(rank, nominal) > 0
                ):
                    self.stats.postponed += 1
                    tracer = self.controller.tracer
                    if tracer is not None:
                        tracer.decision(
                            "DARP_POSTPONE", cycle, self.channel_id, rank, nominal
                        )
                self._round_robin[rank] = (nominal + 1) % self.num_banks
                self._next_due[rank] += interval

    def _issue_refresh(self, cycle: int, rank: int, bank: int) -> Optional[Command]:
        """Try to issue a REFpb to (rank, bank); returns the command or None.

        The legality test inlines ``DRAMDevice.can_issue``'s REFPB branch
        (bank precharged, bank not refreshing, no all-bank or overlapping
        per-bank refresh in the rank, activity window expired): this probe
        runs on every draw tick in both kernels and fails on most of them,
        so the inline form skips the command lookup and the dispatching
        ``can_issue`` call on the failure path.
        """
        rank_obj = self.device.rank(self.channel_id, rank)
        bank_obj = rank_obj.banks[bank]
        if (
            bank_obj.open_row is not None
            or cycle < bank_obj.t_act
            or cycle < bank_obj.refresh_until
            or cycle < rank_obj.refab_until
            or cycle < rank_obj.pb_refresh_until
        ):
            return None
        command = self._per_bank_command(rank, bank)
        self._debt[rank][bank] -= 1
        self._debt_version += 1
        self.stats.per_bank_issued += 1
        return command

    # -- policy hooks ----------------------------------------------------------------
    def pre_demand(self, cycle: int) -> Optional[Command]:
        self._accumulate_due(cycle)
        max_postpone = self.refresh_config.max_postpone
        out_of_order = self.refresh_config.enable_out_of_order

        for rank in range(self.num_ranks):
            debts = self._debt[rank]

            # 1. Forced refreshes: a bank whose postpone budget is exhausted
            #    must be refreshed now, with priority over demand (Figure 8,
            #    the "cannot postpone" branch).
            for bank in range(self.num_banks):
                if debts[bank] < max_postpone:
                    continue
                command = self._issue_refresh(cycle, rank, bank)
                if command is not None:
                    self.stats.forced += 1
                    tracer = self.controller.tracer
                    if tracer is not None:
                        tracer.decision(
                            "DARP_FORCED", cycle, self.channel_id, rank, bank
                        )
                    return command
                precharge = self._precharge_for_refresh(cycle, rank, bank)
                if precharge is not None:
                    return precharge

            # Without out-of-order scheduling the policy degenerates to the
            # strict round-robin baseline: every owed refresh is treated as
            # forced for its nominal bank (handled above since the nominal
            # bank is the only one accumulating debt); skip the flexible steps.
            if not out_of_order:
                # Behave like baseline REFpb: issue the oldest owed refresh
                # to its nominal bank with priority over demand.
                for bank in range(self.num_banks):
                    if debts[bank] <= 0:
                        continue
                    command = self._issue_refresh(cycle, rank, bank)
                    if command is not None:
                        return command
                    precharge = self._precharge_for_refresh(cycle, rank, bank)
                    if precharge is not None:
                        return precharge
                continue

            # 2. Scheduled refreshes to idle banks: serving an owed refresh
            #    to a bank with no pending demand costs demand nothing.
            owed_idle = [
                bank
                for bank in range(self.num_banks)
                if debts[bank] > 0 and self.controller.demand_count(rank, bank) == 0
            ]
            owed_idle.sort(key=lambda bank: -debts[bank])
            for bank in owed_idle:
                command = self._issue_refresh(cycle, rank, bank)
                if command is not None:
                    tracer = self.controller.tracer
                    if tracer is not None:
                        tracer.decision(
                            "DARP_IDLE", cycle, self.channel_id, rank, bank
                        )
                    return command

            # 3. Write-refresh parallelization (Algorithm 1): during
            #    writeback mode, refresh the bank with the fewest pending
            #    demand requests, provided its pull-in budget allows it.
            if (
                self.refresh_config.enable_write_refresh_parallelization
                and self.controller.in_writeback_mode
                and not self.device.rank(self.channel_id, rank).is_refreshing(cycle)
            ):
                candidate = self._write_mode_candidate(rank)
                if candidate is not None:
                    command = self._issue_refresh(cycle, rank, candidate)
                    if command is not None:
                        self.stats.write_mode_refreshes += 1
                        if self._debt[rank][candidate] < 0:
                            self.stats.pulled_in += 1
                        tracer = self.controller.tracer
                        if tracer is not None:
                            tracer.decision(
                                "DARP_WRITE_MODE",
                                cycle,
                                self.channel_id,
                                rank,
                                candidate,
                            )
                        return command
        return None

    def post_demand(self, cycle: int) -> Optional[Command]:
        """Figure 8, step 3: refresh a random idle bank when demand is stalled.

        Draws from the cached :meth:`_post_demand_pools` — the pools are a
        pure function of the demand queues and the debt table, so the
        (version-keyed) cache returns the exact lists this method used to
        rebuild per call, and RNG consumption is unchanged.
        """
        if not self.refresh_config.enable_out_of_order:
            return None
        for rank, pool in self._post_demand_pools():
            bank = self._rng.choice(pool)
            command = self._issue_refresh(cycle, rank, bank)
            if command is not None:
                if self._debt[rank][bank] < 0:
                    self.stats.pulled_in += 1
                tracer = self.controller.tracer
                if tracer is not None:
                    tracer.decision(
                        "DARP_POSTDEMAND", cycle, self.channel_id, rank, bank
                    )
                return command
        return None

    def blocks_demand(self, cycle: int, rank: int, bank: int) -> bool:
        """Quiesce only banks whose refresh can no longer be postponed."""
        return self._debt[rank][bank] >= self.refresh_config.max_postpone

    def enqueue_preserves_window(self) -> bool:
        """Enqueues only shrink DARP's idle pools — except in writeback
        mode, where the write-refresh candidate (the bank with the fewest
        queued demands, Algorithm 1) can *move* to an issuable bank when a
        request arrives; a reference tick is then required."""
        return not (
            self.refresh_config.enable_write_refresh_parallelization
            and self.controller.in_writeback_mode
        )

    # -- cycle-skipping kernel hooks --------------------------------------------
    def refresh_candidate_banks(self, rank: int) -> tuple[int, ...]:
        """Banks DARP may refresh this cycle: forced, owed-idle, write-mode
        or post-demand candidates.

        With a pull-in budget any bank can be refreshed ahead of schedule,
        so every bank is a candidate; without one, only banks with
        positive debt (owed refreshes) can be targeted by any of the four
        selection paths.
        """
        if self.refresh_config.max_pullin > 0:
            return tuple(range(self.num_banks))
        debts = self._debt[rank]
        return tuple(bank for bank in range(self.num_banks) if debts[bank] > 0)

    def _post_demand_pools(self) -> list[tuple[int, list[int]]]:
        """The per-rank candidate pools :meth:`post_demand` would draw from.

        Built with exactly the same selection code as :meth:`post_demand`
        so a replayed ``choice`` consumes the RNG stream identically
        (consumption depends on the pool length).  The pools are a pure
        function of per-bank *idleness* and the debt table, so they are
        cached under the queues' idle-transition version (which ignores
        mid-queue churn) and the debt version — the event kernel queries
        them every no-op tick and every replayed sleep cycle.
        """
        queues = self.controller.queues
        version = queues.idle_version
        cache = self._pool_cache
        if (
            cache is not None
            and cache[0] == version
            and cache[1] == self._debt_version
        ):
            return cache[2]
        max_pullin = self.refresh_config.max_pullin
        counts = queues.demand_counts
        pools = []
        for rank in range(self.num_ranks):
            debts = self._debt[rank]
            idle_banks = [
                bank
                for bank in range(self.num_banks)
                if counts[(rank, bank)] == 0 and debts[bank] > -max_pullin
            ]
            if not idle_banks:
                continue
            owed = [bank for bank in idle_banks if debts[bank] > 0]
            pools.append((rank, owed if owed else idle_banks))
        self._pool_cache = (version, self._debt_version, pools)
        return pools

    def next_scheduled_event(self, now: int) -> Optional[int]:
        """Only the next *due* refresh: the per-cycle randomized draw is
        handled by draw ticks inside the window, not by collapsing the
        window to one cycle (contrast :meth:`next_event_cycle`, the
        conservative reference horizon)."""
        return RefreshPolicy.next_event_cycle(self, now)

    def wants_draw_ticks(self) -> bool:
        """True while :meth:`post_demand` would draw every cycle (non-empty
        pools): window cycles must each consume the same randomness.

        Asked at every window install, when the pools are often stale, so
        a stale cache is not rebuilt: some pool is non-empty exactly when
        some rank has an idle bank within its pull-in budget.
        """
        if not self.refresh_config.enable_out_of_order:
            return False
        cache = self._pool_cache
        if (
            cache is not None
            and cache[0] == self.controller.queues.idle_version
            and cache[1] == self._debt_version
        ):
            return bool(cache[2])
        floor = -self.refresh_config.max_pullin
        counts = self.controller.queues.demand_counts
        for rank, debts in enumerate(self._debt):
            for bank, debt in enumerate(debts):
                if debt > floor and not counts[(rank, bank)]:
                    return True
        return False

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Next due refresh — or "right now" when a random draw could issue.

        :meth:`post_demand` draws a *random* pool bank each cycle, so a
        cycle in which the drawn bank happened to be blocked proves
        nothing about the other pool banks.  If any pool bank could accept
        a REFpb on the very next cycle, skipping is unsafe (a different
        draw might issue); the kernel is told the next event is ``now + 1``
        and simply keeps stepping.  Otherwise every pool bank stays
        blocked until a device timing deadline, which the device horizon
        already covers.
        """
        if self.refresh_config.enable_out_of_order:
            for rank, pool in self._post_demand_pools():
                for bank in pool:
                    command = self._per_bank_command(rank, bank)
                    if self.device.can_issue(command, now + 1):
                        return now + 1
        return super().next_event_cycle(now)

    def skip_cycles(self, count: int) -> None:
        """Advance the RNG exactly as ``count`` fruitless cycles would have.

        During a skipped span the pools are frozen and no draw can issue
        (guaranteed by :meth:`next_event_cycle`), but the legacy kernel
        would still have consumed one ``choice`` per non-empty pool per
        cycle.  Replaying those draws keeps the RNG stream — and therefore
        every future refresh decision — bit-identical across kernels.
        """
        if not self.refresh_config.enable_out_of_order:
            return
        pools = self._post_demand_pools()
        if not pools:
            return
        choice = self._rng.choice
        for _ in range(count):
            for _, pool in pools:
                choice(pool)

    def _write_mode_candidate(self, rank: int) -> Optional[int]:
        """Bank with the lowest demand count whose pull-in budget allows a refresh."""
        max_pullin = self.refresh_config.max_pullin
        candidates = [
            bank
            for bank in range(self.num_banks)
            if self._debt[rank][bank] > -max_pullin
        ]
        if not candidates:
            return None
        return min(
            candidates, key=lambda bank: self.controller.demand_count(rank, bank)
        )
