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

Figure 8's step 3 (a random idle bank, refreshed when demand scheduling
issued nothing) only adds freedom when a pull-in budget lets it refresh
banks that owe nothing.  At the default ``max_pullin = 0`` its pool is
exactly the set of owed idle banks that step 2 tried, under the same
legality test, earlier in the same cycle, so the draw could never issue:
the policy then skips it and draws no random numbers at all.
"""

from __future__ import annotations

import random
from itertools import chain, compress
from typing import Optional

from repro.core.base import RefreshPolicy
from repro.dram.commands import Command


class DARPPolicy(RefreshPolicy):
    """Out-of-order per-bank refresh plus write-refresh parallelization."""

    # Every per-cycle decision is a pure function of the demand queues,
    # the debt table and device deadlines — no busy/idle edge tracking —
    # so frozen windows may start right after an issuing tick.  The
    # randomized idle-bank draw (with a pull-in budget only) is handled
    # by draw ticks, not freezing.
    supports_post_issue_freeze = True
    #: The owed table is the per-bank refresh debt of the module docstring.
    #: DARP pays its debt proactively (idle-bank and writeback-mode
    #: refreshes), so its steady-state debt is low and a zero start is
    #: representative.  Elastic refresh, which rides its postpone budget
    #: under load, also starts owing nothing but cuts that budget by the
    #: configured steady-state backlog instead.
    schedule = "bank"

    def __init__(self, config, channel_id: int):
        super().__init__(config, channel_id)
        refresh = config.refresh
        #: Whether Figure 8 step 3 draws a random idle bank: only with a
        #: pull-in budget (see the module docstring).
        self._draws = refresh.enable_out_of_order and refresh.max_pullin > 0
        #: Whether Algorithm 1 runs (in writeback mode).
        self._write_parallel = (
            refresh.enable_out_of_order
            and refresh.enable_write_refresh_parallelization
        )
        self._rng = random.Random(config.refresh.scheduler_seed + channel_id)
        #: Cached post-demand pools: (idle version, debt version, pools).
        self._pool_cache: "tuple[int, int, list[tuple[int, list[int]]]] | None" = None
        #: Cached per-rank forced and owed-idle banks (the refresh
        #: candidates other than Algorithm 1's target): (idle version,
        #: debt version, one tuple per rank).
        self._candidate_cache: "tuple[int, int, list[tuple[int, ...]]] | None" = None
        #: The demand-count key of every bank in debt-table order, and the
        #: test of a debt for being within the pull-in budget (both for
        #: :meth:`wants_draw_ticks`).
        self._bank_keys = [
            (rank, bank)
            for rank in range(self.num_ranks)
            for bank in range(self.num_banks)
        ]
        self._within_pullin = (-config.refresh.max_pullin).__lt__

    # -- bookkeeping ---------------------------------------------------------------
    def _postpones(self, cycle: int, rank: int, bank: int) -> bool:
        """A refresh falling due to a busy bank with postpone budget left
        is postponed (out-of-order scheduling only)."""
        if not (
            self.refresh_config.enable_out_of_order
            and self._owed[rank][bank] < self.refresh_config.max_postpone
            and self.controller.demand_count(rank, bank) > 0
        ):
            return False
        tracer = self.controller.tracer
        if tracer is not None:
            tracer.decision("DARP_POSTPONE", cycle, self.channel_id, rank, bank)
        return True

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
        self._paid(rank, bank)
        self.stats.per_bank_issued += 1
        return command

    # -- policy hooks ----------------------------------------------------------------
    def pre_demand(self, cycle: int) -> Optional[Command]:
        self.accrue(cycle)
        max_postpone = self.refresh_config.max_postpone
        out_of_order = self.refresh_config.enable_out_of_order

        for rank in range(self.num_ranks):
            debts = self._owed[rank]

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
                        if self._owed[rank][candidate] < 0:
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

        Only with a pull-in budget: at ``max_pullin = 0`` the pools hold
        just the owed idle banks ``pre_demand`` step 2 found blocked this
        cycle, so the hook returns at once and draws nothing.  Otherwise
        it draws from the cached :meth:`_post_demand_pools` — a pure
        function of the demand queues and the debt table, so the
        (version-keyed) cache returns the exact lists a rebuild would,
        and RNG consumption is unchanged.
        """
        if not self._draws:
            return None
        for rank, pool in self._post_demand_pools():
            bank = self._rng.choice(pool)
            command = self._issue_refresh(cycle, rank, bank)
            if command is not None:
                if self._owed[rank][bank] < 0:
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
        return self._owed[rank][bank] >= self.refresh_config.max_postpone

    def enqueue_preserves_window(self, rank: int, bank: int) -> bool:
        """Enqueues only make banks busy, which shrinks the owed-idle set
        and the draw pools — except in writeback mode, where a request to
        the rank's Algorithm 1 target (the first bank with the fewest
        queued demands) can move the target to an issuable bank; a
        reference tick is then required.  A request to any other bank
        only raises a count the target already undercuts."""
        return not (
            self._write_parallel
            and self.controller.in_writeback_mode
            and bank == self._write_mode_candidate(rank)
        )

    # -- cycle-skipping kernel hooks --------------------------------------------
    def refresh_candidate_banks(self, rank: int) -> tuple[int, ...]:
        """Banks of ``rank`` DARP can act on while the queues and the debt
        table hold.

        These are the forced banks and the owed idle banks (steps 1 and 2
        of :meth:`pre_demand`) and, in writeback mode, the rank's
        Algorithm 1 target.  An owed bank that is postponed because it is
        busy is left out: no path can refresh it until a retire makes it
        idle or the new target, or its debt changes.  Figure 8 step 3's
        random draw needs no watch: it never issues without a pull-in
        budget, and with one it runs as a draw tick every window cycle.
        Without out-of-order scheduling every owed bank is a candidate
        (the round-robin fallback).  The forced and owed-idle part is
        cached on the idle and debt versions.
        """
        queues = self.controller.queues
        cache = self._candidate_cache
        if (
            cache is None
            or cache[0] != queues.idle_version
            or cache[1] != self._owed_version
        ):
            cache = (
                queues.idle_version,
                self._owed_version,
                self._scheduled_candidates(queues.demand_counts),
            )
            self._candidate_cache = cache
        banks = cache[2][rank]
        if self._write_parallel and self.controller.in_writeback_mode:
            target = self._write_mode_candidate(rank)
            if target is not None and target not in banks:
                banks += (target,)
        return banks

    def _scheduled_candidates(self, counts) -> list[tuple[int, ...]]:
        """Per rank, the banks steps 1 and 2 (or the round-robin fallback)
        would try: forced and owed idle banks, or every owed bank."""
        max_postpone = self.refresh_config.max_postpone
        out_of_order = self.refresh_config.enable_out_of_order
        candidates = []
        for rank, debts in enumerate(self._owed):
            candidates.append(
                tuple(
                    bank
                    for bank, debt in enumerate(debts)
                    if debt >= max_postpone
                    or (debt > 0 and (not out_of_order or not counts[(rank, bank)]))
                )
            )
        return candidates

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
            and cache[1] == self._owed_version
        ):
            return cache[2]
        max_pullin = self.refresh_config.max_pullin
        counts = queues.demand_counts
        pools = []
        for rank in range(self.num_ranks):
            debts = self._owed[rank]
            idle_banks = [
                bank
                for bank in range(self.num_banks)
                if counts[(rank, bank)] == 0 and debts[bank] > -max_pullin
            ]
            if not idle_banks:
                continue
            owed = [bank for bank in idle_banks if debts[bank] > 0]
            pools.append((rank, owed if owed else idle_banks))
        self._pool_cache = (version, self._owed_version, pools)
        return pools

    def next_scheduled_event(self, now: int) -> Optional[int]:
        """Only the next *due* refresh: with a pull-in budget the
        per-cycle randomized draw runs as draw ticks inside the window
        instead of collapsing the window to one cycle (contrast
        :meth:`next_event_cycle`, the conservative reference horizon);
        without one there is no draw."""
        return RefreshPolicy.next_event_cycle(self, now)

    def wants_draw_ticks(self) -> bool:
        """True while :meth:`post_demand` would draw every cycle: a
        pull-in budget and non-empty pools.  Window cycles must then each
        consume the same randomness.

        Asked at every window install, when the pools are often stale, so
        a stale cache is not rebuilt: some pool is non-empty exactly when
        some rank has an idle bank within its pull-in budget.  Only the
        banks within the budget are visited, picked out at C level.
        """
        if not self._draws:
            return False
        cache = self._pool_cache
        queues = self.controller.queues
        if (
            cache is not None
            and cache[0] == queues.idle_version
            and cache[1] == self._owed_version
        ):
            return bool(cache[2])
        counts = queues.demand_counts
        debts = chain.from_iterable(self._owed)
        for key in compress(self._bank_keys, map(self._within_pullin, debts)):
            if not counts[key]:
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
        already covers.  Without a pull-in budget nothing is drawn.
        """
        if self._draws:
            for rank, pool in self._post_demand_pools():
                for bank in pool:
                    command = self._per_bank_command(rank, bank)
                    if self.device.can_issue(command, now + 1):
                        return now + 1
        return super().next_event_cycle(now)

    def skip_cycles(self, count: int) -> None:
        """Advance the RNG exactly as ``count`` fruitless cycles would have.

        During a skipped span the pools are frozen and no draw can issue
        (guaranteed by :meth:`next_event_cycle`), but the cycle kernel
        would still have consumed one ``choice`` per non-empty pool per
        cycle.  Replaying those draws keeps the RNG stream — and therefore
        every future refresh decision — bit-identical across kernels.
        Without a pull-in budget there is nothing to replay.
        """
        if not self._draws:
            return
        pools = self._post_demand_pools()
        if not pools:
            return
        choice = self._rng.choice
        for _ in range(count):
            for _, pool in pools:
                choice(pool)

    def _write_mode_candidate(self, rank: int) -> Optional[int]:
        """Bank with the lowest demand count whose pull-in budget allows a
        refresh (the first such bank on a tie).

        Every window install in writeback mode asks for it, so it reads
        the demand counts directly.
        """
        floor = -self.refresh_config.max_pullin
        counts = self.controller.queues.demand_counts
        best = fewest = None
        for bank, debt in enumerate(self._owed[rank]):
            if debt > floor:
                count = counts[(rank, bank)]
                if fewest is None or count < fewest:
                    best, fewest = bank, count
        return best
