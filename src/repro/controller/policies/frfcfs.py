"""FR-FCFS (first-ready, first-come-first-served) command scheduling.

Each cycle the scheduler proposes at most one demand command for its
channel.  Column commands that hit an open row are preferred over row
commands (activates/precharges); ties are broken by request age.  The
candidate set is the read queues outside writeback mode and the write
queues while the channel drains writes.

The scheduler consults the refresh policy's ``blocks_demand`` hook so that
a mandatory (non-postponable) refresh can quiesce its target rank or bank,
and it skips activates whose target subarray is currently being refreshed
(the SARP subarray-conflict check), recording the conflict for statistics.
"""

from __future__ import annotations

from bisect import insort
from typing import Optional

from repro.controller.policies.base import SchedulerPolicy, register_scheduler
from repro.controller.request import MemRequest
from repro.dram.commands import Command, CommandType

#: Command-class codes used by the frozen window schedule
#: (:attr:`FRFCFSScheduler.window_schedule`).
WIN_COL = 0
WIN_ACT = 1
WIN_PRE = 2

#: Sentinel "never ready" cycle: larger than any reachable simulation
#: cycle, so the ready-minimum reduction needs no None checks.
READY_NEVER = 1 << 62


@register_scheduler
class FRFCFSScheduler(SchedulerPolicy):
    """Row hits first, then oldest-first row commands (the paper's baseline)."""

    name = "frfcfs"

    # -- public API ---------------------------------------------------------
    def select(self, cycle: int) -> Optional[tuple[Command, Optional[MemRequest]]]:
        """Choose the demand command to issue this cycle, if any."""
        self.last_conflicts = []
        ctl = self.controller
        queues = ctl.queues
        serve_writes = ctl.drain.should_serve_writes(
            queues.write_count, queues.read_count
        )
        selection = self._select_from(cycle, writes=serve_writes)
        if selection is not None:
            self.note_issue(selection[0])
            return selection
        # While not draining, writes are only served if there are no reads at
        # all (handled above).  While draining, reads are never served: the
        # paper's writeback mode blocks reads on the whole channel.
        return None

    # -- row-hit gating (overridden by the capped variant) --------------------
    def _hits_allowed(self, bank_key: tuple[int, int]) -> bool:
        """Whether open-row hits in this bank may still be preferred.

        The base policy always prefers hits; the row-hit-capped variant
        demotes a bank's hits after a streak so older conflicting requests
        force a close.  Both :meth:`_select_from` and
        :meth:`next_event_cycle` consult this hook, keeping the demand
        horizon consistent with the frozen selection outcome.
        """
        return True

    def _wants_column(self, bank_key: tuple[int, int], open_row: int, queue) -> bool:
        """Whether the frozen candidate for this open-row bank is a column hit.

        Classification hook shared by :meth:`next_event_cycle`'s bank walk:
        with the queues frozen, this decides which deadline class the walk
        watches for the bank (column versus precharge).  FR-FCFS prefers a
        hit whenever any queued request matches the open row (and the
        row-hit gate allows it); FCFS overrides this with its head-request
        rule so the shared walk stays consistent with its selection.
        """
        return self._hits_allowed(bank_key) and any(
            request.location.row == open_row for request in queue
        )

    # -- candidate generation -------------------------------------------------
    def _select_from(
        self, cycle: int, writes: bool
    ) -> Optional[tuple[Command, Optional[MemRequest]]]:
        ctl = self.controller
        queues = ctl.queues
        device = ctl.device
        policy = ctl.refresh_policy
        channel = ctl.channel_id
        queue_map = queues.writes if writes else queues.reads
        blocks_demand = policy.blocks_demand
        ranks = device.channels[channel].ranks

        hit_candidates: list[tuple[int, int, MemRequest]] = []
        row_candidates: list[tuple[int, int, MemRequest]] = []
        for bank_key, queue in queue_map.items():
            if not queue:
                continue
            rank_i, bank_i = bank_key
            if blocks_demand(cycle, rank_i, bank_i):
                continue
            bank = ranks[rank_i].banks[bank_i]
            open_row = bank.open_row
            if open_row is not None and self._hits_allowed(bank_key):
                for req in queue:
                    if req.location.row == open_row:
                        hit_candidates.append((req.arrival_cycle, req.request_id, req))
                        break
                else:
                    # Open row does not serve any queued request: precharge.
                    oldest = queue[0]
                    row_candidates.append(
                        (oldest.arrival_cycle, oldest.request_id, oldest),
                    )
            else:
                oldest = queue[0]
                row_candidates.append((oldest.arrival_cycle, oldest.request_id, oldest))

        window = ctl.config.controller.scheduling_window

        # First-ready: column commands for open-row hits, oldest first.
        # Legality does not depend on the autoprecharge choice, so a cheap
        # probe (always keep-open) is checked first and the real command —
        # whose keep-open decision needs a queue scan — is only built for
        # the one candidate that issues.
        hit_candidates.sort()
        for _, _, req in hit_candidates[:window]:
            probe = self._probe_column_command(req)
            if device.can_issue(probe, cycle):
                command = self._column_command(req, writes)
                return command, req

        # Then row commands (activate or precharge), oldest first.
        row_candidates.sort()
        for _, _, req in row_candidates[:window]:
            rank_i, bank_i = req.bank_key
            bank = ranks[rank_i].banks[bank_i]
            if bank.open_row is None:
                command = Command(
                    CommandType.ACT, channel, rank_i, bank_i, req.row, 0, req
                )
                if device.can_issue(command, cycle):
                    return command, None
                if bank.refresh_conflicts_with(cycle, req.row):
                    device.record_subarray_conflict(command)
                    self.last_conflicts.append(command)
            else:
                command = Command(CommandType.PRE, channel, rank_i, bank_i)
                if device.can_issue(command, cycle):
                    return command, None
        return None

    # -- exact demand window (cycle-skipping kernel) -----------------------------
    #: FCFS probes one combined age-ordered window; FR-FCFS probes sorted
    #: hits first, then sorted row commands (each truncated separately).
    combined_window = False

    def _classify_bank(self, bank_key, queue, bank, writes: bool):
        """One bank's frozen candidate:
        ``(arrival, id, req, kind, sub, cmd, rank_i, bank_i, ready, refresh_until)``.

        ``sub`` is True when the candidate is an ACTIVATE into the
        subarray the bank's current refresh occupies (``cmd`` is then the
        conflict command ``select`` records while the refresh is live —
        every consumer guards on ``refresh_until``, so a stale marker of a
        finished refresh is harmless).  ``ready`` pre-folds every
        *bank-local* gate of the frozen command class (the column/act/pre
        deadline, plus the refresh end where it gates unconditionally);
        the window evaluation only combines it with the shared bus and
        rank gates, so it never touches bank objects.  That fold is sound
        under the same freeze that keeps the entry cached: the bank's
        state stamp keys the memo, and any command to the bank bumps it.
        """
        rank_i, bank_i = bank_key
        device = self.controller.device
        open_row = bank.open_row
        if open_row is not None:
            if self._hits_allowed(bank_key):
                for req in queue:
                    if req.location.row == open_row:
                        return (
                            req.arrival_cycle, req.request_id, req,
                            WIN_COL, False, None, rank_i, bank_i,
                            bank.t_wr if writes else bank.t_rd, 0,
                        )
            req = queue[0]
            ready = bank.t_pre
            if not device.sarp_enabled and bank.refresh_until > ready:
                ready = bank.refresh_until
            return (
                req.arrival_cycle, req.request_id, req,
                WIN_PRE, False, None, rank_i, bank_i, ready, 0,
            )
        req = queue[0]
        sub = bank.refreshing_subarray
        match = sub is not None and sub == bank.subarray_of(req.row)
        command = None
        if match:
            command = Command(
                CommandType.ACT,
                self.controller.channel_id,
                rank_i,
                bank_i,
                req.row,
                0,
                req,
            )
        ready = bank.t_act
        if not device.sarp_enabled and bank.refresh_until > ready:
            ready = bank.refresh_until
        return (
            req.arrival_cycle, req.request_id, req,
            WIN_ACT, match, command, rank_i, bank_i, ready, bank.refresh_until,
        )

    def _rebuild_entries(self, now: int, writes: bool) -> None:
        """Rebuild the persistent frozen candidate set in exact probe order.

        Stores ``[(arrival, id, req, kind, sub, cmd)]`` split into the hit
        and row segments exactly as :meth:`_select_from` probes them.
        With the queues, refresh blocking and bank open rows frozen, these
        are exactly the candidates ``select`` probes — in the order it
        probes them — and the only command class it would try per bank,
        so the first entry whose ready cycle has passed is the command
        ``select`` would issue.  Per-bank classification (the row-hit scan
        and conflict command) is memoized keyed on the bank's queue
        version and state stamp; only the refresh-blocking test and the
        sort run fresh.

        The set persists between installs: a fast issue (or an in-window
        enqueue) changes a single bank, so its entry is re-spliced by
        :meth:`_splice_entry` instead of rebuilding everything.
        """
        ctl = self.controller
        queues = ctl.queues
        queue_map = queues.writes if writes else queues.reads
        bank_versions = queues.bank_versions
        blocks_demand = ctl.refresh_policy.blocks_demand
        ranks = ctl.device.channels[ctl.channel_id].ranks
        memo = self._window_memo
        combined = self.combined_window
        by_bank: dict = {}
        hits: list = []
        rows: list = []
        for bank_key, queue in queue_map.items():
            if not queue:
                continue
            rank_i, bank_i = bank_key
            if blocks_demand(now, rank_i, bank_i):
                continue
            bank = ranks[rank_i].banks[bank_i]
            qv = bank_versions[bank_key]
            stamp = bank.stamp
            slot = memo.get(bank_key)
            if slot is not None and slot[0] == qv and slot[1] == stamp and slot[2] == writes:
                value = slot[3]
            else:
                value = self._classify_bank(bank_key, queue, bank, writes)
                memo[bank_key] = (qv, stamp, writes, value)
            by_bank[bank_key] = value
            if combined or value[3] != WIN_COL:
                rows.append(value)
            else:
                hits.append(value)
        window = ctl.config.controller.scheduling_window
        rows.sort()
        hits.sort()
        # With one candidate per bank the scheduling window almost never
        # truncates; when it does, the persistent set stops being the
        # exact probe set after a mutation, so splicing is disabled.
        exact = len(rows) <= window and len(hits) <= window
        if not exact:
            del rows[window:]
            del hits[window:]
        self._win_hits = hits
        self._win_rows = rows
        self._win_by_bank = by_bank
        self._win_writes_key = writes
        self._win_exact = exact

    def _splice_entry(self, now: int, bank_key, writes: bool) -> None:
        """Re-derive one bank's entry inside the persistent candidate set.

        Only sound while every *other* bank's candidate is provably
        unchanged — i.e. after a licensed fast issue to ``bank_key`` (the
        license puts the wake strictly before every deadline that could
        change another bank's classification or blocking) or an in-window
        enqueue to it.  Tuple order is (arrival, id, ...) with unique
        request ids, so the sort never compares request objects.
        """
        combined = self.combined_window
        by_bank = self._win_by_bank
        old = by_bank.pop(bank_key, None)
        if old is not None:
            if combined or old[3] != WIN_COL:
                self._win_rows.remove(old)
            else:
                self._win_hits.remove(old)
        ctl = self.controller
        queues = ctl.queues
        queue = (queues.writes if writes else queues.reads)[bank_key]
        if not queue:
            return
        rank_i, bank_i = bank_key
        if ctl.refresh_policy.blocks_demand(now, rank_i, bank_i):
            return
        bank = ctl.device.channels[ctl.channel_id].ranks[rank_i].banks[bank_i]
        value = self._classify_bank(bank_key, queue, bank, writes)
        self._window_memo[bank_key] = (
            queues.bank_versions[bank_key],
            bank.stamp,
            writes,
            value,
        )
        by_bank[bank_key] = value
        if combined or value[3] != WIN_COL:
            insort(self._win_rows, value)
        else:
            insort(self._win_hits, value)

    def demand_window(
        self, now: int, dirty=None
    ) -> tuple[Optional[int], list[Command]]:
        """Exact demand horizon plus the per-cycle conflict replay set.

        Returns ``(horizon, conflicts)``: ``horizon`` is the *first* cycle
        after ``now`` at which :meth:`select` could issue a command or
        change the set of SARP subarray conflicts it records (``None``
        when no candidate can ever become ready without a queue
        mutation), and ``conflicts`` is exactly the conflict set a no-op
        ``select`` records on every cycle in ``(now, horizon)``.

        Unlike the pooled-deadline :meth:`next_event_cycle` (kept as the
        conservative reference), this computes each candidate's exact
        ready cycle — the max over every gate ``can_issue`` checks for its
        frozen command class — so the controller can install a sleep
        window immediately after an *issuing* tick, where stale pooled
        deadlines would already lie in the past and prove nothing.

        Side effect: the per-candidate analysis is stashed for the
        controller's fast-issue path (:attr:`window_schedule`, the frozen
        entries in probe order, with :attr:`window_ready` holding their
        exact ready cycles as a parallel list of ints — split so each
        install appends plain integers instead of building a tuple per
        entry; :attr:`window_conflicts`, each conflict with its probe
        position and expiry; :attr:`window_writes` and the raw
        :attr:`window_demand_ready` / :attr:`window_conflict_expiry`
        minima).

        ``dirty`` names the single bank a licensed fast issue (or
        in-window enqueue) touched: the persistent candidate set is then
        spliced instead of rebuilt, and only the ready-cycle evaluation
        runs over the full set.
        """
        ctl = self.controller
        queues = ctl.queues
        device = ctl.device
        timings = device.timings
        serve_writes = ctl.drain.should_serve_writes(
            queues.write_count, queues.read_count
        )
        if dirty is None or serve_writes != self._win_writes_key or not self._win_exact:
            self._rebuild_entries(now, serve_writes)
        else:
            for bank_key in dirty:
                self._splice_entry(now, bank_key, serve_writes)
        hits = self._win_hits
        entries = hits + self._win_rows if hits else self._win_rows
        ready_list: list = []
        detail: list = []
        self.window_schedule = entries
        self.window_ready = ready_list
        self.window_conflicts = detail
        self.window_writes = serve_writes
        first = now + 1
        if not entries:
            self.window_demand_ready = None
            self.window_conflict_expiry = None
            return None, []
        channel = device.channels[ctl.channel_id]
        ranks = channel.ranks
        sarp = device.sarp_enabled
        ready_min = READY_NEVER
        conflicts: list[Command] = []
        conflict_expiry: Optional[int] = None

        # Shared-bus gates in command-cycle space (single source of the
        # arithmetic: Channel.bus_deadlines documents the derivation).
        if serve_writes:
            bus_ready = max(
                channel.bus_busy_until - timings.tCWL,
                channel.last_read_burst_end + timings.tRTW - timings.tCWL,
            )
        else:
            bus_ready = max(
                channel.bus_busy_until - timings.tCL,
                channel.last_write_burst_end + timings.tWTR - timings.tCL,
            )
        # Rank-level ACT gates (activation window, refresh end) are shared
        # by every ACT candidate of the rank; computed once per rank.
        rank_act_gate: dict[int, int] = {}

        append_ready = ready_list.append
        for pos, entry in enumerate(entries):
            kind = entry[3]
            ready = entry[8]
            if kind == WIN_COL:
                if bus_ready > ready:
                    ready = bus_ready
            elif kind == WIN_ACT:
                # ``select`` records a conflict (under every mechanism) for
                # a failing ACT whose target subarray is the one being
                # refreshed — every cycle until the refresh completes,
                # after which the replay set changes (window clamp below).
                refresh_until = entry[9]
                if entry[4] and refresh_until > first:
                    conflict_cmd = entry[5]
                    conflicts.append(conflict_cmd)
                    detail.append((pos, refresh_until, conflict_cmd))
                    if (
                        conflict_expiry is None
                        or refresh_until < conflict_expiry
                    ):
                        conflict_expiry = refresh_until
                    # Only an access into the refreshing subarray is gated
                    # under SARP (the unconditional non-SARP refresh gate
                    # is pre-folded into ``ready`` at classify time).
                    if sarp and refresh_until > ready:
                        ready = refresh_until
                rank_i = entry[6]
                gate = rank_act_gate.get(rank_i)
                if gate is None:
                    rank = ranks[rank_i]
                    gate = rank.next_act
                    if not sarp and rank.refab_until > gate:
                        gate = rank.refab_until
                    history = rank.act_history
                    if len(history) == history.maxlen:
                        oldest = history[0]
                        tfaw_now = device.tfaw_in_force(rank, first)
                        refresh_end = max(rank.refab_until, rank.pb_refresh_until)
                        if refresh_end > first:
                            # SARP-inflated window while the rank refreshes:
                            # legal inside the refresh if the inflated window
                            # expires first, otherwise at the later of the
                            # refresh end and the base window (piecewise).
                            inflated = oldest + tfaw_now
                            if inflated < refresh_end:
                                faw_ready = inflated
                            else:
                                faw_ready = max(refresh_end, oldest + timings.tFAW)
                        else:
                            faw_ready = oldest + tfaw_now
                        if faw_ready > gate:
                            gate = faw_ready
                    rank_act_gate[rank_i] = gate
                if gate > ready:
                    ready = gate
            append_ready(ready)
            if ready < ready_min:
                ready_min = ready

        self.window_demand_ready = ready_min
        self.window_conflict_expiry = conflict_expiry
        horizon = ready_min if ready_min > first else first
        if conflict_expiry is not None and conflict_expiry < horizon:
            horizon = conflict_expiry
        return horizon, conflicts

    # -- event horizon (cycle-skipping kernel) ----------------------------------
    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle after ``now`` at which demand scheduling can change
        without a queue mutation (``None``: never).

        Mirrors :meth:`_select_from` exactly: for each bank holding queued
        demand in the queue map currently in force (and not quiesced by
        the refresh policy), the command class FR-FCFS would try — column
        hit, precharge, or activate — is frozen along with the queues, so
        only that class's gating deadline is watched, plus the shared-bus
        deadlines and the rank activation windows where an ACTIVATE is
        wanted.  Stale deadlines of untouched banks cannot flip any
        ``can_issue`` outcome the frozen tick evaluated.
        """
        ctl = self.controller
        queues = ctl.queues
        device = ctl.device
        policy = ctl.refresh_policy
        timings = device.timings
        channel = device.channels[ctl.channel_id]
        serve_writes = ctl.drain.should_serve_writes(
            queues.write_count, queues.read_count
        )
        queue_map = queues.writes if serve_writes else queues.reads
        demand_keys = [key for key, queue in queue_map.items() if queue]
        if not demand_keys:
            return None
        candidates = channel.bus_deadlines(now, timings)
        by_rank: dict[int, list[int]] = {}
        for rank_index, bank_index in demand_keys:
            by_rank.setdefault(rank_index, []).append(bank_index)
        for rank_index, bank_indices in by_rank.items():
            rank = channel.ranks[rank_index]
            # Rank-level refresh occupancy gates demand to the rank (and,
            # under SARP, inflates its activation windows).
            if rank.refab_until > now:
                candidates.append(rank.refab_until)
            if rank.pb_refresh_until > now:
                candidates.append(rank.pb_refresh_until)
            need_activate = False
            for bank_index in bank_indices:
                if policy.blocks_demand(now, rank_index, bank_index):
                    continue
                bank = rank.banks[bank_index]
                open_row = bank.open_row
                if open_row is None:
                    need_activate = True
                    if bank.t_act > now:
                        candidates.append(bank.t_act)
                    if bank.refresh_until > now:
                        candidates.append(bank.refresh_until)
                elif self._wants_column(
                    (rank_index, bank_index),
                    open_row,
                    queue_map[(rank_index, bank_index)],
                ):
                    deadline = bank.t_wr if serve_writes else bank.t_rd
                    if deadline > now:
                        candidates.append(deadline)
                else:
                    if bank.t_pre > now:
                        candidates.append(bank.t_pre)
                    if bank.refresh_until > now:
                        candidates.append(bank.refresh_until)
            if need_activate:
                tfaw, _ = device.effective_tfaw_trrd(rank, now)
                if rank.next_act > now:
                    candidates.append(rank.next_act)
                if len(rank.act_history) == rank.act_history.maxlen:
                    deadline = rank.act_history[0] + tfaw
                    if deadline > now:
                        candidates.append(deadline)
        return min(candidates) if candidates else None
