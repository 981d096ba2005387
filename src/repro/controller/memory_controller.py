"""Channel controllers and the memory system front end.

The :class:`MemorySystem` is the interface the processor side uses: it maps
physical addresses to DRAM locations, enqueues requests into the owning
channel controller, advances all controllers each DRAM cycle, and returns
completed read requests so cores can wake up their pending loads.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import repro.obs.profile as obs_profile
from repro.config.system import SystemConfig
from repro.controller.calendar import WakeCalendar
from repro.controller.policies import create_scheduler
from repro.controller.policies.frfcfs import WIN_ACT, WIN_COL
from repro.controller.queues import RequestQueues
from repro.controller.request import MemRequest
from repro.controller.write_drain import WriteDrainState
from repro.dram.address import AddressMapper
from repro.dram.commands import Command, CommandType
from repro.dram.device import DRAMDevice
from repro.stats import StatsStruct, WeightedAverage


@dataclass
class ControllerStats(StatsStruct):
    """Per-channel service statistics.

    Merging across channels goes through :meth:`merge_dicts`: the latency
    counters merge as raw totals and the average latencies (:attr:`RATIOS`)
    are recomputed from the merged totals — a weighted average by
    construction, never a sum of per-channel averages.
    """

    RATIOS = (
        WeightedAverage("average_read_latency", "total_read_latency", "served_reads"),
        WeightedAverage(
            "average_write_latency", "total_write_latency", "served_writes"
        ),
    )

    served_reads: int = 0
    served_writes: int = 0
    total_read_latency: int = 0
    total_write_latency: int = 0
    issued_commands: int = 0
    rejected_enqueues: int = 0

    @property
    def average_read_latency(self) -> float:
        return self.RATIOS[0].of(self)

    @property
    def average_write_latency(self) -> float:
        return self.RATIOS[1].of(self)


class ChannelController:
    """Memory controller for one DRAM channel."""

    def __init__(
        self,
        channel_id: int,
        config: SystemConfig,
        device: DRAMDevice,
        refresh_policy,
        tracer=None,
    ):
        self.channel_id = channel_id
        self.config = config
        self.device = device
        #: Optional :class:`~repro.obs.trace.CommandTracer`.  ``None`` when
        #: tracing is off, so the hot-path cost is one identity check.
        self.tracer = tracer
        org = config.dram.organization
        bank_keys = [
            (rank, bank)
            for rank in range(org.ranks_per_channel)
            for bank in range(org.banks_per_rank)
        ]
        self.queues = RequestQueues(
            config.controller.read_queue_entries,
            config.controller.write_queue_entries,
            bank_keys,
        )
        self.drain = WriteDrainState(config.controller)
        self.scheduler = create_scheduler(config.controller.scheduler, self)
        self.refresh_policy = refresh_policy
        self.refresh_policy.bind(self)
        self.stats = ControllerStats()
        self._pending_reads: list[tuple[int, int, MemRequest]] = []
        #: True when the most recent :meth:`tick` issued a DRAM command.
        #: The event kernel uses it to detect system-wide no-op cycles.
        self.last_tick_issued = False
        #: Retirement counters for read/write requests.  Cores blocked on a
        #: full queue sleep until the matching counter changes (queue space
        #: can appear in no other way).
        self.read_retires = 0
        self.write_retires = 0
        #: Event-kernel scheduling cache: cycles strictly below
        #: ``_sleep_until`` are provably scheduling no-ops as long as the
        #: request queues keep ``_sleep_queue_version``.  ``None`` means
        #: "no self-scheduled event at all"; 0 means "not cached".
        self._sleep_until: Optional[int] = 0
        self._sleep_queue_version = -1
        #: When the frozen window expires exactly at a *demand* ready cycle
        #: — strictly before every policy/refresh deadline it is clamped by
        #: — the expiry tick is a fast issue: ``select``'s outcome is the
        #: first schedule entry whose ready cycle has passed, so the full
        #: pre-demand/FR-FCFS/post-demand scan is skipped.  ``None`` means
        #: the window expiry needs a reference tick.
        self._demand_wake: Optional[int] = None
        #: Refresh-walk state cached across incremental installs (policy
        #: state and untouched-bank deadlines are frozen over a licensed
        #: span): candidate banks per rank, the per-bank deadline minima,
        #: and the rank-level refresh-occupancy minimum.
        self._walk_banks: list = []
        self._walk_map: dict = {}
        self._walk_rank_min: Optional[int] = None
        #: Policy schedule cached across incremental installs: the license
        #: keeps every wake strictly below the policy's next event, so the
        #: value computed at the last full install is still exact.
        self._policy_event: Optional[int] = None
        #: In-window enqueues are *deferred*: the touched bank keys are
        #: batched here and folded into the window in one incremental
        #: install at the top of the next tick (the very next cycle — the
        #: skip horizon is pinned while a batch is pending), so a burst of
        #: same-cycle enqueues re-evaluates the window once, not per core.
        self._dirty_keys: Optional[list] = None
        self._dirty_version = -1
        #: Wake calendar shared across the memory system (bound by
        #: :class:`MemorySystem`); every event tick ends by posting this
        #: controller's wake-up cycle so :meth:`MemorySystem
        #: .next_skip_event` answers in O(1) instead of rescanning.
        self.calendar = None
        #: While True, window cycles are *draw ticks*: the refresh policy
        #: consumes randomness (and may issue) every cycle, so the fast
        #: path must call its real ``post_demand`` instead of skipping it.
        self._draw_mode = False
        #: Which hook issued the last tick's command ("pre" / "demand" /
        #: "post" / None); pre-demand issues block window installation
        #: because ``pre_demand`` may act again next cycle ungated (its
        #: early return leaves later options untried this cycle).
        self._issue_source: Optional[str] = None

    # -- request intake -----------------------------------------------------
    def can_accept(self, is_write: bool) -> bool:
        if is_write:
            return not self.queues.write_full()
        return not self.queues.read_full()

    def enqueue(self, request: MemRequest) -> bool:
        """Enqueue a request; returns False (and drops it) if the queue is full."""
        queues = self.queues
        if not queues.can_accept(request):
            self.stats.rejected_enqueues += 1
            return False
        version = queues.version
        live = (
            self._sleep_until != 0
            and (
                version == self._sleep_queue_version
                or (self._dirty_keys is not None and version == self._dirty_version)
            )
            and self.refresh_policy.enqueue_preserves_window(*request.bank_key)
        )
        queues.enqueue(request)
        if self.calendar is not None:
            # The cached wake no longer covers the new request; forbid
            # whole-system skips until the next tick re-posts.
            self.calendar.pin(self.channel_id)
        if live:
            self._enqueue_update(request)
        else:
            self._dirty_keys = None
        return True

    def _enqueue_update(self, request: MemRequest) -> None:
        """Fold an in-window enqueue into the frozen window incrementally.

        An enqueue only touches one bank's demand queue; when the policy
        certified, before the request joined the queue, that it cannot
        *add* pre-demand options (:meth:`RefreshPolicy
        .enqueue_preserves_window` — demand arriving can only make banks
        non-idle, removing refresh opportunities), the rest of the
        frozen-window proof still holds, so the new request is spliced
        into the persistent candidate set and the window re-evaluated in
        place of the reference tick the version mismatch would otherwise
        force.  One extra guard mirrors the post-issue install: the
        write-drain state must remain at a fixed point with the new
        occupancy.  Declining is always sound — the version mismatch then
        falls back to a full reference tick.

        The splice itself is *deferred*: the bank key joins
        :attr:`_dirty_keys` and the batch is drained in one incremental
        install at the top of the next tick, which is always the very
        next cycle (cores only enqueue on cycles they are active, and
        :meth:`skip_horizon` pins the horizon while a batch is pending),
        so same-cycle enqueues from several cores cost one window
        evaluation instead of one each.
        """
        occupancy = self.queues.write_count
        cfg = self.config.controller
        if self.drain.in_drain:
            if occupancy <= cfg.write_low_watermark:
                self._dirty_keys = None
                return
        elif occupancy >= cfg.write_high_watermark:
            self._dirty_keys = None
            return
        keys = self._dirty_keys
        if keys is None:
            self._dirty_keys = [request.bank_key]
        else:
            keys.append(request.bank_key)
        self._dirty_version = self.queues.version

    # -- state queries used by refresh policies ------------------------------
    @property
    def in_writeback_mode(self) -> bool:
        return self.drain.in_drain

    def demand_count(self, rank: int, bank: int) -> int:
        return self.queues.demand_count((rank, bank))

    def rank_demand_count(self, rank: int) -> int:
        return self.queues.rank_demand_count(rank)

    # -- per-cycle operation ---------------------------------------------------
    def tick(self, cycle: int) -> list[MemRequest]:
        """Advance one DRAM cycle; returns reads whose data arrived."""
        completed = self._pop_completed_reads(cycle)
        self.drain.update(self.queues.write_count, self.queues.read_count)
        self.last_tick_issued = True

        command = self.refresh_policy.pre_demand(cycle)
        if command is not None:
            self._issue_source = "pre"
            self._issue(command, cycle)
            return completed

        selection = self.scheduler.select(cycle)
        if selection is not None:
            command, request = selection
            self._issue_source = "demand"
            done = self._issue(command, cycle)
            if command.kind.is_column and request is not None:
                self._retire_request(request, done)
            return completed

        command = self.refresh_policy.post_demand(cycle)
        if command is not None:
            self._issue_source = "post"
            self._issue(command, cycle)
            return completed
        self._issue_source = None
        self.last_tick_issued = False
        return completed

    # -- internals ----------------------------------------------------------------
    def _issue(self, command: Command, cycle: int) -> int:
        done = self.device.issue(command, cycle)
        self.stats.issued_commands += 1
        if self.tracer is not None:
            self.tracer.command(command, cycle, done)
        return done

    def _retire_request(self, request: MemRequest, completion_cycle: int) -> None:
        self.queues.remove(request)
        request.completion_cycle = completion_cycle
        if request.is_write:
            self.stats.served_writes += 1
            self.write_retires += 1
            self.stats.total_write_latency += completion_cycle - request.arrival_cycle
        else:
            self.stats.served_reads += 1
            self.read_retires += 1
            self.stats.total_read_latency += completion_cycle - request.arrival_cycle
            heapq.heappush(
                self._pending_reads,
                (completion_cycle, request.request_id, request),
            )

    def _pop_completed_reads(self, cycle: int) -> list[MemRequest]:
        completed = []
        while self._pending_reads and self._pending_reads[0][0] <= cycle:
            _, _, request = heapq.heappop(self._pending_reads)
            completed.append(request)
        return completed

    def has_outstanding_work(self) -> bool:
        """True while any request is queued or awaiting completion."""
        return bool(self.queues.total_demand() or self._pending_reads)

    # -- cycle-skipping kernel support ------------------------------------------
    def tick_event(self, cycle: int) -> list[MemRequest]:
        """Event-kernel tick: identical behaviour to :meth:`tick`, faster.

        While a frozen *sleep window* holds, scheduling is a pure function
        of the cycle number: the fast path skips the whole pre-demand /
        FR-FCFS / post-demand scan and replays only the per-cycle side
        effects the full tick would have produced (data arrivals, the
        writeback-mode cycle counter, re-recorded SARP conflicts); in draw
        mode it additionally runs the refresh policy's real randomized
        draw each cycle.  A window is installed after *every* full tick —
        including issuing ones, where the scheduler's exact
        :meth:`~repro.controller.policies.frfcfs.FRFCFSScheduler.demand_window`
        proves readiness from the post-issue deadlines — unless a guard in
        :meth:`_install_window` forbids it.  :meth:`tick` itself is left
        untouched so the cycle kernel remains an independent reference for
        the differential suite.
        """
        keys = self._dirty_keys
        if keys is not None:
            # Drain the deferred enqueue batch: one incremental install
            # covers every enqueue since the last tick (always last
            # cycle's — the skip horizon is pinned while a batch waits),
            # re-synchronising the window with the queue version.
            self._dirty_keys = None
            if self.queues.version == self._dirty_version:
                self._compute_window(cycle - 1, dirty=keys)
        if self.queues.version == self._sleep_queue_version:
            sleep_until = self._sleep_until
            if sleep_until is None or cycle < sleep_until:
                if self._draw_mode:
                    return self._draw_tick(cycle)
                pending = self._pending_reads
                completed = (
                    self._pop_completed_reads(cycle)
                    if pending and pending[0][0] <= cycle
                    else []
                )
                drain = self.drain
                if drain.in_drain:
                    drain.skip_cycles(self.queues.write_count, 1)
                conflicts = self.scheduler.last_conflicts
                if conflicts:
                    for command in conflicts:
                        self.device.record_subarray_conflict(command)
                self.last_tick_issued = False
                self._post_wake()
                return completed
            if cycle == self._demand_wake:
                return self._fast_issue_tick(cycle)
        completed = self.tick(cycle)
        self._install_window(cycle)
        self._post_wake()
        return completed

    def _post_wake(self) -> None:
        """Post this controller's wake-up cycle to the shared calendar.

        Runs at the end of every event tick, so the calendar is always
        fresh when the kernel queries it (queries only happen on cycles
        where every tick was a no-op).  A controller that cannot promise
        a horizon — draw mode, a pending enqueue batch, an uncached
        window — pins the calendar instead, forcing single-cycle steps.
        """
        calendar = self.calendar
        if calendar is None:
            return
        if (
            self._draw_mode
            or self._sleep_until == 0
            or self._dirty_keys is not None
            or self.queues.version != self._sleep_queue_version
        ):
            calendar.pin(self.channel_id)
            return
        wake = self._sleep_until
        pending = self._pending_reads
        if pending:
            arrival = pending[0][0]
            if wake is None or arrival < wake:
                wake = arrival
        calendar.post(self.channel_id, wake)

    def _fast_issue_tick(self, cycle: int) -> list[MemRequest]:
        """Window expiry at a licensed demand-ready cycle: issue directly.

        The frozen window proved every scheduling hook idle through the
        window, the expiry cycle is strictly earlier than every policy /
        refresh-walk / conflict-expiry deadline, and the queues kept their
        version — so at this cycle ``pre_demand`` is still a no-op and
        ``select``'s outcome is fully determined by the stashed schedule:
        the first candidate (in probe order) whose exact ready cycle has
        passed issues, and the failing conflicting activates probed before
        it record their subarray conflicts.  Replaying that outcome from
        :attr:`~repro.controller.policies.base.SchedulerPolicy
        .window_schedule` skips the whole pre-demand / FR-FCFS /
        post-demand scan (``post_demand`` never runs on an issuing tick in
        the reference kernel, so no randomness is consumed even in draw
        mode).
        """
        scheduler = self.scheduler
        winner_pos = -1
        for pos, ready in enumerate(scheduler.window_ready):
            if ready <= cycle:
                winner_pos = pos
                break
        if winner_pos < 0:
            # Defensive: the license guarantees a ready candidate, but a
            # reference tick is always sound.
            completed = self.tick(cycle)
            self._install_window(cycle)
            return completed
        completed = self._pop_completed_reads(cycle)
        self.drain.update(self.queues.write_count, self.queues.read_count)
        conflicts: list[Command] = []
        for pos, expiry, conflict in scheduler.window_conflicts:
            if pos < winner_pos and expiry > cycle:
                self.device.record_subarray_conflict(conflict)
                conflicts.append(conflict)
        scheduler.last_conflicts = conflicts
        entry = scheduler.window_schedule[winner_pos]
        req = entry[2]
        kind = entry[3]
        rank_i = entry[6]
        bank_i = entry[7]
        if kind == WIN_COL:
            command = scheduler._column_command(req, scheduler.window_writes)
        elif kind == WIN_ACT:
            command = Command(
                CommandType.ACT, self.channel_id, rank_i, bank_i, req.row, 0, req
            )
        else:
            command = Command(CommandType.PRE, self.channel_id, rank_i, bank_i)
        scheduler.note_issue(command)
        self._issue_source = "demand"
        self.last_tick_issued = True
        done = self._issue(command, cycle)
        if kind == WIN_COL:
            self._retire_request(req, done)
        self._install_window(cycle, dirty=((rank_i, bank_i),))
        self._post_wake()
        return completed

    def _draw_tick(self, cycle: int) -> list[MemRequest]:
        """Window cycle for a policy that draws randomness every idle cycle.

        The window proves pre-demand and demand scheduling are no-ops, but
        DARP's ``post_demand`` (with a pull-in budget) still draws a
        random pool bank per rank and may issue a refresh; running the
        real hook keeps the RNG stream — and any resulting issue —
        bit-identical to the reference kernel.  An issue ends the frozen
        span exactly like a full issuing tick.
        """
        pending = self._pending_reads
        completed = (
            self._pop_completed_reads(cycle)
            if pending and pending[0][0] <= cycle
            else []
        )
        drain = self.drain
        if drain.in_drain:
            drain.skip_cycles(self.queues.write_count, 1)
        conflicts = self.scheduler.last_conflicts
        if conflicts:
            for command in conflicts:
                self.device.record_subarray_conflict(command)
        command = self.refresh_policy.post_demand(cycle)
        if command is not None:
            self._issue_source = "post"
            self._issue(command, cycle)
            self.last_tick_issued = True
            self._install_window(cycle)
            self._post_wake()
        else:
            self.last_tick_issued = False
        return completed

    def _install_window(self, cycle: int, dirty=None) -> None:
        """Cache the frozen sleep window opening at ``cycle``.

        After a *no-op* tick every window is sound: the tick itself proved
        all scheduling hooks idle, and they stay idle until a watched
        deadline passes.  After an *issuing* tick three extra guards
        apply, each covering a way the issue could enable an action at
        ``cycle + 1`` that no deadline gates:

        * the policy must opt in (:attr:`RefreshPolicy
          .supports_post_issue_freeze`) — per-cycle-stateful policies need
          the reference tick;
        * a pre-demand issue always voids the window: ``pre_demand``
          returned early, so untried options (another forced bank, a
          precharge) may be legal immediately;
        * the write-drain state must be at a fixed point — a retired write
          can put occupancy past a watermark, flipping writeback mode on
          the very next ``update``.
        """
        if self.last_tick_issued:
            if (
                self._issue_source == "pre"
                or not self.refresh_policy.supports_post_issue_freeze
            ):
                self._sleep_until = 0
                self._demand_wake = None
                return
            occupancy = self.queues.write_count
            cfg = self.config.controller
            if self.drain.in_drain:
                if occupancy <= cfg.write_low_watermark:
                    self._sleep_until = 0
                    self._demand_wake = None
                    return
            elif occupancy >= cfg.write_high_watermark:
                self._sleep_until = 0
                self._demand_wake = None
                return
        profiler = obs_profile.ACTIVE
        if profiler is None:
            self._compute_window(cycle, dirty)
            return
        start = perf_counter()
        try:
            self._compute_window(cycle, dirty)
        finally:
            profiler.add("controller.horizon_scan", perf_counter() - start)

    def _compute_window(self, now: int, dirty=None) -> None:
        """Earliest cycle after ``now`` at which this channel's scheduling
        outcome can change without a queue mutation (``None``: never).

        Combines the three sources of self-scheduled change: the refresh
        policy's own schedule, the exact demand window the scheduler
        derives from its frozen candidate set (including the SARP conflict
        set to replay each window cycle), and the timing state of banks
        the policy is currently trying to refresh (their activity windows,
        refresh completions, and — for open banks — the precharge that
        must clear them first).
        """
        policy = self.refresh_policy
        if dirty is None:
            policy_event = policy.next_scheduled_event(now)
            if policy_event is not None and policy_event <= now:
                policy_event = None
            self._policy_event = policy_event
        else:
            # The license placed every wake strictly before the policy's
            # next event, so the value cached at the last full install is
            # still exact (and still strictly in the future).
            policy_event = self._policy_event

        demand_event, conflicts = self.scheduler.demand_window(now, dirty)

        # Refresh candidates need their bank free of activity (t_act,
        # refresh markers) or a precharge first (t_pre); column deadlines
        # can never gate a refresh.  Rank-level refresh occupancy gates
        # the legality of further refreshes in the rank.  Every deadline
        # of an *untouched* bank is frozen across a licensed fast issue or
        # in-window enqueue (``dirty`` set): the license puts the wake
        # strictly before every walked deadline, so none can have passed.
        # Only the dirty bank can join the candidates (a retire can make
        # it idle, or the bank with the fewest demands), so incremental
        # installs re-ask its rank's candidates and refresh only its slot
        # in the cached per-bank walk minima instead of re-walking every
        # bank.  An untouched bank that left the candidates (a demoted
        # Algorithm 1 target) keeps its slot: a watched deadline too many
        # only ends the window early.
        channel = self.device.channels[self.channel_id]
        ranks = channel.ranks
        if dirty is None:
            walk_banks = [
                policy.refresh_candidate_banks(rank_index)
                for rank_index in range(len(ranks))
            ]
            self._walk_banks = walk_banks
            walk_map: dict = {}
            rank_vals = []
            for rank_index, rank in enumerate(ranks):
                refresh_banks = walk_banks[rank_index]
                if not refresh_banks:
                    continue
                if rank.refab_until > now:
                    rank_vals.append(rank.refab_until)
                if rank.pb_refresh_until > now:
                    rank_vals.append(rank.pb_refresh_until)
                banks = rank.banks
                for bank_index in refresh_banks:
                    bank = banks[bank_index]
                    slot = None
                    if bank.t_act > now:
                        slot = bank.t_act
                    until = bank.refresh_until
                    if until > now and (slot is None or until < slot):
                        slot = until
                    if bank.open_row is not None:
                        t_pre = bank.t_pre
                        if t_pre > now and (slot is None or t_pre < slot):
                            slot = t_pre
                    if slot is not None:
                        walk_map[(rank_index, bank_index)] = slot
            self._walk_map = walk_map
            self._walk_rank_min = min(rank_vals) if rank_vals else None
        else:
            walk_map = self._walk_map
            walk_banks = self._walk_banks
            for key in dirty:
                rank_index, bank_index = key
                refresh_banks = policy.refresh_candidate_banks(rank_index)
                if bank_index not in refresh_banks:
                    walk_map.pop(key, None)
                    continue
                rank = ranks[rank_index]
                if not walk_banks[rank_index]:
                    # The rank's first candidate: its refresh occupancy
                    # now gates a refresh, as in a full walk.
                    rank_min = self._walk_rank_min
                    for until in (rank.refab_until, rank.pb_refresh_until):
                        if until > now and (rank_min is None or until < rank_min):
                            rank_min = until
                    self._walk_rank_min = rank_min
                walk_banks[rank_index] = refresh_banks
                bank = rank.banks[bank_index]
                slot = None
                if bank.t_act > now:
                    slot = bank.t_act
                until = bank.refresh_until
                if until > now and (slot is None or until < slot):
                    slot = until
                if bank.open_row is not None:
                    t_pre = bank.t_pre
                    if t_pre > now and (slot is None or t_pre < slot):
                        slot = t_pre
                if slot is not None:
                    walk_map[key] = slot
                else:
                    walk_map.pop(key, None)
        other_min = policy_event
        if walk_map:
            walk_min = min(walk_map.values())
            if other_min is None or walk_min < other_min:
                other_min = walk_min
        rank_min = self._walk_rank_min
        if rank_min is not None and (other_min is None or rank_min < other_min):
            other_min = rank_min

        # Fast-issue license: when the window expires at the demand
        # horizon *strictly before* every policy/refresh deadline and
        # every recorded conflict's expiry, the expiry tick's outcome is
        # fully determined by the stashed schedule (pre-demand provably
        # still idle, conflict replay set unchanged) — provided the policy
        # tolerates post-issue freezing, since the fast issue installs the
        # next window without a reference tick.
        wake = None
        sleep_until = other_min
        if demand_event is not None:
            if sleep_until is None or demand_event < sleep_until:
                sleep_until = demand_event
            scheduler = self.scheduler
            expiry = scheduler.window_conflict_expiry
            if (
                policy.supports_post_issue_freeze
                and scheduler.window_demand_ready is not None
                and (expiry is None or demand_event < expiry)
                and (other_min is None or demand_event < other_min)
            ):
                wake = demand_event
        self._demand_wake = wake
        self._sleep_until = sleep_until
        self._sleep_queue_version = self.queues.version
        self._draw_mode = policy.wants_draw_ticks()
        # The window's conflict set is exactly what a no-op ``select``
        # would record on each window cycle; the fast path and
        # ``skip_idle_cycles`` replay it from here.
        self.scheduler.last_conflicts = conflicts

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle after ``now`` at which this controller's observable
        behaviour can differ from the no-op cycle just executed.

        That is the earliest of: the next pending-read data arrival (which
        wakes a core) and the refresh policy's own horizon (the next
        scheduled refresh becoming due, or a policy-specific trigger such as
        elastic refresh's idle threshold).  Device timing-window expiries
        are accounted separately by :meth:`DRAMDevice.next_event_cycle`;
        :meth:`MemorySystem.next_event_cycle` combines the two into the
        conservative reference horizon.  The event kernel's hot path uses
        the tighter cached horizons (:meth:`_local_next_event` via
        :meth:`MemorySystem.next_skip_event`) instead.
        """
        candidates = []
        if self._pending_reads:
            arrival = self._pending_reads[0][0]
            if arrival > now:
                candidates.append(arrival)
        policy_event = self.refresh_policy.next_event_cycle(now)
        if policy_event is not None and policy_event > now:
            candidates.append(policy_event)
        return min(candidates) if candidates else None

    def skip_idle_cycles(self, count: int) -> None:
        """Account ``count`` skipped cycles after a no-op tick.

        Replays exactly the per-cycle side effects the legacy kernel would
        have produced over the span: the writeback-mode cycle counter, the
        SARP subarray conflicts the scheduler re-records every stalled
        cycle, and any policy-internal accounting (DARP's random idle-bank
        draws).  Everything else is provably frozen until the next event.
        """
        self.drain.skip_cycles(self.queues.write_count, count)
        for command in self.scheduler.last_conflicts:
            self.device.record_subarray_conflict(command, count)
        self.refresh_policy.skip_cycles(count)

    def skip_horizon(self, now: int) -> Optional[int]:
        """Earliest cycle after ``now`` this controller can act again.

        Only valid immediately after a :meth:`tick_event` in which this
        controller issued nothing: the cached local horizon is then fresh
        (or still valid), so the controller's next possible action is the
        earlier of that horizon and its next pending-read data arrival.
        This is the public accessor :meth:`MemorySystem.next_skip_event`
        aggregates; ``None`` means "no self-scheduled event at all".
        """
        if self._draw_mode:
            # Every window cycle consumes randomness (and may issue), so
            # whole-system skipping is off: the kernel must step cycle by
            # cycle through the (cheap) draw ticks.
            return now + 1
        if self._dirty_keys is not None:
            # A deferred enqueue batch is waiting to be folded in at the
            # next tick; the cached horizon does not cover the new
            # request, so pin the skip there.  (Other queue mutations are
            # covered by the calendar pin :meth:`enqueue` posts.)
            return now + 1
        candidates = []
        if self._pending_reads:
            arrival = self._pending_reads[0][0]
            if arrival > now:
                candidates.append(arrival)
        sleep_until = self._sleep_until
        if sleep_until is not None and sleep_until > now:
            candidates.append(sleep_until)
        return min(candidates) if candidates else None


class MemorySystem:
    """The full DRAM memory system: address mapping + all channel controllers."""

    def __init__(self, config: SystemConfig):
        # Imported lazily to keep the substrate (controller) importable
        # without the policy layer and avoid a circular import.
        from repro.core.factory import create_refresh_policy

        self.config = config
        self.mapper = AddressMapper(config.dram.organization)
        self.device = DRAMDevice(
            config.dram, sarp_enabled=config.refresh.mechanism.uses_sarp
        )
        if config.obs.trace:
            from repro.obs.trace import CommandTracer

            self.tracer = CommandTracer(config.obs.trace_buffer)
        else:
            self.tracer = None
        self.device.tracer = self.tracer
        self.controllers = [
            ChannelController(
                channel_id=ch,
                config=config,
                device=self.device,
                refresh_policy=create_refresh_policy(config, ch),
                tracer=self.tracer,
            )
            for ch in range(config.dram.organization.channels)
        ]
        #: True when the most recent :meth:`tick` issued any DRAM command.
        self.last_tick_issued = False
        #: Calendar of controller wake-up cycles: controllers post into it
        #: at the end of every event tick, and :meth:`next_skip_event`
        #: reads the earliest live posting in O(1).
        self.calendar = WakeCalendar(len(self.controllers))
        for controller in self.controllers:
            controller.calendar = self.calendar

    # -- processor-side interface ------------------------------------------------
    def controller_for(self, address: int) -> ChannelController:
        return self.controllers[self.mapper.channel_of(address)]

    def can_accept(self, address: int, is_write: bool) -> bool:
        """Whether the channel owning ``address`` has queue space.

        Reads only the channel bits: the full decode happens once, in
        :meth:`access`.
        """
        return self.controllers[self.mapper.channel_of(address)].can_accept(is_write)

    def access(
        self, address: int, is_write: bool, core_id: int, cycle: int
    ) -> Optional[MemRequest]:
        """Enqueue a request; returns it, or None if the target queue is full."""
        location = self.mapper.decode(address)
        request = MemRequest(address, is_write, location, core_id, cycle)
        if self.controllers[location.channel].enqueue(request):
            return request
        return None

    def tick(self, cycle: int) -> list[MemRequest]:
        """Advance every controller one DRAM cycle; returns completed reads."""
        self.device.tick(cycle)
        completed: list[MemRequest] = []
        issued = False
        for controller in self.controllers:
            completed.extend(controller.tick(cycle))
            issued = issued or controller.last_tick_issued
        self.last_tick_issued = issued
        return completed

    # -- cycle-skipping kernel support ----------------------------------------
    def tick_event(self, cycle: int) -> list[MemRequest]:
        """Event-kernel tick: every controller advances via its fast path.

        The per-cycle device sweep (:meth:`DRAMDevice.tick`) only clears
        expired refresh markers lazily; every reader of those markers
        checks the refresh deadline first, so the sweep can be elided
        entirely without observable effect — the cycle kernel keeps it as
        the reference behaviour.
        """
        completed: list[MemRequest] = []
        issued = False
        for controller in self.controllers:
            completed.extend(controller.tick_event(cycle))
            issued = issued or controller.last_tick_issued
        self.last_tick_issued = issued
        return completed

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle after ``now`` at which any memory-side state can
        change, assuming no processor-side activity in between.

        This is the *conservative reference* horizon — every timing window
        of every bank/rank/channel plus all controller events — kept
        deliberately simple so tests can check the tighter per-controller
        horizons of the hot path against it.
        """
        candidates = []
        device_event = self.device.next_event_cycle(now)
        if device_event is not None:
            candidates.append(device_event)
        for controller in self.controllers:
            controller_event = controller.next_event_cycle(now)
            if controller_event is not None:
                candidates.append(controller_event)
        return min(candidates) if candidates else None

    def next_skip_event(self, now: int) -> Optional[int]:
        """Cheap skip horizon for the event kernel.

        Only valid immediately after a :meth:`tick_event` in which no
        controller issued a command: every controller then has posted a
        fresh wake-up cycle into the shared :class:`WakeCalendar`, so the
        earliest memory event is the calendar's earliest live posting —
        an O(1) read instead of a per-controller rescan.  The scan-based
        :meth:`ChannelController.skip_horizon` remains as the reference
        the differential suite checks the calendar against.
        """
        return self.calendar.earliest(now)

    def scan_skip_event(self, now: int) -> Optional[int]:
        """Reference skip horizon: per-controller scan (no calendar).

        Kept as the slow-but-obviously-correct counterpart of
        :meth:`next_skip_event` for differential tests; the calendar may
        legally be *tighter* pinned (return ``now + 1``) but must never
        promise a later cycle than this scan allows.
        """
        candidates = []
        for controller in self.controllers:
            horizon = controller.skip_horizon(now)
            if horizon is not None:
                candidates.append(horizon)
        return min(candidates) if candidates else None

    def skip_idle_cycles(self, count: int) -> None:
        """Account ``count`` skipped cycles on every channel controller."""
        for controller in self.controllers:
            controller.skip_idle_cycles(count)

    # -- statistics ----------------------------------------------------------------
    def merged_controller_stats(self) -> dict:
        """Cross-channel controller statistics, merged by :class:`ControllerStats`.

        The latency averages come out weighted by served request counts
        (recomputed from the merged raw totals), never summed.
        """
        return ControllerStats.merge_dicts(
            controller.stats.as_dict() for controller in self.controllers
        )

    def total_served(self) -> tuple[int, int]:
        merged = self.merged_controller_stats()
        return merged["served_reads"], merged["served_writes"]

    def refresh_policy_stats(self) -> dict:
        from repro.core.base import RefreshStats

        return RefreshStats.merge_dicts(
            controller.refresh_policy.stats_dict() for controller in self.controllers
        )

    def has_outstanding_work(self) -> bool:
        return any(c.has_outstanding_work() for c in self.controllers)
