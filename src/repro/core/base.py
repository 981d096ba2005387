"""Base class and shared bookkeeping for refresh policies.

:class:`RefreshPolicy` owns the refresh schedule every mechanism shares.
A policy declares its :attr:`~RefreshPolicy.schedule` — one refresh per
rank every tREFIab (REFab, elastic, AR), one per rank every tREFIpb owed
by the rank's round-robin nominal bank (REFpb, DARP), or none (No REF) —
and the base class staggers the ranks' due cycles, accrues due refreshes
into one signed owed table (:meth:`RefreshPolicy.accrue`), takes issued
ones off it (:meth:`RefreshPolicy._paid`) and reports it through one
accessor, :meth:`RefreshPolicy.refresh_debt`.  A mechanism implements
only its issue decisions: the per-cycle hooks below, its
:meth:`~RefreshPolicy.refresh_candidate_banks`, and, if it postpones
refreshes, the :meth:`~RefreshPolicy._postpones` rule.

A refresh policy is bound to one channel controller and is consulted every
DRAM cycle at two points (see :mod:`repro.controller`):

* :meth:`RefreshPolicy.pre_demand` — before demand scheduling, for refreshes
  that must (or should) take priority over demand requests;
* :meth:`RefreshPolicy.post_demand` — after demand scheduling failed to
  issue anything, for opportunistic refreshes to idle banks.

Policies additionally expose :meth:`RefreshPolicy.blocks_demand`, which the
FR-FCFS scheduler uses to quiesce a rank or bank that a mandatory refresh is
waiting on; this is how refresh interference with demand requests arises in
the baselines and is precisely what DARP/SARP reduce.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Literal, Optional

from repro.config.system import SystemConfig
from repro.dram.commands import Command, CommandType
from repro.stats import StatsStruct


@dataclass
class RefreshStats(StatsStruct):
    """Counters shared by every refresh policy."""

    all_bank_issued: int = 0
    per_bank_issued: int = 0
    postponed: int = 0
    pulled_in: int = 0
    forced: int = 0
    write_mode_refreshes: int = 0


class RefreshPolicy(abc.ABC):
    """Interface every refresh mechanism implements."""

    #: Whether the event kernel may install a frozen sleep window starting
    #: at a tick that *issued* a command.  Safe for policies whose
    #: per-cycle hooks are pure functions of (cycle, queues, refresh debt,
    #: device deadlines): once ``pre_demand`` returned None at the issuing
    #: tick, every action it could take stays illegal until a watched
    #: deadline passes.  Policies with per-cycle internal side effects
    #: (elastic refresh tracks busy-to-idle edges) must leave this False
    #: so issuing ticks are always followed by a full reference tick.
    supports_post_issue_freeze = False

    #: The due schedule the policy owes against: ``"rank"`` owes one
    #: refresh per rank every tREFIab, ``"bank"`` one per rank every
    #: tREFIpb to the rank's round-robin nominal bank, and ``None`` (the
    #: ideal No REF baseline) owes nothing.
    schedule: Optional[Literal["rank", "bank"]] = None
    #: Owed work one due refresh adds to its slot of the owed table.
    due_units = 1

    def __init__(self, config: SystemConfig, channel_id: int):
        self.config = config
        self.channel_id = channel_id
        self.timings = config.dram.timings
        self.refresh_config = config.refresh
        self.organization = config.dram.organization
        self.num_ranks = self.organization.ranks_per_channel
        self.num_banks = self.organization.banks_per_rank
        #: Every bank of a rank: the candidates of a rank-wide refresh,
        #: built once because incremental window installs ask for them.
        self._every_bank = tuple(range(self.num_banks))
        self.stats = RefreshStats()
        self.controller = None
        self._refpb_commands: dict[tuple[int, int], Command] = {}
        per_bank = self.schedule == "bank"
        self._interval = self.timings.tREFIpb if per_bank else self.timings.tREFIab
        #: Slots per rank in the owed table: one per bank on a per-bank
        #: schedule, one for the whole rank otherwise.
        self._slots = self.num_banks if per_bank else 1
        #: Cycle at which each rank next owes a refresh (none unscheduled).
        self._next_due = [
            self._initial_due(self._interval, rank)
            for rank in range(self.num_ranks if self.schedule else 0)
        ]
        #: The slot the next due refresh of each rank is owed by.
        self._nominal = [0] * self.num_ranks
        #: Signed owed work per (rank, slot): due refreshes add to it and
        #: issued ones take from it, so positive counts postponed work and
        #: negative counts pulled-in work.
        self._owed = [[0] * self._slots for _ in range(self.num_ranks)]
        #: Bumped on every change of the owed table; caches key on it.
        self._owed_version = 0

    # -- wiring -------------------------------------------------------------
    def bind(self, controller) -> None:
        """Attach the policy to its channel controller."""
        self.controller = controller

    def enqueue_preserves_window(self, rank: int, bank: int) -> bool:
        """Whether a demand enqueue to (``rank``, ``bank``) can be folded
        into a live frozen window.

        Asked before the request joins its queue.  True when the new
        demand cannot *add* a pre-demand action for this policy: arriving
        requests only make banks (and ranks) non-idle, which removes
        refresh opportunities, so a ``pre_demand`` that was provably idle
        through the window stays idle.  The default ties this to
        :attr:`supports_post_issue_freeze` — per-cycle-stateful policies
        (elastic refresh reacts to idle-counter edges an enqueue resets)
        need the full reference tick a queue-version mismatch forces.
        DARP overrides this: in writeback mode its refresh candidate is
        the bank with the *fewest* queued demands, which an enqueue to
        that bank can move to an issuable one.
        """
        return self.supports_post_issue_freeze

    @property
    def device(self):
        return self.controller.device

    # -- the refresh schedule ------------------------------------------------
    def accrue(self, cycle: int) -> None:
        """Owe every refresh that has fallen due by ``cycle``.

        Called at the top of :meth:`pre_demand`; with nothing due it costs
        one comparison per rank.
        """
        next_due = self._next_due
        for rank in range(len(next_due)):
            while cycle >= next_due[rank]:
                slot = self._nominal[rank]
                self._owed[rank][slot] += self.due_units
                self._owed_version += 1
                if self._postpones(cycle, rank, slot):
                    self.stats.postponed += 1
                self._nominal[rank] = (slot + 1) % self._slots
                next_due[rank] += self._interval

    def _postpones(self, cycle: int, rank: int, slot: int) -> bool:
        """Whether the refresh that just fell due to (``rank``, ``slot``)
        counts as postponed; mechanisms that postpone by rule say so."""
        return False

    def _paid(self, rank: int, slot: int = 0, units: int = 1) -> None:
        """Take an issued refresh (``units`` of owed work) off the table."""
        self._owed[rank][slot] -= units
        self._owed_version += 1

    def refresh_debt(self, rank: int, bank: Optional[int] = None) -> int:
        """Refresh work ``rank`` owes, in :attr:`due_units` per refresh:
        due but not yet issued (positive) or issued ahead of schedule
        (negative).

        ``bank=None`` gives the rank's total.  On a per-bank schedule a
        bank gives that bank's own debt; on a rank-wide one every bank
        owes what its rank owes, since one REFab refreshes them all.
        """
        owed = self._owed[rank]
        if bank is None:
            return sum(owed)
        return owed[bank] if self._slots > 1 else owed[0]

    # -- per-cycle hooks ------------------------------------------------------
    def pre_demand(self, cycle: int) -> Optional[Command]:
        """Refresh-related command to issue *before* demand scheduling."""
        return None

    def post_demand(self, cycle: int) -> Optional[Command]:
        """Refresh command to issue when no demand command was issuable."""
        return None

    def blocks_demand(self, cycle: int, rank: int, bank: int) -> bool:
        """True when demand to (rank, bank) must wait for a pending refresh."""
        return False

    # -- cycle-skipping kernel hooks ----------------------------------------------
    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle after ``now`` at which this policy's behaviour can
        change *on its own* (without any demand-side or device event).

        The base implementation reports the next scheduled refresh
        becoming due.  Policies with additional time-driven triggers
        (elastic refresh's idle threshold, DARP's randomized idle-bank
        scan) override this; device timing-window expiries are covered by
        :meth:`repro.dram.device.DRAMDevice.next_event_cycle` and need not
        be repeated here.  ``None`` means "no self-scheduled event".
        """
        due = self._next_due
        if not due:
            return None
        earliest = min(due)
        return earliest if earliest > now else None

    def next_scheduled_event(self, now: int) -> Optional[int]:
        """The purely time-driven part of :meth:`next_event_cycle`.

        The sleep-window install uses this instead of
        :meth:`next_event_cycle` so a policy whose horizon also reports
        "I could act *right now*" triggers (DARP's idle-bank draw) does
        not force one-cycle windows — those per-cycle draws run as draw
        ticks inside the window instead (see :meth:`wants_draw_ticks`).
        """
        return self.next_event_cycle(now)

    def wants_draw_ticks(self) -> bool:
        """True when every window cycle must run :meth:`post_demand`.

        A policy that consumes randomness on cycles where demand
        scheduling idles (DARP's randomized idle-bank draw, with a pull-in
        budget) says so here at window install; the event kernel then
        runs cheap *draw ticks* that call the real :meth:`post_demand`
        every cycle, keeping the RNG stream bit-identical to the
        reference kernel."""
        return False

    def skip_cycles(self, count: int) -> None:
        """Replay the per-cycle side effects of ``count`` skipped no-op cycles.

        Called by the event kernel after a cycle in which this policy was
        consulted and did nothing, for a span over which its inputs are
        provably frozen.  The deterministic policies accrue due refreshes
        lazily from the cycle number, so they have nothing to replay; DARP
        overrides this to keep its RNG stream bit-identical.
        """

    def refresh_candidate_banks(self, rank: int) -> tuple[int, ...]:
        """Banks of ``rank`` this policy may try to act on *right now*.

        The event kernel watches the timing deadlines of exactly these
        banks (plus every bank with queued demand) while a controller
        sleeps: a pending refresh that is currently illegal can only
        become issuable when one of its target banks' windows expires.
        Policies with no owed refresh work return an empty tuple, letting
        the controller ignore stale bank deadlines entirely.  Incremental
        window installs ask again for the rank of every bank a fast issue
        or an enqueue touched, so the set may follow the demand queues
        (DARP's owed idle banks do).  The base implementation is
        maximally conservative.
        """
        return self._every_bank

    # -- reporting ---------------------------------------------------------------
    def stats_dict(self) -> dict:
        return self.stats.as_dict()

    # -- command construction helpers ----------------------------------------------
    def _all_bank_command(self, rank: int) -> Command:
        return Command(kind=CommandType.REFAB, channel=self.channel_id, rank=rank)

    def _per_bank_command(self, rank: int, bank: int) -> Command:
        # Per-bank refresh commands are immutable once built (nothing sets
        # issue-time fields on REFPB, and the tracer copies fields out), so
        # one command per (rank, bank) is built lazily and reused across
        # every probe and issue.  All-bank commands are NOT cached: the
        # adaptive policy sets a per-issue ``duration`` on them.
        key = (rank, bank)
        command = self._refpb_commands.get(key)
        if command is None:
            command = Command(
                kind=CommandType.REFPB, channel=self.channel_id, rank=rank, bank=bank
            )
            self._refpb_commands[key] = command
        return command

    def _precharge_for_refresh(
        self, cycle: int, rank: int, bank: Optional[int] = None
    ) -> Optional[Command]:
        """Return a legal precharge that clears the way for a pending refresh.

        All-bank refresh requires every bank of the rank to be precharged;
        per-bank refresh only requires its target bank to be precharged.
        Returns None when nothing can (or needs to) be precharged yet.
        """
        device = self.device
        rank_obj = device.rank(self.channel_id, rank)
        banks = rank_obj.banks if bank is None else [rank_obj.banks[bank]]
        for bank_obj in banks:
            if bank_obj.open_row is None:
                continue
            command = Command(
                kind=CommandType.PRE,
                channel=self.channel_id,
                rank=rank,
                bank=bank_obj.index,
            )
            if device.can_issue(command, cycle):
                return command
        return None

    # -- schedule staggering ------------------------------------------------------
    def _initial_due(self, interval: int, rank: int) -> int:
        """Stagger the first refresh of each rank across the interval.

        Refreshing both ranks of a channel at the same instant would
        needlessly serialize their unavailability windows; real controllers
        stagger refreshes across ranks, and so do we.
        """
        if self.num_ranks <= 1:
            return interval
        return interval * (rank + 1) // self.num_ranks
