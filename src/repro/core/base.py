"""Base class and shared bookkeeping for refresh policies.

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
from typing import Optional

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
        due = getattr(self, "_next_due", None)
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
        provably frozen.  The deterministic policies accumulate due
        refreshes lazily from the cycle number, so they have nothing to
        replay; DARP overrides this to keep its RNG stream bit-identical.
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
