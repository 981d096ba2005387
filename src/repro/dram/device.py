"""The DRAM device: command legality checking and state updates.

The device owns the channel/rank/bank hierarchy and exposes two operations
to the memory controller: :meth:`DRAMDevice.can_issue` (is this command
legal right now, given every timing constraint?) and
:meth:`DRAMDevice.issue` (apply the command's effects and report when it
completes).  The SARP modifications of Section 4.3 are implemented here:

* an ACTIVATE to a refreshing bank is legal if (and only if) SARP is
  enabled and the target row lies in a subarray other than the one being
  refreshed;
* while a refresh is in progress in a rank, SARP inflates tFAW and tRRD by
  the power-overhead factor of Equation (1) (2.1x for all-bank refresh,
  13.8 % for per-bank refresh).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.dram_config import DRAMConfig
from repro.dram.bank import Bank
from repro.dram.channel import Channel
from repro.dram.commands import Command, CommandType
from repro.dram.power_integrity import scaled_tfaw_trrd
from repro.dram.rank import Rank
from repro.stats import StatsStruct


@dataclass
class DeviceStats(StatsStruct):
    """Aggregate command counts for the whole device."""

    activates: int = 0
    reads: int = 0
    writes: int = 0
    precharges: int = 0
    all_bank_refreshes: int = 0
    per_bank_refreshes: int = 0
    #: Accesses that found their target subarray under refresh (SARP metric).
    subarray_conflicts: int = 0


class DRAMDevice:
    """Cycle-level DRAM device honoring DDR3 timing constraints."""

    def __init__(self, config: DRAMConfig, sarp_enabled: bool = False):
        self.config = config
        self.timings = config.timings
        self.organization = config.organization
        self.sarp_enabled = sarp_enabled
        #: Activation-window limits, precomputed per refresh context: the
        #: base JEDEC pair and the two SARP-inflated variants (Equations
        #: 2/3 are pure functions of the config, so the hot legality and
        #: horizon paths just pick the pair in force).
        self._base_tfaw_trrd = (config.timings.tFAW, config.timings.tRRD)
        self._sarp_tfaw_trrd = {
            all_bank: scaled_tfaw_trrd(
                config.timings.tFAW, config.timings.tRRD, all_bank
            )
            for all_bank in (False, True)
        }
        self.stats = DeviceStats()
        #: Optional :class:`~repro.obs.trace.CommandTracer`, installed by
        #: :class:`~repro.controller.memory_controller.MemorySystem` so
        #: SARP conflict accounting can be traced; ``None`` when off.
        self.tracer = None
        self.channels: list[Channel] = []
        org = config.organization
        for ch in range(org.channels):
            ranks = []
            for rk in range(org.ranks_per_channel):
                banks = [
                    Bank(
                        index=bk,
                        rows=org.rows_per_bank,
                        subarrays_per_bank=org.subarrays_per_bank,
                        rows_per_refresh=config.rows_per_refresh,
                    )
                    for bk in range(org.banks_per_rank)
                ]
                ranks.append(Rank(index=rk, banks=banks))
            self.channels.append(Channel(index=ch, ranks=ranks))

    # -- hierarchy accessors -----------------------------------------------
    def channel(self, index: int) -> Channel:
        return self.channels[index]

    def rank(self, channel: int, rank: int) -> Rank:
        return self.channels[channel].ranks[rank]

    def bank(self, channel: int, rank: int, bank: int) -> Bank:
        return self.channels[channel].ranks[rank].banks[bank]

    def iter_banks(self):
        """Yield (channel_index, rank_index, bank_index, bank) tuples."""
        for channel in self.channels:
            for rank in channel.ranks:
                for bank in rank.banks:
                    yield channel.index, rank.index, bank.index, bank

    # -- per-cycle maintenance ----------------------------------------------
    def tick(self, cycle: int) -> None:
        """Clear expired refresh markers."""
        for channel in self.channels:
            channel.tick(cycle)

    # -- event horizon (cycle-skipping kernel) --------------------------------
    def next_event_cycle(self, now: int) -> "int | None":
        """Earliest cycle after ``now`` at which any timing window expires.

        With the demand queues frozen (no command issued, no request
        enqueued or retired), every ``can_issue`` outcome is a monotone
        function of the cycle number that can only flip when one of the
        bank/rank/channel timing deadlines passes.  The minimum over
        those deadlines therefore bounds how far the event kernel may
        advance in one jump without missing a state change.  Each channel
        walks its own ranks and banks, with the tFAW window in force per
        rank (SARP inflates it while the rank refreshes).  This is the
        reference horizon the tests check the wake calendar against; the
        event kernel itself never calls it.
        """
        events = [
            channel.next_event_cycle(now, self.timings, self.tfaw_in_force)
            for channel in self.channels
        ]
        return min((event for event in events if event is not None), default=None)

    # -- effective activation-rate limits ------------------------------------
    def effective_tfaw_trrd(self, rank: Rank, cycle: int) -> tuple[int, int]:
        """tFAW/tRRD in force at ``cycle``, inflated under SARP while a
        refresh runs in ``rank``.

        Public single owner of the SARP activation-window inflation: the
        scheduler's demand horizon and the device's own legality checks
        must agree on the window in force, so both call this accessor.
        """
        if self.sarp_enabled and rank.is_refreshing(cycle):
            return self._sarp_tfaw_trrd[rank.is_under_all_bank_refresh(cycle)]
        return self._base_tfaw_trrd

    def tfaw_in_force(self, rank: Rank, cycle: int) -> int:
        """Just the tFAW half of :meth:`effective_tfaw_trrd` (horizon walks)."""
        return self.effective_tfaw_trrd(rank, cycle)[0]

    # -- legality -------------------------------------------------------------
    def can_issue(self, command: Command, cycle: int) -> bool:
        """Return True when ``command`` satisfies every timing constraint."""
        kind = command.kind
        channel = self.channels[command.channel]
        rank = channel.ranks[command.rank]
        timings = self.timings

        if kind is CommandType.ACT:
            bank = rank.banks[command.bank]
            if bank.open_row is not None:
                return False
            if cycle < bank.t_act:
                return False
            # Refresh interactions.
            if rank.is_under_all_bank_refresh(cycle):
                if not self.sarp_enabled:
                    return False
                if bank.refresh_conflicts_with(cycle, command.row):
                    return False
            if bank.is_refreshing(cycle):
                if not self.sarp_enabled:
                    return False
                if bank.refresh_conflicts_with(cycle, command.row):
                    return False
            tfaw, trrd = self.effective_tfaw_trrd(rank, cycle)
            return rank.can_activate(cycle, trrd, tfaw)

        if kind.is_column:
            bank = rank.banks[command.bank]
            if bank.open_row is None or bank.open_row != command.row:
                return False
            if kind.is_read:
                if cycle < bank.t_rd:
                    return False
                return channel.can_read_burst(cycle, timings)
            if cycle < bank.t_wr:
                return False
            return channel.can_write_burst(cycle, timings)

        if kind is CommandType.PRE:
            bank = rank.banks[command.bank]
            if bank.open_row is None:
                return False
            if bank.is_refreshing(cycle) and not self.sarp_enabled:
                return False
            return cycle >= bank.t_pre

        if kind is CommandType.REFPB:
            bank = rank.banks[command.bank]
            if bank.open_row is not None:
                return False
            if bank.is_refreshing(cycle):
                return False
            if rank.is_under_all_bank_refresh(cycle):
                return False
            # The LPDDR standard disallows overlapping REFpb within a rank.
            if rank.is_under_per_bank_refresh(cycle):
                return False
            return cycle >= bank.t_act

        if kind is CommandType.REFAB:
            if rank.is_refreshing(cycle):
                return False
            if not rank.all_banks_precharged(cycle):
                return False
            return all(cycle >= bank.t_act for bank in rank.banks)

        raise ValueError(f"unknown command type {kind!r}")

    # -- issue ------------------------------------------------------------------
    def issue(self, command: Command, cycle: int) -> int:
        """Apply ``command`` and return its completion cycle.

        For column commands the completion cycle is the end of the data
        burst (data available for reads, data written for writes); for other
        commands it is the cycle at which their latency expires.
        """
        if not self.can_issue(command, cycle):
            raise ValueError(f"illegal command at cycle {cycle}: {command!r}")
        kind = command.kind
        channel = self.channels[command.channel]
        rank = channel.ranks[command.rank]
        timings = self.timings

        if kind is CommandType.ACT:
            bank = rank.banks[command.bank]
            tfaw, trrd = self.effective_tfaw_trrd(rank, cycle)
            bank.do_activate(cycle, command.row, timings)
            rank.record_activate(cycle, trrd)
            self.stats.activates += 1
            return cycle + timings.tRCD

        if kind.is_read:
            bank = rank.banks[command.bank]
            burst_end = channel.occupy_read_burst(cycle, timings)
            bank.do_read(cycle, timings, autoprecharge=kind.autoprecharges)
            self.stats.reads += 1
            return burst_end

        if kind.is_write:
            bank = rank.banks[command.bank]
            burst_end = channel.occupy_write_burst(cycle, timings)
            bank.do_write(cycle, timings, autoprecharge=kind.autoprecharges)
            self.stats.writes += 1
            return burst_end

        if kind is CommandType.PRE:
            bank = rank.banks[command.bank]
            bank.do_precharge(cycle, timings)
            self.stats.precharges += 1
            return cycle + timings.tRP

        if kind is CommandType.REFPB:
            duration = command.duration or timings.tRFCpb
            rank.start_per_bank_refresh(
                cycle, command.bank, duration, self.sarp_enabled
            )
            self.stats.per_bank_refreshes += 1
            return cycle + duration

        if kind is CommandType.REFAB:
            duration = command.duration or timings.tRFCab
            rank.start_all_bank_refresh(cycle, duration, self.sarp_enabled)
            self.stats.all_bank_refreshes += 1
            return cycle + duration

        raise ValueError(f"unknown command type {kind!r}")

    # -- SARP helpers ------------------------------------------------------------
    def record_subarray_conflict(self, command: Command, count: int = 1) -> None:
        """Record that a demand access was blocked by a refreshing subarray.

        ``count`` lets the event kernel account a whole span of skipped
        cycles at once: a conflict that held during an idle cycle holds
        identically for every cycle of the skipped span.
        """
        bank = self.bank(command.channel, command.rank, command.bank)
        bank.record_subarray_conflict(command.row, count)
        self.stats.subarray_conflicts += count
        if self.tracer is not None:
            # cycle=-1: conflicts are charged to spans, not instants, and
            # the count rides in the record's ``done`` slot.
            self.tracer.decision(
                "SARP_CONFLICT",
                -1,
                command.channel,
                command.rank,
                command.bank,
                command.row,
                count,
            )

    # -- verification helpers ------------------------------------------------------
    def refresh_counts_per_bank(self) -> dict[tuple[int, int, int], int]:
        """Refresh commands received by every bank (for integrity checks)."""
        return {
            (ch, rk, bk): bank.refreshes
            for ch, rk, bk, bank in self.iter_banks()
        }
