"""DRAM channel model: ranks sharing a command bus and half-duplex data bus.

The channel arbitrates the shared data bus: each column command occupies the
bus for a burst of ``tBL`` cycles after its CAS latency, and switching the
bus direction costs the tWTR (write-to-read) or tRTW (read-to-write)
turnaround penalty.  The write-batching behaviour the paper's DARP
mechanism exploits exists precisely to amortize this turnaround cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.rank import Rank
from repro.stats import StatsStruct


@dataclass
class ChannelStats(StatsStruct):
    """Measurement counters owned by one channel.

    Owning the counters (instead of spreading bare attributes over the
    channel) lets the simulator's warmup reset call a single
    :meth:`reset` (field-driven, so new counters added here can never be
    silently missed by the measurement-window reset).
    """

    read_bursts: int = 0
    write_bursts: int = 0
    busy_cycles: int = 0


@dataclass
class Channel:
    """State of a single DRAM channel."""

    index: int
    ranks: list[Rank]

    #: Cycle until which the data bus is occupied by a burst.
    bus_busy_until: int = 0
    #: End cycle of the most recent read data burst.
    last_read_burst_end: int = -(10**9)
    #: End cycle of the most recent write data burst.
    last_write_burst_end: int = -(10**9)

    #: Measurement counters (reset together at the end of warmup).
    stats: ChannelStats = field(default_factory=ChannelStats)

    def rank(self, index: int) -> Rank:
        return self.ranks[index]

    # -- statistics accessors (kept for call-site brevity) ------------------
    @property
    def read_bursts(self) -> int:
        return self.stats.read_bursts

    @property
    def write_bursts(self) -> int:
        return self.stats.write_bursts

    @property
    def busy_cycles(self) -> int:
        return self.stats.busy_cycles

    # -- data-bus arbitration ----------------------------------------------
    def can_read_burst(self, command_cycle: int, timings) -> bool:
        """Check that a read issued at ``command_cycle`` can use the bus."""
        burst_start = command_cycle + timings.tCL
        if burst_start < self.bus_busy_until:
            return False
        # Write-to-read turnaround: the read burst must not start before the
        # previous write burst has cleared the bus by tWTR cycles.
        if burst_start < self.last_write_burst_end + timings.tWTR:
            return False
        return True

    def can_write_burst(self, command_cycle: int, timings) -> bool:
        """Check that a write issued at ``command_cycle`` can use the bus."""
        burst_start = command_cycle + timings.tCWL
        if burst_start < self.bus_busy_until:
            return False
        # Read-to-write turnaround.
        if burst_start < self.last_read_burst_end + timings.tRTW:
            return False
        return True

    def occupy_read_burst(self, command_cycle: int, timings) -> int:
        """Reserve the bus for a read burst; returns the burst end cycle."""
        burst_start = command_cycle + timings.tCL
        burst_end = burst_start + timings.tBL
        self.bus_busy_until = burst_end
        self.last_read_burst_end = burst_end
        self.stats.read_bursts += 1
        self.stats.busy_cycles += timings.tBL
        return burst_end

    def occupy_write_burst(self, command_cycle: int, timings) -> int:
        """Reserve the bus for a write burst; returns the burst end cycle."""
        burst_start = command_cycle + timings.tCWL
        burst_end = burst_start + timings.tBL
        self.bus_busy_until = burst_end
        self.last_write_burst_end = burst_end
        self.stats.write_bursts += 1
        self.stats.busy_cycles += timings.tBL
        return burst_end

    def tick(self, cycle: int) -> None:
        """Advance per-cycle rank bookkeeping."""
        for rank in self.ranks:
            rank.tick(cycle)

    # -- event horizon (cycle-skipping kernel) -----------------------------
    def bus_deadlines(self, now: int, timings) -> list[int]:
        """Command-cycle deadlines after ``now`` at which a blocked burst
        can clear one of the bus constraints.

        A column command issued at cycle ``c`` reaches the bus ``tCL`` (or
        ``tCWL``) cycles later, so the first command cycle clearing a bus
        constraint is that constraint's bus deadline minus the command
        type's CAS latency.  Reads and writes see different latencies, so
        both exact deadlines are listed per constraint — a merged bound
        would be either unsound (too late for one type) or could fall
        into the past and be filtered while the other type's true flip is
        still ahead.  Single source of truth for this arithmetic: the
        scheduler's demand horizon uses it too.
        """
        return [
            deadline
            for deadline in (
                self.bus_busy_until - timings.tCL,
                self.bus_busy_until - timings.tCWL,
                self.last_write_burst_end + timings.tWTR - timings.tCL,
                self.last_read_burst_end + timings.tRTW - timings.tCWL,
            )
            if deadline > now
        ]

    def next_event_cycle(self, now: int, timings, tfaw_of_rank) -> "int | None":
        """Earliest cycle after ``now`` at which channel state can change:
        the bus deadlines plus every rank's timing windows.

        ``tfaw_of_rank`` maps ``(rank, now)`` to the tFAW window *currently
        in force* (the device passes its bound accessor, which returns the
        SARP-inflated value while the rank refreshes).
        """
        candidates = self.bus_deadlines(now, timings)
        for rank in self.ranks:
            rank_event = rank.next_event_cycle(now, tfaw_of_rank(rank, now))
            if rank_event is not None:
                candidates.append(rank_event)
        return min(candidates) if candidates else None

    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of cycles the data bus carried a burst."""
        if elapsed_cycles <= 0:
            return 0.0
        return self.stats.busy_cycles / elapsed_cycles
