"""Trace-driven core model.

The model is a deliberately simple but faithful abstraction of the paper's
3-wide, 128-entry-window, 8-MSHR cores:

* instructions retire at up to ``issue_width`` per CPU cycle;
* a load that misses the LLC allocates an MSHR and issues a DRAM read; the
  core keeps executing younger instructions until it is
  ``instruction_window`` instructions ahead of the oldest outstanding load
  (stall-on-full-window), or until it runs out of MSHRs;
* stores never stall retirement (writes are not latency critical,
  Section 4.2.2); dirty LLC evictions become DRAM writes, with back
  pressure from a full write queue stalling the core until it drains.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.cache.llc import LastLevelCache
from repro.config.cpu_config import CPUConfig
from repro.controller.request import MemRequest
from repro.stats import StatsStruct, WeightedAverage
from repro.workloads.trace import TraceEntry

#: :meth:`Core.tick` outcome: the core changed no state at all — it is
#: blocked on a memory-side event and will repeat the identical non-cycle
#: until one occurs.  (Falsy, so the return still reads as "did anything
#: change" in boolean context.)
CORE_BLOCKED = 0
#: The tick consisted purely of a full budget of non-memory (gap)
#: instructions: no fetch, no cache access, no writeback.  Such ticks can
#: be replayed in closed form by :meth:`Core.skip_gap_cycles`.
CORE_GAP = 1
#: Anything else: the core touched the memory system, its trace, or its
#: cache, so the next cycle cannot be predicted without executing it.
CORE_ACTIVE = 2


@dataclass
class CoreStats(StatsStruct):
    """Retirement and memory statistics for one core."""

    RATIOS = (
        WeightedAverage("mpki", "dram_reads_issued", "instructions", scale=1000.0),
    )

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    llc_load_misses: int = 0
    dram_reads_issued: int = 0
    dram_writes_issued: int = 0
    stall_cycles: int = 0

    def mpki(self) -> float:
        """DRAM read requests (LLC misses) per thousand instructions."""
        return self.RATIOS[0].of(self)


class Core:
    """One trace-driven core with its private LLC slice."""

    def __init__(
        self,
        core_id: int,
        config: CPUConfig,
        trace: Iterator[TraceEntry],
        llc: LastLevelCache,
        memory,
        address_offset: int = 0,
    ):
        self.core_id = core_id
        self.config = config
        self.trace = trace
        self.llc = llc
        self.memory = memory
        self.address_offset = address_offset
        self.stats = CoreStats()
        #: Instructions one tick may retire (a config property, read once).
        self._budget = config.insts_per_dram_cycle

        #: Outstanding DRAM loads: (instruction sequence number, request).
        self._pending_loads: deque[tuple[int, MemRequest]] = deque()
        self._pending_requests: dict[int, int] = {}
        #: Dirty eviction waiting for write-queue space.
        self._pending_writeback: Optional[int] = None
        #: Remaining non-memory instructions before the current trace entry.
        self._gap_remaining = 0
        self._current_entry: Optional[TraceEntry] = None
        self._executed_seq = 0
        #: Why the most recent :data:`CORE_BLOCKED` tick stalled:
        #: ``("completion",)`` — waiting for one of this core's own DRAM
        #: reads (window full, MSHRs exhausted, or a dependent load);
        #: ``("read_queue", ch)`` / ``("write_queue", ch)`` — waiting for
        #: space in channel ``ch``'s queue.  The event kernel sleeps the
        #: core until exactly that wake-up.
        self.block_reason: Optional[tuple] = None

    # -- memory completion ------------------------------------------------
    def complete_load(self, request: MemRequest) -> None:
        """Wake up the pending load served by ``request``."""
        if request.request_id not in self._pending_requests:
            return
        del self._pending_requests[request.request_id]
        self._pending_loads = deque(
            (seq, req)
            for seq, req in self._pending_loads
            if req.request_id != request.request_id
        )

    def outstanding_loads(self) -> int:
        return len(self._pending_loads)

    # -- execution ----------------------------------------------------------
    def tick(self, cycle: int) -> int:
        """Execute up to one DRAM cycle's worth of instructions.

        Returns one of :data:`CORE_BLOCKED` (no state changed at all — the
        core is waiting on a memory-side event and will repeat the
        identical non-cycle until one occurs), :data:`CORE_GAP` (the tick
        was exactly one full budget of non-memory instructions, which the
        event kernel may batch-replay), or :data:`CORE_ACTIVE` (anything
        else).  The value is truthy exactly when the core changed state,
        so boolean callers still read it as "did anything happen".

        Each pass of the loop does the first thing the core can do:

        1. drain a buffered dirty eviction into the write queue (a full
           queue stalls the core);
        2. stall if the core is a whole instruction window ahead of its
           oldest outstanding load;
        3. retire gap (non-memory) instructions, bounded by the budget
           and the window headroom;
        4. fetch the next trace entry;
        5. execute the entry's memory access.  A store allocates its line
           and never stalls (writes are not latency critical).  A load
           stalls while it depends on an outstanding load; a load that
           misses also stalls, before touching the cache, when the MSHRs
           are exhausted or the channel's read queue is full, so the
           retry has no side effects.  A dirty victim becomes the
           buffered eviction.

        The core's state lives in locals for the loop and is written back
        once at the end; the memory system never calls back into the core
        during a tick.
        """
        config = self.config
        budget = full_budget = self._budget
        window = config.instruction_window
        memory = self.memory
        llc = self.llc
        stats = self.stats
        pending_loads = self._pending_loads
        writeback = self._pending_writeback
        gap = self._gap_remaining
        entry = self._current_entry
        seq = start_seq = self._executed_seq
        progressed = changed = other_than_gap = False
        gap_retired = 0
        while budget > 0:
            if writeback is not None:
                if not memory.can_accept(writeback, True):
                    self.block_reason = (
                        "write_queue",
                        memory.controller_for(writeback).channel_id,
                    )
                    break
                memory.access(writeback, True, self.core_id, cycle)
                stats.dram_writes_issued += 1
                writeback = None
                changed = other_than_gap = True
            if pending_loads:
                headroom = window - (seq - pending_loads[0][0])
            else:
                headroom = window
            if headroom <= 0:
                self.block_reason = ("completion",)
                break
            if gap > 0:
                step = gap if gap < budget else budget
                if headroom < step:
                    step = headroom
                gap -= step
                seq += step
                budget -= step
                gap_retired += step
                progressed = True
                continue
            if entry is None:
                entry = next(self.trace)
                gap = entry.gap
                changed = other_than_gap = True
                continue
            line_bytes = llc.line_bytes
            line = (self.address_offset + entry.address) // line_bytes
            address = line * line_bytes
            if entry.is_write:
                writeback = llc.access(address, True).writeback_address
                stats.stores += 1
            else:
                # Dependent loads (pointer chasing) cannot issue while
                # earlier loads are outstanding; they are what makes a
                # workload sensitive to the latency a refresh adds.
                if entry.depends and pending_loads:
                    self.block_reason = ("completion",)
                    break
                tag, index = divmod(line, llc.num_sets)
                hit = tag in llc._sets[index]
                if not hit:
                    if len(pending_loads) >= config.mshrs_per_core:
                        self.block_reason = ("completion",)
                        break
                    if not memory.can_accept(address, False):
                        self.block_reason = (
                            "read_queue",
                            memory.controller_for(address).channel_id,
                        )
                        break
                writeback = llc.access(address, False).writeback_address
                stats.loads += 1
                if not hit:
                    stats.llc_load_misses += 1
                    request = memory.access(address, False, self.core_id, cycle)
                    if request is not None:
                        stats.dram_reads_issued += 1
                        pending_loads.append((seq, request))
                        self._pending_requests[request.request_id] = seq
            seq += 1
            entry = None
            budget -= 1
            progressed = other_than_gap = True
        self._pending_writeback = writeback
        self._gap_remaining = gap
        self._current_entry = entry
        self._executed_seq = seq
        stats.instructions += seq - start_seq
        if not progressed:
            stats.stall_cycles += 1
            return CORE_ACTIVE if changed else CORE_BLOCKED
        if not other_than_gap and gap_retired == full_budget:
            return CORE_GAP
        return CORE_ACTIVE

    # -- cycle-skipping kernel support ---------------------------------------------
    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle at which this core can do something that is not a
        replayable continuation of the tick it just executed.

        After a :data:`CORE_BLOCKED` tick the core has no self-scheduled
        events (``None``): it is waiting on the memory system, whose
        wake-ups the controller horizons report.  After a
        :data:`CORE_GAP` tick the core keeps retiring full budgets of gap
        instructions for :meth:`pure_gap_ticks` more cycles; the first
        cycle beyond those may fetch, access memory, or stall.  The event
        kernel therefore combines this with the tick's status: after
        ``CORE_GAP`` it uses ``now + 1 + pure_gap_ticks()`` directly (even
        when zero ticks remain, which forbids skipping).
        """
        ticks = self.pure_gap_ticks()
        return now + 1 + ticks if ticks else None

    def pure_gap_ticks(self) -> int:
        """Upcoming ticks that are provably a full gap-instruction budget.

        Mirrors the conditions of one tick's gap branch: no buffered
        writeback, and both the remaining gap and (with outstanding loads)
        the shrinking instruction-window headroom cover a whole budget.
        Without outstanding loads the headroom does not shrink as the core
        runs ahead, so only the gap bounds the run.
        """
        if self._pending_writeback is not None:
            return 0
        bound = self._gap_remaining
        if self._pending_loads:
            headroom = self.config.instruction_window - (
                self._executed_seq - self._pending_loads[0][0]
            )
            bound = min(bound, headroom)
        return bound // self._budget

    def skip_gap_cycles(self, count: int) -> None:
        """Batch-replay ``count`` pure-gap ticks in closed form.

        Each replayed tick retires exactly one instruction budget out of
        the current gap — the same arithmetic the per-cycle loop performs,
        just without the loop.
        """
        instructions = count * self._budget
        self._gap_remaining -= instructions
        self._executed_seq += instructions
        self.stats.instructions += instructions

    def skip_stalled_cycles(self, count: int) -> None:
        """Account ``count`` skipped cycles during which this core stalled.

        The event kernel only skips spans in which every core's tick is a
        provable no-op; the legacy kernel would have charged one stall
        cycle per tick, so the batched accounting is exactly that.
        """
        self.stats.stall_cycles += count

    # -- reporting ----------------------------------------------------------------
    def ipc(self, elapsed_dram_cycles: int) -> float:
        """Instructions per CPU cycle over the elapsed simulation window."""
        cpu_cycles = elapsed_dram_cycles * self.config.cpu_cycles_per_dram_cycle
        if cpu_cycles <= 0:
            return 0.0
        return self.stats.instructions / cpu_cycles

    def reset_stats(self) -> None:
        self.stats = CoreStats()
        self.llc.reset_stats()
