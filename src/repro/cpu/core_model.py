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
#: until one occurs.  Every other outcome is the (positive) cycle at which
#: the core must be ticked next, so the return still reads as "did
#: anything change" in boolean context.
CORE_BLOCKED = 0
#: :attr:`Core.block_reason` of a core waiting for one of its own reads.
COMPLETION = ("completion",)


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
        #: Budget left in the cycle the next tick executes: less than a
        #: full budget only after a rollover stopped inside that cycle,
        #: which has then made progress (only retiring spends budget).
        self._budget_left = self._budget
        self._window = config.instruction_window
        self._mshrs = config.mshrs_per_core

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
    def tick(self, cycle: int, limit: int = 0) -> int:
        """Execute one DRAM cycle's worth of instructions, then roll on.

        Returns :data:`CORE_BLOCKED` when the call changed no state at all
        (the core waits on the memory-side event :attr:`block_reason`
        names, and would repeat the identical non-cycle until it occurs);
        otherwise the cycle at which the core must be ticked next.

        Each pass of the loop does the first thing the core can do:

        1. drain a buffered dirty eviction into the write queue (a full
           queue stalls the core);
        2. stall if the core is a whole instruction window ahead of its
           oldest outstanding load;
        3. fetch the next trace entry, if the last one has executed;
        4. retire gap (non-memory) instructions, bounded by the budget
           and the window headroom;
        5. execute the entry's memory access.  A store allocates its line
           and never stalls (writes are not latency critical).  A load
           stalls while it depends on an outstanding load; a load that
           misses also stalls, before touching the cache, when the MSHRs
           are exhausted or the channel's read queue is full, so the
           retry has no side effects.  A dirty victim becomes the
           buffered eviction.

        *Rollover.*  Once ``cycle``'s budget is spent, the core goes on
        executing the next cycles, below ``limit``, while its next action
        touches neither the memory system nor its pending loads: LLC hits,
        stores, trace fetches and gap instructions.  Those actions read
        only the core's own state.  A read completing meanwhile could only
        widen the instruction window, so the per-cycle loop would retire
        at least as much; whatever more it would retire is still ahead,
        because the core stops at a full window.  It also stops at the
        first action that needs the memory system or a completion: a
        buffered writeback, a miss, or a dependent load while loads are
        outstanding.  It then keeps the partial cycle's remaining budget
        and returns that cycle, and the tick there resumes it after the
        memory system has ticked it.  Whole cycles of gap instructions
        roll in closed form.  The default ``limit`` rolls into no cycle:
        one call is exactly one cycle, as the cycle kernel runs it.

        The core's state lives in locals for the loop and is written back
        once at the end; the memory system never calls back into the core
        during a tick.
        """
        full_budget = self._budget
        budget = self._budget_left
        window = self._window
        memory = self.memory
        llc = self.llc
        table = llc._table
        set_mask = llc.num_sets - 1
        set_bits = llc.set_bits
        line_bytes = llc.line_bytes
        offset = self.address_offset
        trace = self.trace
        pending_loads = self._pending_loads
        writeback = start_writeback = self._pending_writeback
        gap = self._gap_remaining
        entry = start_entry = self._current_entry
        seq = start_seq = self._executed_seq
        called = cycle
        rolled = False
        hits = loads = stores = 0
        while True:
            if not budget:
                cycle += 1
                budget = full_budget
                if cycle >= limit:
                    break
                rolled = True
                if gap >= full_budget and writeback is None:
                    run = gap
                    if pending_loads:
                        headroom = window - (seq - pending_loads[0][0])
                        if headroom < run:
                            run = headroom
                    whole = run // full_budget
                    if whole > 0:
                        if whole > limit - cycle:
                            whole = limit - cycle
                        retired = whole * full_budget
                        gap -= retired
                        seq += retired
                        cycle += whole
                        if cycle >= limit:
                            break
            if writeback is not None:
                if rolled:
                    break
                if not memory.can_accept(writeback, True):
                    self.block_reason = (
                        "write_queue",
                        memory.controller_for(writeback).channel_id,
                    )
                    break
                memory.access(writeback, True, self.core_id, cycle)
                self.stats.dram_writes_issued += 1
                writeback = None
            if pending_loads:
                headroom = window - (seq - pending_loads[0][0])
                if headroom <= 0:
                    if not rolled:
                        self.block_reason = COMPLETION
                    break
            else:
                headroom = window
            if entry is None:
                # No gap is left when no entry is: fetch, then retire the
                # new entry's gap or execute it in this same pass.
                entry = next(trace)
                gap = entry.gap
            if gap:
                step = gap if gap < budget else budget
                if headroom < step:
                    step = headroom
                gap -= step
                seq += step
                budget -= step
                continue
            line = (offset + entry.address) // line_bytes
            index = line & set_mask
            tag = line >> set_bits
            cache_set = table[index]
            if cache_set is None:
                cache_set = llc._build(index)
            if entry.is_write:
                if tag in cache_set:
                    del cache_set[tag]
                    cache_set[tag] = True
                    hits += 1
                else:
                    writeback = llc.access(line * line_bytes, True).writeback_address
                stores += 1
            else:
                # Dependent loads (pointer chasing) cannot issue while
                # earlier loads are outstanding; they are what makes a
                # workload sensitive to the latency a refresh adds.
                if entry.depends and pending_loads:
                    if not rolled:
                        self.block_reason = COMPLETION
                    break
                if tag in cache_set:
                    cache_set[tag] = cache_set.pop(tag)
                    hits += 1
                else:
                    if rolled:
                        break
                    if len(pending_loads) >= self._mshrs:
                        self.block_reason = COMPLETION
                        break
                    address = line * line_bytes
                    if not memory.can_accept(address, False):
                        self.block_reason = (
                            "read_queue",
                            memory.controller_for(address).channel_id,
                        )
                        break
                    writeback = llc.access(address, False).writeback_address
                    stats = self.stats
                    stats.llc_load_misses += 1
                    request = memory.access(address, False, self.core_id, cycle)
                    if request is not None:
                        stats.dram_reads_issued += 1
                        pending_loads.append((seq, request))
                        self._pending_requests[request.request_id] = seq
                loads += 1
            seq += 1
            entry = None
            budget -= 1
        self._pending_writeback = writeback
        self._gap_remaining = gap
        self._current_entry = entry
        self._executed_seq = seq
        stats = self.stats
        stats.instructions += seq - start_seq
        if hits:
            llc.hits += hits
        if loads:
            stats.loads += loads
        if stores:
            stats.stores += stores
        if cycle != called:
            self._budget_left = budget
            return cycle
        self._budget_left = full_budget
        if budget == full_budget:
            stats.stall_cycles += 1
        if seq == start_seq and entry is start_entry and writeback is start_writeback:
            return CORE_BLOCKED
        return cycle + 1

    def skip_stalled_cycles(self, count: int) -> None:
        """Account ``count`` skipped cycles during which this core stalled.

        The event kernel sleeps a core only while its tick is a provable
        no-op; the cycle kernel would have charged one stall cycle per
        tick, so the batched accounting is exactly that.
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
