"""Unit tests for the trace-driven core model."""

import itertools

import pytest

from repro.cache.llc import LastLevelCache
from repro.config.cpu_config import CacheConfig, CPUConfig
from repro.config.presets import paper_system
from repro.controller.memory_controller import MemorySystem
from repro.cpu.core_model import Core
from repro.workloads.trace import TraceEntry


def make_core(entries, cpu_config=None, cache_config=None, memory=None):
    cpu_config = cpu_config or CPUConfig(num_cores=1)
    cache_config = cache_config or CacheConfig()
    memory = memory or MemorySystem(paper_system(mechanism="none", num_cores=1))
    trace = itertools.cycle(entries) if entries else iter(())
    llc = LastLevelCache(cache_config)
    core = Core(0, cpu_config, iter(trace), llc, memory, address_offset=0)
    return core, memory


def run_core(core, memory, cycles):
    for cycle in range(cycles):
        completed = memory.tick(cycle)
        for request in completed:
            core.complete_load(request)
        core.tick(cycle)


class TestRetirement:
    def test_non_memory_instructions_retire_at_issue_width(self):
        entries = [TraceEntry(gap=1000, address=0, is_write=False)]
        core, memory = make_core(entries)
        core.tick(0)
        assert core.stats.instructions == core.config.insts_per_dram_cycle

    def test_ipc_calculation(self):
        entries = [TraceEntry(gap=10_000, address=0, is_write=False)]
        core, memory = make_core(entries)
        for cycle in range(10):
            core.tick(cycle)
        # Fully compute-bound: IPC equals the issue width.
        assert core.ipc(10) == pytest.approx(core.config.issue_width)

    def test_stores_do_not_stall(self):
        entries = [TraceEntry(gap=0, address=i * 64, is_write=True) for i in range(64)]
        core, memory = make_core(entries)
        run_core(core, memory, 20)
        assert core.stats.stores > 0
        assert core.stats.instructions > 0
        assert core.outstanding_loads() == 0


class TestLoadBehaviour:
    def test_llc_hit_does_not_access_dram(self):
        entries = [TraceEntry(gap=0, address=0, is_write=False)]
        core, memory = make_core(entries)
        run_core(core, memory, 5)
        # First access misses, the rest hit the same line.
        assert core.stats.dram_reads_issued == 1
        assert core.stats.loads > 1

    def test_mshr_limit_respected(self):
        entries = [
            TraceEntry(gap=0, address=i * 4096, is_write=False) for i in range(256)
        ]
        core, memory = make_core(entries)
        max_outstanding = 0
        for cycle in range(60):
            completed = memory.tick(cycle)
            for request in completed:
                core.complete_load(request)
            core.tick(cycle)
            max_outstanding = max(max_outstanding, core.outstanding_loads())
        assert max_outstanding <= core.config.mshrs_per_core

    def test_instruction_window_limits_runahead(self):
        # A single long-latency miss followed by lots of compute: the core
        # may only run `instruction_window` instructions past the miss.
        entries = [TraceEntry(gap=0, address=1 << 20, is_write=False)] + [
            TraceEntry(gap=10_000, address=0, is_write=False)
        ]
        cpu = CPUConfig(num_cores=1, instruction_window=32)
        core, memory = make_core(entries, cpu_config=cpu)
        core.tick(0)  # issues the miss
        for cycle in range(1, 3):
            core.tick(cycle)
        assert core.stats.instructions <= 32 + 1

    def test_dependent_load_waits_for_outstanding(self):
        entries = [
            TraceEntry(gap=0, address=1 << 20, is_write=False),
            TraceEntry(gap=0, address=2 << 20, is_write=False, depends=True),
            TraceEntry(gap=10_000, address=0, is_write=False),
        ]
        core, memory = make_core(entries)
        core.tick(0)
        # The dependent load cannot issue while the first is outstanding.
        assert core.stats.dram_reads_issued == 1
        run_core(core, memory, 200)
        assert core.stats.dram_reads_issued >= 2

    def test_completion_wakes_core(self):
        entries = [
            TraceEntry(gap=0, address=1 << 20, is_write=False, depends=True),
            TraceEntry(gap=0, address=2 << 20, is_write=False, depends=True),
        ]
        core, memory = make_core(entries)
        run_core(core, memory, 400)
        assert core.stats.dram_reads_issued >= 2
        assert core.outstanding_loads() <= 1


class TestWritebackBackpressure:
    def test_dirty_evictions_reach_dram(self):
        # Small cache so evictions happen quickly; all stores.
        cache = CacheConfig(size_bytes=4 * 64, associativity=4, line_bytes=64)
        entries = [TraceEntry(gap=0, address=i * 64, is_write=True) for i in range(512)]
        core, memory = make_core(entries, cache_config=cache)
        run_core(core, memory, 400)
        assert core.stats.dram_writes_issued > 0
        reads, writes = memory.total_served()
        assert writes > 0

    def test_stall_counted_when_no_progress(self):
        entries = [TraceEntry(gap=0, address=1 << 20, is_write=False, depends=True)] * 4
        core, memory = make_core(entries)
        core.tick(0)
        core.tick(1)  # blocked on the outstanding dependent load
        assert core.stats.stall_cycles >= 1

    def test_reset_stats(self):
        entries = [TraceEntry(gap=100, address=0, is_write=False)]
        core, memory = make_core(entries)
        core.tick(0)
        core.reset_stats()
        assert core.stats.instructions == 0
        assert core.llc.hits == 0


class TestRollover:
    """``tick(cycle, limit)`` runs ahead through local cycles; what it
    executes must be what per-cycle ticks would, whenever reads complete."""

    ENTRIES = [
        TraceEntry(gap=0, address=1 << 20, is_write=False),
        TraceEntry(gap=10_000, address=0, is_write=False),
    ]

    def state(self, core):
        return core.stats, core._executed_seq, core._gap_remaining

    @pytest.mark.parametrize("completes_at", [3, 15, None])
    def test_window_bound_rollover_matches_per_cycle_ticks(self, completes_at):
        reference, _ = make_core(self.ENTRIES)
        rolled, _ = make_core(self.ENTRIES)
        limit = 40
        wake = rolled.tick(0, limit)
        # The miss is outstanding, so the rollover ends at a full window,
        # long before the limit.
        assert 1 < wake < limit and rolled.outstanding_loads() == 1
        request = rolled._pending_loads[0][1]
        for cycle in range(limit):
            if cycle == completes_at:
                reference.complete_load(reference._pending_loads[0][1])
                rolled.complete_load(request)
            reference.tick(cycle)
            if cycle == wake:
                wake = rolled.tick(cycle, limit) or cycle + 1
        assert self.state(rolled) == self.state(reference)
        assert reference.stats.dram_reads_issued == 1
