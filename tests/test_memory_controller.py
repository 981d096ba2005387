"""Unit/integration tests for the channel controller and memory system."""

import random
from dataclasses import replace

import pytest

from repro.config.presets import paper_system
from repro.controller.memory_controller import MemorySystem


def make_memory(mechanism: str = "none", density: int = 8, **kwargs) -> MemorySystem:
    return MemorySystem(paper_system(density_gb=density, mechanism=mechanism, **kwargs))


def drain(memory: MemorySystem, start: int, cycles: int):
    """Run the memory system for a number of cycles, collecting completions."""
    completed = []
    for cycle in range(start, start + cycles):
        completed.extend(memory.tick(cycle))
    return completed


class TestMemorySystemBasics:
    def test_single_read_completes(self):
        memory = make_memory()
        request = memory.access(0, is_write=False, core_id=0, cycle=0)
        assert request is not None
        completed = drain(memory, 0, 100)
        assert request in completed
        assert request.completion_cycle is not None
        # Latency should be at least ACT + CAS + burst.
        t = memory.device.timings
        assert request.completion_cycle >= t.tRCD + t.tCL + t.tBL

    def test_single_write_serviced_without_completion_callback(self):
        memory = make_memory()
        request = memory.access(128, is_write=True, core_id=0, cycle=0)
        assert request is not None
        completed = drain(memory, 0, 200)
        assert completed == []  # only reads are returned
        reads, writes = memory.total_served()
        assert writes == 1
        assert reads == 0

    def test_requests_route_to_correct_channel(self):
        memory = make_memory()
        r0 = memory.access(0, is_write=False, core_id=0, cycle=0)
        r1 = memory.access(64, is_write=False, core_id=0, cycle=0)
        assert r0.location.channel == 0
        assert r1.location.channel == 1

    def test_queue_full_rejects(self):
        memory = make_memory()
        controller = memory.controllers[0]
        capacity = controller.config.controller.read_queue_entries
        accepted = 0
        # Fill channel 0's read queue with same-channel addresses.
        address = 0
        while controller.queues.read_count < capacity:
            request = memory.access(address, is_write=False, core_id=0, cycle=0)
            if request is not None and request.location.channel == 0:
                accepted += 1
            address += 128  # stays on channel 0
        assert not memory.can_accept(address, is_write=False)
        rejected = memory.access(address, is_write=False, core_id=0, cycle=0)
        assert rejected is None
        assert controller.stats.rejected_enqueues >= 1

    def test_row_hits_batched_with_single_activate(self):
        memory = make_memory()
        # Four consecutive lines on channel 0 share a row.
        for i in range(4):
            memory.access(i * 128, is_write=False, core_id=0, cycle=0)
        drain(memory, 0, 300)
        stats = memory.device.stats
        assert stats.reads == 4
        assert stats.activates < 4  # at least some row hits

    def test_outstanding_work_flag(self):
        memory = make_memory()
        assert not memory.has_outstanding_work()
        memory.access(0, is_write=False, core_id=0, cycle=0)
        assert memory.has_outstanding_work()
        drain(memory, 0, 200)
        assert not memory.has_outstanding_work()

    def test_average_latency_stats(self):
        memory = make_memory()
        memory.access(0, is_write=False, core_id=0, cycle=0)
        drain(memory, 0, 200)
        controller = memory.controllers[0]
        assert controller.stats.served_reads == 1
        assert controller.stats.average_read_latency > 0


class TestWriteDrainBehaviour:
    def test_many_writes_trigger_drain_mode(self):
        memory = make_memory()
        controller = memory.controllers[0]
        high = controller.config.controller.write_high_watermark
        address = 0
        enqueued = 0
        while enqueued <= high:
            request = memory.access(address, is_write=True, core_id=0, cycle=0)
            if request is not None and request.location.channel == 0:
                enqueued += 1
            address += 128
        drain(memory, 0, 5)
        assert controller.drain.episodes >= 1
        # Eventually the writes are drained below the low watermark.
        drain(memory, 5, 3000)
        assert controller.queues.write_count <= controller.config.controller.write_low_watermark

    def test_reads_not_served_while_draining(self):
        memory = make_memory()
        controller = memory.controllers[0]
        address = 0
        enqueued = 0
        while enqueued <= controller.config.controller.write_high_watermark:
            request = memory.access(address, is_write=True, core_id=0, cycle=0)
            if request is not None and request.location.channel == 0:
                enqueued += 1
            address += 128
        read = memory.access(0, is_write=False, core_id=0, cycle=0)
        # Run a few cycles: while in drain mode the read is not yet served.
        for cycle in range(3):
            memory.tick(cycle)
        assert controller.drain.in_drain
        assert read.completion_cycle is None


class TestRefreshPolicyIntegration:
    def test_refab_issued_on_schedule(self):
        memory = make_memory("refab")
        t = memory.device.timings
        drain(memory, 0, t.tREFIab + t.tRFCab + 10)
        # Every rank of both channels should have refreshed at least once.
        assert memory.device.stats.all_bank_refreshes >= 4

    def test_refpb_round_robin_covers_banks(self):
        memory = make_memory("refpb")
        t = memory.device.timings
        cycles = t.tREFIpb * 9
        drain(memory, 0, cycles)
        counts = memory.device.refresh_counts_per_bank()
        # Eight per-bank refreshes per rank cover every bank exactly once.
        per_rank_totals = {}
        for (ch, rk, bk), count in counts.items():
            per_rank_totals.setdefault((ch, rk), []).append(count)
        for totals in per_rank_totals.values():
            assert max(totals) - min(totals) <= 1

    def test_refresh_policy_stats_exposed(self):
        memory = make_memory("refab")
        drain(memory, 0, memory.device.timings.tREFIab + 500)
        stats = memory.refresh_policy_stats()
        assert stats["all_bank_issued"] >= 1


def four_channel_memory() -> MemorySystem:
    config = paper_system(mechanism="none")
    organization = replace(config.dram.organization, channels=4)
    return MemorySystem(
        replace(config, dram=replace(config.dram, organization=organization))
    )


def fill_queue(memory: MemorySystem, channel: int, is_write: bool) -> None:
    """Enqueue requests to ``channel`` until its queue refuses one."""
    rng = random.Random(channel)
    controller = memory.controllers[channel]
    while controller.can_accept(is_write):
        address = rng.randrange(memory.mapper.capacity_bytes)
        if memory.mapper.channel_of(address) == channel:
            assert memory.access(address, is_write, 0, 0) is not None


@pytest.mark.parametrize(
    "build", [make_memory, four_channel_memory], ids=["paper", "four_channel"]
)
class TestSingleDecode:
    """``can_accept`` reads only the channel bits; ``access`` decodes once."""

    def addresses(self, memory: MemorySystem) -> list[int]:
        rng = random.Random(11)
        capacity = memory.mapper.capacity_bytes
        # Beyond the capacity too: decoding wraps, and so must channel_of.
        return [rng.randrange(4 * capacity) for _ in range(2000)]

    def test_channel_of_is_the_decoded_channel(self, build):
        memory = build()
        mapper = memory.mapper
        assert len(memory.controllers) == mapper.organization.channels
        seen = set()
        for address in self.addresses(memory):
            channel = mapper.channel_of(address)
            assert channel == mapper.decode(address).channel
            seen.add(channel)
        assert seen == set(range(mapper.organization.channels))

    def test_bank_key_is_the_decoded_rank_and_bank(self, build):
        memory = build()
        for address in self.addresses(memory)[:300]:
            request = memory.access(address, address % 3 == 0, 0, 0)
            if request is None:
                continue
            location = memory.mapper.decode(address)
            assert request.location == location
            assert request.bank_key == (location.rank, location.bank)

    def test_can_accept_matches_the_owning_controller(self, build):
        memory = build()
        addresses = self.addresses(memory)

        def check(expect_refusals: bool) -> None:
            refused = 0
            for address in addresses:
                owner = memory.controllers[memory.mapper.decode(address).channel]
                for is_write in (False, True):
                    accepts = memory.can_accept(address, is_write)
                    assert accepts == owner.can_accept(is_write)
                    assert memory.controller_for(address) is owner
                    refused += not accepts
            assert bool(refused) == expect_refusals

        check(expect_refusals=False)
        fill_queue(memory, 0, is_write=False)
        fill_queue(memory, len(memory.controllers) - 1, is_write=True)
        check(expect_refusals=True)
