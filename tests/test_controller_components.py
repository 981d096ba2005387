"""Unit tests for controller building blocks: queues, write drain, requests."""


from repro.config.controller_config import ControllerConfig
from repro.config.dram_config import DRAMOrganization
from repro.controller.queues import RequestQueues
from repro.controller.request import MemRequest
from repro.controller.write_drain import WriteDrainState
from repro.dram.address import AddressMapper


def make_request(
    address: int,
    is_write: bool = False,
    core_id: int = 0,
    cycle: int = 0,
):
    mapper = AddressMapper(DRAMOrganization())
    return MemRequest(
        address=address,
        is_write=is_write,
        location=mapper.decode(address),
        core_id=core_id,
        arrival_cycle=cycle,
    )


def make_queues(read_entries: int = 4, write_entries: int = 4) -> RequestQueues:
    bank_keys = [(rank, bank) for rank in range(2) for bank in range(8)]
    return RequestQueues(read_entries, write_entries, bank_keys)


class TestMemRequest:
    def test_basic_properties(self):
        request = make_request(0, is_write=False, cycle=5)
        assert request.is_read
        assert request.channel == 0
        assert request.bank_key == (request.location.rank, request.location.bank)
        assert request.latency() is None
        request.completion_cycle = 25
        assert request.latency() == 20

    def test_request_ids_unique(self):
        a = make_request(0)
        b = make_request(0)
        assert a.request_id != b.request_id


class TestRequestQueues:
    def test_enqueue_and_counts(self):
        queues = make_queues()
        read = make_request(0)
        write = make_request(1 << 20, is_write=True)
        queues.enqueue(read)
        queues.enqueue(write)
        assert queues.read_count == 1
        assert queues.write_count == 1
        assert queues.total_demand() == 2
        assert queues.demand_count(read.bank_key) >= 1

    def test_capacity_limits(self):
        queues = make_queues(read_entries=2, write_entries=1)
        r1, r2, r3 = (make_request(i * 64) for i in range(3))
        assert queues.can_accept(r1)
        queues.enqueue(r1)
        queues.enqueue(r2)
        assert queues.read_full()
        assert not queues.can_accept(r3)
        w = make_request(0, is_write=True)
        queues.enqueue(w)
        assert queues.write_full()

    def test_remove(self):
        queues = make_queues()
        request = make_request(0)
        queues.enqueue(request)
        queues.remove(request)
        assert queues.read_count == 0
        assert queues.demand_count(request.bank_key) == 0

    def test_rank_demand_count(self):
        queues = make_queues()
        request = make_request(0)
        queues.enqueue(request)
        rank = request.location.rank
        assert queues.rank_demand_count(rank) == 1
        assert queues.rank_demand_count(1 - rank) == 0

    def test_pending_row_hit_and_oldest(self):
        queues = make_queues()
        request = make_request(0)
        queues.enqueue(request)
        key = request.bank_key
        assert queues.pending_row_hit(key, request.row, writes=False)
        assert not queues.pending_row_hit(key, request.row + 1, writes=False)
        assert queues.oldest(key, writes=False) is request
        assert queues.oldest(key, writes=True) is None


class TestWriteDrain:
    def test_enters_drain_at_high_watermark(self):
        config = ControllerConfig(write_high_watermark=4, write_low_watermark=2)
        drain = WriteDrainState(config)
        assert drain.update(3, 10) is False
        assert drain.update(4, 10) is True
        assert drain.episodes == 1

    def test_exits_drain_at_low_watermark(self):
        config = ControllerConfig(write_high_watermark=4, write_low_watermark=2)
        drain = WriteDrainState(config)
        drain.update(4, 0)
        assert drain.update(3, 0) is True
        assert drain.update(2, 0) is False
        # Hysteresis: it does not re-enter until the high watermark again.
        assert drain.update(3, 0) is False

    def test_opportunistic_writes_when_no_reads(self):
        config = ControllerConfig(write_high_watermark=4, write_low_watermark=2)
        drain = WriteDrainState(config)
        drain.update(1, 0)
        assert drain.should_serve_writes(1, 0) is True
        assert drain.should_serve_writes(1, 5) is False
        assert drain.should_serve_writes(0, 0) is False

    def test_drain_cycle_accounting(self):
        config = ControllerConfig(write_high_watermark=2, write_low_watermark=1)
        drain = WriteDrainState(config)
        drain.update(2, 0)
        drain.update(2, 0)
        drain.update(1, 0)
        assert drain.drain_cycles == 2
