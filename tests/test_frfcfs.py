"""Unit tests for FR-FCFS scheduling decisions.

These drive the scheduler through a real channel controller (with the
no-refresh policy so nothing blocks demand) and inspect the command it
proposes each cycle.
"""


from repro.config.presets import paper_system
from repro.controller.memory_controller import MemorySystem
from repro.dram.commands import CommandType


def make_memory(**kwargs) -> MemorySystem:
    return MemorySystem(paper_system(mechanism="none", **kwargs))


def channel0_requests(memory, addresses, is_write=False):
    """Enqueue the given addresses, keeping only those landing on channel 0."""
    kept = []
    for i, address in enumerate(addresses):
        request = memory.access(address, is_write, core_id=0, cycle=i)
        if request is not None and request.location.channel == 0:
            kept.append(request)
    return kept


class TestRowHitPriority:
    def test_column_command_preferred_over_activate(self):
        memory = make_memory()
        controller = memory.controllers[0]
        # Two requests to the same row (consecutive lines on channel 0) and
        # one to a different row of another bank.
        same_row = channel0_requests(memory, [0, 128])
        other = channel0_requests(memory, [1 << 22])
        assert len(same_row) == 2 and len(other) == 1

        # Cycle 0: the scheduler activates the oldest request's bank.
        selection = controller.scheduler.select(0)
        assert selection is not None
        command, _ = selection
        assert command.kind is CommandType.ACT
        memory.device.issue(command, 0)

        # Once the row is open, the row hit is preferred over activating the
        # other request's bank even though that request may be older.
        ready = memory.device.timings.tRCD
        selection = controller.scheduler.select(ready)
        command, request = selection
        assert command.kind.is_column
        assert request.row == command.row

    def test_oldest_request_served_first_within_hits(self):
        memory = make_memory()
        controller = memory.controllers[0]
        requests = channel0_requests(memory, [0, 128, 256])
        command, _ = controller.scheduler.select(0)
        memory.device.issue(command, 0)
        ready = memory.device.timings.tRCD
        _, served = controller.scheduler.select(ready)
        assert served is requests[0]


class TestAutoPrechargeDecision:
    def test_last_request_to_row_autoprecharges(self):
        memory = make_memory()
        controller = memory.controllers[0]
        channel0_requests(memory, [0])
        command, _ = controller.scheduler.select(0)
        memory.device.issue(command, 0)
        ready = memory.device.timings.tRCD
        command, _ = controller.scheduler.select(ready)
        # Only one request targets the row, so the closed-row policy closes it.
        assert command.kind in (CommandType.RDA, CommandType.WRA)

    def test_row_kept_open_while_another_hit_is_queued(self):
        memory = make_memory()
        controller = memory.controllers[0]
        channel0_requests(memory, [0, 128])
        command, _ = controller.scheduler.select(0)
        memory.device.issue(command, 0)
        ready = memory.device.timings.tRCD
        command, _ = controller.scheduler.select(ready)
        assert command.kind is CommandType.RD  # keep the row open for the second hit


class TestWriteDrainScheduling:
    def test_writes_not_selected_while_reads_pending(self):
        memory = make_memory()
        controller = memory.controllers[0]
        channel0_requests(memory, [0])
        channel0_requests(memory, [1 << 21], is_write=True)
        command, _ = controller.scheduler.select(0)
        assert command.kind is CommandType.ACT
        assert command.request is not None and not command.request.is_write

    def test_writes_selected_when_no_reads(self):
        memory = make_memory()
        controller = memory.controllers[0]
        channel0_requests(memory, [1 << 21], is_write=True)
        controller.drain.update(
            controller.queues.write_count,
            controller.queues.read_count,
        )
        selection = controller.scheduler.select(0)
        assert selection is not None
        command, _ = selection
        assert command.request is None or command.request.is_write


class TestPolicyBlocking:
    def test_blocked_bank_is_skipped(self):
        memory = MemorySystem(paper_system(mechanism="refab"))
        controller = memory.controllers[0]
        policy = controller.refresh_policy
        request = None
        address = 0
        while request is None or request.location.channel != 0:
            request = memory.access(address, False, core_id=0, cycle=0)
            address += 128
        # Make a refresh pending for every rank (the request's included):
        # demand is blocked, so the scheduler proposes nothing for it.
        policy.accrue(memory.device.timings.tREFIab)
        assert policy.refresh_debt(request.location.rank) == 1
        selection = controller.scheduler.select(0)
        assert selection is None
