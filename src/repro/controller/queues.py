"""Per-bank request queues of a channel controller.

The controller keeps separate read and write queues (64 entries each in the
paper's configuration).  Requests are stored per bank to make FR-FCFS
scheduling and DARP's per-bank occupancy monitoring cheap: DARP refreshes
the bank with the fewest pending demand requests.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from repro.controller.request import MemRequest


class RequestQueues:
    """Read and write request queues for one channel, organized per bank."""

    def __init__(
        self,
        read_entries: int,
        write_entries: int,
        bank_keys: Iterable[tuple[int, int]],
    ):
        self.read_entries = read_entries
        self.write_entries = write_entries
        self.bank_keys = list(bank_keys)
        self.reads: dict[tuple[int, int], deque[MemRequest]] = {
            key: deque() for key in self.bank_keys
        }
        self.writes: dict[tuple[int, int], deque[MemRequest]] = {
            key: deque() for key in self.bank_keys
        }
        self.read_count = 0
        self.write_count = 0
        #: Bumped on every enqueue/remove; the event kernel uses it to
        #: detect that a controller's scheduling inputs are unchanged.
        self.version = 0
        #: Per-bank mutation counters (same events as :attr:`version`); the
        #: schedulers' frozen window analysis memoizes per-bank work keyed
        #: on these, so a retire only re-analyzes the bank it touched.
        self.bank_versions: dict[tuple[int, int], int] = {
            key: 0 for key in self.bank_keys
        }
        #: Per-bank total demand occupancy, and a version that bumps only
        #: when some bank's occupancy crosses zero.  Consumers that depend
        #: solely on bank *idleness* (DARP's refresh pools) key their
        #: caches on this instead of :attr:`version`, so mid-queue churn
        #: does not invalidate them.
        self.demand_counts: dict[tuple[int, int], int] = {
            key: 0 for key in self.bank_keys
        }
        self.idle_version = 0

    # -- capacity ---------------------------------------------------------
    def read_full(self) -> bool:
        return self.read_count >= self.read_entries

    def write_full(self) -> bool:
        return self.write_count >= self.write_entries

    def can_accept(self, request: MemRequest) -> bool:
        return not (self.write_full() if request.is_write else self.read_full())

    # -- enqueue / dequeue -------------------------------------------------
    def enqueue(self, request: MemRequest) -> None:
        """Add a request; the caller must have checked :meth:`can_accept`."""
        key = request.bank_key
        self.version += 1
        self.bank_versions[key] += 1
        counts = self.demand_counts
        if counts[key] == 0:
            self.idle_version += 1
        counts[key] += 1
        if request.is_write:
            self.writes[key].append(request)
            self.write_count += 1
        else:
            self.reads[key].append(request)
            self.read_count += 1

    def remove(self, request: MemRequest) -> None:
        """Remove a serviced request from its queue."""
        key = request.bank_key
        self.version += 1
        self.bank_versions[key] += 1
        counts = self.demand_counts
        counts[key] -= 1
        if counts[key] == 0:
            self.idle_version += 1
        if request.is_write:
            self.writes[key].remove(request)
            self.write_count -= 1
        else:
            self.reads[key].remove(request)
            self.read_count -= 1

    # -- occupancy queries (the refresh policies read them via the controller)
    def demand_count(self, bank_key: tuple[int, int]) -> int:
        """Pending demand (read + write) requests for one bank."""
        return self.demand_counts[bank_key]

    def rank_demand_count(self, rank: int) -> int:
        """Pending demand requests targeting any bank of ``rank``."""
        return sum(
            self.demand_count(key) for key in self.bank_keys if key[0] == rank
        )

    def pending_row_hit(
        self,
        bank_key: tuple[int, int],
        row: int,
        writes: bool,
    ) -> bool:
        """True if any queued request for ``bank_key`` targets ``row``."""
        queue = self.writes[bank_key] if writes else self.reads[bank_key]
        return any(req.row == row for req in queue)

    def total_demand(self) -> int:
        return self.read_count + self.write_count

    def oldest(self, bank_key: tuple[int, int], writes: bool) -> Optional[MemRequest]:
        """Oldest queued request of the given type for a bank, if any."""
        queue = self.writes[bank_key] if writes else self.reads[bank_key]
        return queue[0] if queue else None
