"""Memory request record exchanged between cores, caches and the controller."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.dram.address import PhysicalLocation

_request_ids = itertools.count()


@dataclass(slots=True, init=False)
class MemRequest:
    """A single DRAM read or write request.

    Reads are demand cache-line fills on behalf of a core (latency
    critical); writes are dirty-line writebacks from the last-level cache
    (not latency critical, Section 4.2.2).
    """

    address: int
    is_write: bool
    location: PhysicalLocation
    core_id: int
    arrival_cycle: int
    request_id: int
    #: Cycle at which the DRAM data burst for this request completed.
    completion_cycle: Optional[int]
    #: (rank, bank) within the request's channel: the key of its queues.
    bank_key: tuple[int, int] = field(compare=False, repr=False)

    def __init__(
        self,
        address: int,
        is_write: bool,
        location: PhysicalLocation,
        core_id: int = 0,
        arrival_cycle: int = 0,
        request_id: Optional[int] = None,
        completion_cycle: Optional[int] = None,
    ):
        self.address = address
        self.is_write = is_write
        self.location = location
        self.core_id = core_id
        self.arrival_cycle = arrival_cycle
        self.request_id = next(_request_ids) if request_id is None else request_id
        self.completion_cycle = completion_cycle
        self.bank_key = (location.rank, location.bank)

    @property
    def is_read(self) -> bool:
        return not self.is_write

    @property
    def channel(self) -> int:
        return self.location.channel

    @property
    def row(self) -> int:
        return self.location.row

    def latency(self) -> Optional[int]:
        """Queueing + service latency in DRAM cycles, if completed."""
        if self.completion_cycle is None:
            return None
        return self.completion_cycle - self.arrival_cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        kind = "WR" if self.is_write else "RD"
        loc = self.location
        return (
            f"MemRequest({kind}, core={self.core_id}, ch={loc.channel}, "
            f"rk={loc.rank}, bk={loc.bank}, row={loc.row}, col={loc.column})"
        )
