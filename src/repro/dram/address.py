"""Physical-address to DRAM-location mapping.

The mapper interleaves consecutive cache lines across channels (to spread
bandwidth), then across columns within a row, then banks, then ranks, and
finally rows.  This is the conventional row-interleaved mapping used by
FR-FCFS studies; it maximizes row-buffer locality for streaming access
patterns while spreading independent streams across banks.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.config.dram_config import DRAMOrganization


def _log2(value: int, name: str) -> int:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{name} must be a power of two, got {value}")
    return value.bit_length() - 1


class PhysicalLocation(NamedTuple):
    """Decoded DRAM coordinates of a physical address.

    Immutable and cheap to build positionally: one is decoded per DRAM
    request.
    """

    channel: int
    rank: int
    bank: int
    row: int
    column: int

    def bank_key(self) -> tuple[int, int, int]:
        """Key identifying the bank (channel, rank, bank)."""
        return (self.channel, self.rank, self.bank)


class AddressMapper:
    """Bidirectional mapping between physical addresses and DRAM locations.

    Bit layout from least to most significant:
    ``[cacheline offset][channel][column][bank][rank][row]``.
    """

    def __init__(self, organization: DRAMOrganization):
        self.organization = organization
        self._offset_bits = _log2(organization.cacheline_bytes, "cacheline_bytes")
        self._channel_bits = _log2(organization.channels, "channels")
        self._column_bits = _log2(organization.columns_per_row, "columns_per_row")
        self._bank_bits = _log2(organization.banks_per_rank, "banks_per_rank")
        self._rank_bits = _log2(organization.ranks_per_channel, "ranks_per_channel")
        self._row_bits = _log2(organization.rows_per_bank, "rows_per_bank")

        self._channel_shift = self._offset_bits
        self._column_shift = self._channel_shift + self._channel_bits
        self._bank_shift = self._column_shift + self._column_bits
        self._rank_shift = self._bank_shift + self._bank_bits
        self._row_shift = self._rank_shift + self._rank_bits

        self._channel_mask = (1 << self._channel_bits) - 1
        self._column_mask = (1 << self._column_bits) - 1
        self._bank_mask = (1 << self._bank_bits) - 1
        self._rank_mask = (1 << self._rank_bits) - 1
        self._row_mask = (1 << self._row_bits) - 1
        self._capacity_mask = self.capacity_bytes - 1

    @property
    def address_bits(self) -> int:
        """Number of meaningful address bits."""
        return self._row_shift + self._row_bits

    @property
    def capacity_bytes(self) -> int:
        return 1 << self.address_bits

    def decode(self, address: int) -> PhysicalLocation:
        """Decode a physical byte address into DRAM coordinates."""
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        address &= self._capacity_mask
        channel = (address >> self._channel_shift) & self._channel_mask
        column = (address >> self._column_shift) & self._column_mask
        bank = (address >> self._bank_shift) & self._bank_mask
        rank = (address >> self._rank_shift) & self._rank_mask
        row = (address >> self._row_shift) & self._row_mask
        # PhysicalLocation's generated constructor is Python code; build
        # the tuple directly instead, in field order.
        return tuple.__new__(PhysicalLocation, (channel, rank, bank, row, column))

    def channel_of(self, address: int) -> int:
        """The channel :meth:`decode` would give ``address``, alone."""
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        return (address >> self._channel_shift) & self._channel_mask

    def encode(self, location: PhysicalLocation) -> int:
        """Encode DRAM coordinates back into a (line-aligned) byte address."""
        return (
            (location.row << self._row_shift)
            | (location.rank << self._rank_shift)
            | (location.bank << self._bank_shift)
            | (location.column << self._column_shift)
            | (location.channel << self._channel_shift)
        )

    def subarray_of(self, location: PhysicalLocation) -> int:
        """Subarray group index of a location's row."""
        return self.organization.subarray_of_row(location.row)
