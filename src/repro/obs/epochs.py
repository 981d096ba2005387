"""Fixed-interval epoch sampling of simulator state.

An epoch is a window of ``interval`` DRAM cycles inside the measured run.
At every epoch boundary the :class:`EpochSampler` captures two kinds of
data: *deltas* of cumulative counters over the epoch (instructions
retired, stall cycles, commands issued, refreshes, subarray conflicts)
and *boundary snapshots* of instantaneous occupancy (queue depths, open
banks, banks under refresh).

Samples merge as :class:`EpochStats`, so aggregating epochs — within a
run or across runs — recomputes IPC and the average depths from merged
raw totals instead of averaging averages.

Sampling is observation-only: the simulator reaches every epoch boundary
through the same clamped kernel steps it would use for the end of the
run, so enabling epochs never changes simulated results (pinned by the
bit-identity tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config.serialize import to_plain
from repro.stats import MAX, StatsStruct, WeightedAverage

#: Instructions retired per DRAM cycle, of one sample or of merged samples.
IPC = WeightedAverage("ipc", "instructions", "cycles")


@dataclass
class EpochStats(StatsStruct):
    """Merge semantics for epoch samples (see :meth:`EpochSample.stats_dict`)."""

    RATIOS = (
        IPC,
        WeightedAverage("avg_read_queue", "read_queue", "epochs"),
        WeightedAverage("avg_write_queue", "write_queue", "epochs"),
        WeightedAverage("avg_refreshing_banks", "refreshing_banks", "epochs"),
    )

    epochs: int = 0
    cycles: int = 0
    instructions: int = 0
    stall_cycles: int = 0
    commands: int = 0
    refreshes: int = 0
    subarray_conflicts: int = 0
    read_queue: int = 0
    write_queue: int = 0
    open_banks: int = 0
    refreshing_banks: int = 0
    max_read_queue: int = field(default=0, metadata={"merge": MAX})
    max_write_queue: int = field(default=0, metadata={"merge": MAX})


@dataclass(frozen=True)
class EpochSample:
    """One epoch's worth of simulator state.

    Counter fields are deltas over the epoch; ``read_queue`` through
    ``refreshing_banks`` are boundary snapshots taken at ``start +
    cycles``.
    """

    start: int
    cycles: int
    instructions: int
    stall_cycles: int
    commands: int
    refreshes: int
    subarray_conflicts: int
    read_queue: int
    write_queue: int
    open_banks: int
    refreshing_banks: int

    @property
    def ipc(self) -> float:
        return IPC.of(self)

    def as_dict(self) -> dict:
        values = to_plain(self)
        values["ipc"] = self.ipc
        return values

    def stats_dict(self) -> dict:
        """Mergeable :class:`EpochStats` payload.

        ``epochs`` (always 1) is the weight for the boundary-snapshot
        averages, and the boundary depths seed the MAX-merged peaks.
        """
        values = to_plain(self)
        del values["start"]
        values.update(
            epochs=1,
            max_read_queue=self.read_queue,
            max_write_queue=self.write_queue,
        )
        return values


def merge_epoch_samples(samples) -> dict:
    """Aggregate samples as :class:`EpochStats`."""
    return EpochStats.merge_dicts(sample.stats_dict() for sample in samples)


class EpochSampler:
    """Captures :class:`EpochSample` records at fixed cycle intervals."""

    def __init__(self, interval: int):
        if interval < 1:
            raise ValueError(f"epoch interval must be >= 1, got {interval}")
        self.interval = interval
        self.samples: list[EpochSample] = []
        self._snapshot: dict = {}
        self._epoch_start = 0

    # -- cumulative-counter snapshots ---------------------------------------
    @staticmethod
    def _counters(sim) -> dict:
        device = sim.memory.device.stats
        return {
            "instructions": sum(core.stats.instructions for core in sim.cores),
            "stall_cycles": sum(core.stats.stall_cycles for core in sim.cores),
            "commands": sum(
                controller.stats.issued_commands
                for controller in sim.memory.controllers
            ),
            "refreshes": device.all_bank_refreshes + device.per_bank_refreshes,
            "subarray_conflicts": device.subarray_conflicts,
        }

    @staticmethod
    def _occupancy(sim, cycle: int) -> dict:
        read_queue = 0
        write_queue = 0
        for controller in sim.memory.controllers:
            read_queue += controller.queues.read_count
            write_queue += controller.queues.write_count
        open_banks = 0
        refreshing = 0
        for channel in sim.memory.device.channels:
            for rank in channel.ranks:
                if rank.is_under_all_bank_refresh(cycle):
                    refreshing += len(rank.banks)
                for bank in rank.banks:
                    if bank.open_row is not None:
                        open_banks += 1
                    if not rank.is_under_all_bank_refresh(
                        cycle
                    ) and bank.is_refreshing(cycle):
                        refreshing += 1
        return {
            "read_queue": read_queue,
            "write_queue": write_queue,
            "open_banks": open_banks,
            "refreshing_banks": refreshing,
        }

    # -- protocol -----------------------------------------------------------
    def begin(self, sim, cycle: int) -> None:
        """Start the first epoch at ``cycle`` (the measurement start)."""
        self.samples.clear()
        self._epoch_start = cycle
        self._snapshot = self._counters(sim)

    def sample(self, sim, cycle: int) -> EpochSample:
        """Close the epoch ending at ``cycle`` and start the next one."""
        counters = self._counters(sim)
        deltas = {
            key: counters[key] - self._snapshot[key] for key in counters
        }
        sample = EpochSample(
            start=self._epoch_start,
            cycles=cycle - self._epoch_start,
            **deltas,
            **self._occupancy(sim, cycle),
        )
        self.samples.append(sample)
        self._snapshot = counters
        self._epoch_start = cycle
        return sample
