"""Result records produced by simulations and experiments."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config.serialize import check_fields, from_plain, to_plain
from repro.metrics.speedup import (
    harmonic_speedup,
    maximum_slowdown,
    weighted_speedup,
)


@dataclass
class CoreResult:
    """Per-core outcome of one simulation."""

    core_id: int
    benchmark: str
    instructions: int
    ipc: float
    mpki: float
    dram_reads: int
    dram_writes: int
    stall_cycles: int

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass
class SimulationResult:
    """Raw outcome of one simulation run."""

    workload: str
    mechanism: str
    density_gb: int
    cycles: int
    warmup_cycles: int
    cores: list[CoreResult]
    device_stats: dict
    controller_stats: dict
    refresh_stats: dict
    energy: dict

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def ipcs(self) -> list[float]:
        return [core.ipc for core in self.cores]

    @property
    def total_instructions(self) -> int:
        return sum(core.instructions for core in self.cores)

    @property
    def reads_serviced(self) -> int:
        return self.device_stats.get("reads", 0)

    @property
    def energy_per_access_nj(self) -> float:
        return self.energy.get("energy_per_access_nj", 0.0)

    def to_dict(self) -> dict:
        """JSON-compatible representation (see :meth:`from_dict`)."""
        return to_plain(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        """Inverse of :meth:`to_dict`: rebuild an equal result record."""
        return from_plain(cls, data)


@dataclass
class WorkloadResult:
    """A simulation result paired with alone-run IPCs and derived metrics."""

    simulation: SimulationResult
    alone_ipcs: list[float]

    @property
    def workload(self) -> str:
        return self.simulation.workload

    @property
    def mechanism(self) -> str:
        return self.simulation.mechanism

    @property
    def weighted_speedup(self) -> float:
        return weighted_speedup(self.simulation.ipcs, self.alone_ipcs)

    @property
    def harmonic_speedup(self) -> float:
        return harmonic_speedup(self.simulation.ipcs, self.alone_ipcs)

    @property
    def maximum_slowdown(self) -> float:
        return maximum_slowdown(self.simulation.ipcs, self.alone_ipcs)

    @property
    def energy_per_access_nj(self) -> float:
        return self.simulation.energy_per_access_nj

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "mechanism": self.mechanism,
            "weighted_speedup": self.weighted_speedup,
            "harmonic_speedup": self.harmonic_speedup,
            "maximum_slowdown": self.maximum_slowdown,
            "energy_per_access_nj": self.energy_per_access_nj,
        }


@dataclass
class MechanismComparison:
    """Results of running one workload under several refresh mechanisms."""

    workload: str
    density_gb: int
    results: dict[str, WorkloadResult] = field(default_factory=dict)

    @property
    def weighted_speedup(self) -> dict[str, float]:
        return {name: result.weighted_speedup for name, result in self.results.items()}

    @property
    def energy_per_access_nj(self) -> dict[str, float]:
        return {
            name: result.energy_per_access_nj for name, result in self.results.items()
        }

    def normalized_to(self, baseline: str) -> dict[str, float]:
        """Weighted speedup of every mechanism normalized to ``baseline``."""
        if baseline not in self.results:
            raise KeyError(f"baseline {baseline!r} not part of this comparison")
        base = self.results[baseline].weighted_speedup
        if base <= 0:
            raise ValueError("baseline weighted speedup is not positive")
        return {
            name: result.weighted_speedup / base for name, result in self.results.items()
        }

    def improvement_percent(self, mechanism: str, baseline: str) -> float:
        """Percentage weighted-speedup improvement of one mechanism over another."""
        normalized = self.normalized_to(baseline)
        return (normalized[mechanism] - 1.0) * 100.0
