"""The synthetic benchmark suite.

Benchmarks are grouped like the paper's (Section 5): *memory-intensive*
(last-level-cache MPKI >= 10) and *memory non-intensive* (MPKI < 10).
Each benchmark is a parameterization of one of the trace generators; the
``*_like`` names indicate which real workload's memory behaviour class the
parameters imitate (footprint, intensity, access pattern, write share) —
they are not the real programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.config.serialize import check_fields
from repro.workloads.generators import GENERATORS, LINE_BYTES, _draw_accesses
from repro.workloads.trace import TraceEntry

KB = 1024
MB = 1024 * 1024


@dataclass(frozen=True)
class Benchmark:
    """A synthetic benchmark: a named, parameterized trace generator."""

    name: str
    pattern: str
    footprint_bytes: int
    memory_fraction: float
    write_fraction: float
    intensive: bool
    stride_bytes: int = 256
    #: Fraction of loads that depend on earlier outstanding loads
    #: (pointer chasing); higher values make the benchmark latency-bound.
    dependent_fraction: float = 0.3

    def __post_init__(self) -> None:
        check_fields(self)
        # Benchmarks also arrive over the remote wire, so a bad field must
        # fail here, by name, not as an arithmetic error deep in a warmup.
        if self.pattern not in GENERATORS:
            known = ", ".join(sorted(GENERATORS))
            raise ValueError(f"unknown pattern {self.pattern!r}; known: {known}")
        if not 0.0 < self.memory_fraction <= 1.0:
            raise ValueError(
                f"memory_fraction must be in (0, 1], got {self.memory_fraction!r}"
            )
        for name in ("write_fraction", "dependent_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.footprint_bytes < LINE_BYTES:
            raise ValueError(
                f"footprint_bytes must be at least one {LINE_BYTES} B line, "
                f"got {self.footprint_bytes!r}"
            )
        if self.pattern == "strided" and self.stride_bytes < LINE_BYTES:
            raise ValueError(
                f"stride_bytes must be at least one {LINE_BYTES} B line, "
                f"got {self.stride_bytes!r}"
            )

    def trace(self, seed: int = 0) -> Iterator[TraceEntry]:
        """Instantiate the benchmark's (infinite, reproducible) trace."""
        options = {"seed": seed, "dependent_fraction": self.dependent_fraction}
        if self.pattern == "strided":
            options["stride_bytes"] = self.stride_bytes
        return GENERATORS[self.pattern](
            self.footprint_bytes, self.memory_fraction, self.write_fraction, **options
        )

    def warm_accesses(self, seed: int = 0) -> Iterator[tuple[int, bool]]:
        """``(address, is_write)`` of every access :meth:`trace` yields.

        The same draws in the same order as the trace of ``seed``, without
        building entries: what a functional cache warmup consumes.
        """
        options = {
            "seed": seed,
            "dependent_fraction": self.dependent_fraction,
            "draw": _draw_accesses,
        }
        if self.pattern == "strided":
            options["stride_bytes"] = self.stride_bytes
        return GENERATORS[self.pattern](
            self.footprint_bytes, self.memory_fraction, self.write_fraction, **options
        )

    @property
    def mpki_class(self) -> str:
        return "intensive" if self.intensive else "non-intensive"


_SUITE: tuple[Benchmark, ...] = (
    # -- memory intensive (MPKI >= 10) ------------------------------------
    # The memory fractions are chosen so the post-LLC MPKI lands in the
    # 15-60 range typical of the paper's memory-intensive benchmarks; the
    # dependent fractions make pointer-chasing benchmarks latency-bound and
    # streaming benchmarks bandwidth-bound.
    Benchmark("stream_copy", "streaming", 128 * MB, 0.045, 0.45, True, dependent_fraction=0.20),
    Benchmark("stream_triad", "streaming", 192 * MB, 0.060, 0.33, True, dependent_fraction=0.20),
    Benchmark("random_access", "random", 256 * MB, 0.040, 0.50, True, dependent_fraction=0.85),
    Benchmark("mcf_like", "random", 96 * MB, 0.035, 0.20, True, dependent_fraction=0.70),
    Benchmark("libquantum_like", "streaming", 64 * MB, 0.040, 0.25, True, dependent_fraction=0.25),
    Benchmark("lbm_like", "strided", 128 * MB, 0.040, 0.45, True, stride_bytes=1024, dependent_fraction=0.30),
    Benchmark("milc_like", "strided", 96 * MB, 0.030, 0.30, True, stride_bytes=512, dependent_fraction=0.35),
    Benchmark("soplex_like", "mixed", 64 * MB, 0.025, 0.25, True, dependent_fraction=0.40),
    Benchmark("gems_like", "streaming", 160 * MB, 0.035, 0.30, True, dependent_fraction=0.30),
    Benchmark("tpcc_like", "mixed", 128 * MB, 0.020, 0.35, True, dependent_fraction=0.50),
    # -- memory non-intensive (MPKI < 10) ----------------------------------
    Benchmark("gcc_like", "mixed", 192 * KB, 0.10, 0.30, False, dependent_fraction=0.30),
    Benchmark("povray_like", "random", 96 * KB, 0.08, 0.20, False, dependent_fraction=0.30),
    Benchmark("calculix_like", "strided", 256 * KB, 0.06, 0.30, False, stride_bytes=128, dependent_fraction=0.20),
    Benchmark("hmmer_like", "streaming", 128 * KB, 0.12, 0.35, False, dependent_fraction=0.10),
    Benchmark("h264_like", "mixed", 320 * KB, 0.07, 0.25, False, dependent_fraction=0.30),
    Benchmark("omnetpp_lite", "random", 768 * KB, 0.04, 0.30, False, dependent_fraction=0.50),
)

_BY_NAME = {benchmark.name: benchmark for benchmark in _SUITE}


def benchmark_suite() -> tuple[Benchmark, ...]:
    """Every benchmark in the suite."""
    return _SUITE


def get_benchmark(name: str) -> Benchmark:
    """Look a benchmark up by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown benchmark {name!r}; known: {known}") from None


def intensive_benchmarks() -> tuple[Benchmark, ...]:
    """Benchmarks classified as memory intensive (MPKI >= 10)."""
    return tuple(b for b in _SUITE if b.intensive)


def non_intensive_benchmarks() -> tuple[Benchmark, ...]:
    """Benchmarks classified as memory non-intensive (MPKI < 10)."""
    return tuple(b for b in _SUITE if not b.intensive)
