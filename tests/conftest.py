"""Shared fixtures for the test suite.

The fixtures favour small systems (2 cores, short windows) so the full test
suite runs quickly while still exercising every subsystem end to end.
"""

from __future__ import annotations

import pytest

from repro.config.presets import paper_system
from repro.config.refresh_config import RefreshMechanism
from repro.sim.simulator import Simulator
from repro.workloads.benchmark_suite import get_benchmark
from repro.workloads.mixes import make_workload


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help=(
            "rewrite the checked-in golden JSON fixtures under tests/golden/ "
            "with freshly computed values instead of comparing against them"
        ),
    )


@pytest.fixture
def update_golden(request: pytest.FixtureRequest) -> bool:
    """True when the run should regenerate golden fixtures."""
    return request.config.getoption("--update-golden")


def small_system(mechanism: str = "refab", density_gb: int = 32, **kwargs):
    """A 2-core version of the paper's system for quick end-to-end tests."""
    return paper_system(
        density_gb=density_gb, mechanism=mechanism, num_cores=2, **kwargs
    )


def small_workload(names=("stream_copy", "random_access"), seed: int = 0):
    """A small multi-programmed workload from named benchmarks."""
    return make_workload([get_benchmark(name) for name in names], seed=seed)


def job_key(config=None, workload=None, cycles: int = 100, warmup: int = 0,
            seed: int = 0) -> str:
    """The job key of a (config, workload) pair in a fixed small window;
    either one defaults to the paper's system / :func:`small_workload`."""
    from repro.engine.jobs import SimulationJob

    return SimulationJob(
        config=config if config is not None else paper_system(),
        workload=workload if workload is not None else small_workload(),
        cycles=cycles,
        warmup=warmup,
        seed=seed,
    ).key()


def quick_run(mechanism: str = "refab", cycles: int = 6000, warmup: int = 1000,
              density_gb: int = 32, names=("stream_copy", "random_access"), **kwargs):
    """Run a small simulation and return its result."""
    config = small_system(mechanism=mechanism, density_gb=density_gb, **kwargs)
    workload = small_workload(names)
    simulator = Simulator(config, workload)
    return simulator.run(cycles, warmup=warmup)


@pytest.fixture(scope="session")
def refab_small_result():
    """A cached small REFab run shared by read-only integration tests."""
    return quick_run("refab")


@pytest.fixture(scope="session")
def none_small_result():
    """A cached small no-refresh run shared by read-only integration tests."""
    return quick_run("none")


@pytest.fixture(scope="session")
def dsarp_small_result():
    """A cached small DSARP run shared by read-only integration tests."""
    return quick_run("dsarp")


@pytest.fixture
def mechanisms_all():
    return [mechanism.value for mechanism in RefreshMechanism]
