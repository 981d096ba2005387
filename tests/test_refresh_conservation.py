"""Refresh work is conserved: what is issued is what fell due, less what is owed.

For REFab, REFpb, elastic, AR, DARP and DSARP under both kernels, the
REFab and REFpb commands a device accepts are counted from the raw
command stream and checked against the refresh schedule, which the test
re-derives from the run length, tREFI and the rank stagger alone:

    issued == accrued - sum of ``refresh_debt`` at the end of the run

A policy that dropped a due refresh, issued one twice or misreported
what it still owes fails here, whichever kernel runs it.
"""

from __future__ import annotations

import functools

import pytest

from repro.config.presets import paper_system
from repro.dram.commands import CommandType
from repro.sim.simulator import Simulator
from repro.workloads.benchmark_suite import get_benchmark
from repro.workloads.mixes import make_workload

WARMUP = 300
CYCLES = 7500
PER_BANK = {"refpb", "darp", "dsarp"}
#: The benchmarks of each mechanism's 2-core cell.  Adaptive refresh
#: takes its 4x granularity only on ranks without demand, which the two
#: intensive benchmarks never leave, so its cell runs a lighter mix that
#: issues both granularities.
MIX = ("random_access", "stream_copy")
AR_MIX = ("mcf_like", "hmmer_like")


def accrued(interval: int, ranks: int, last_cycle: int) -> int:
    """Refreshes one channel's ranks fall due for in cycles 0..``last_cycle``.

    Rank ``r`` first owes one at ``interval * (r + 1) // ranks`` (the
    ranks are staggered across the interval; a lone rank at ``interval``)
    and then every ``interval`` cycles.
    """
    total = 0
    for rank in range(ranks):
        first = interval * (rank + 1) // ranks
        if last_cycle >= first:
            total += (last_cycle - first) // interval + 1
    return total


@functools.lru_cache(maxsize=None)
def counted_run(mechanism: str, kernel: str) -> tuple[int, int, int, set]:
    """Run one 2-core cell; return (issued, accrued, owed at the end, the
    set of REFab durations seen).

    Adaptive refresh mixes 1x and 4x REFab commands, so for ``ar`` the
    first three count quarter refreshes: a 1x REFab (``duration ==
    tRFCab``) pays four, a shorter 4x one pays one.
    """
    config = paper_system(density_gb=32, mechanism=mechanism, num_cores=2)
    config = config.with_kernel(kernel)
    names = AR_MIX if mechanism == "ar" else MIX
    workload = make_workload(
        [get_benchmark(name) for name in names], name="conservation", seed=0
    )
    simulator = Simulator(config, workload)
    device = simulator.memory.device
    timings = config.dram.timings
    units = 4 if mechanism == "ar" else 1
    issued = 0
    durations = set()
    original_issue = device.issue

    def issue(command, cycle):
        nonlocal issued
        if command.kind is CommandType.REFPB:
            issued += 1
        elif command.kind is CommandType.REFAB:
            duration = command.duration or timings.tRFCab
            durations.add(duration)
            if units == 1 or duration == timings.tRFCab:
                issued += units
            else:
                assert duration < timings.tRFCab
                issued += 1
        return original_issue(command, cycle)

    device.issue = issue
    simulator.run(CYCLES, warmup=WARMUP)

    organization = config.dram.organization
    interval = timings.tREFIpb if mechanism in PER_BANK else timings.tREFIab
    due = len(simulator.memory.controllers) * accrued(
        interval, organization.ranks_per_channel, WARMUP + CYCLES - 1
    )
    owed = sum(
        controller.refresh_policy.refresh_debt(rank)
        for controller in simulator.memory.controllers
        for rank in range(organization.ranks_per_channel)
    )
    return issued, due * units, owed, durations


@pytest.mark.parametrize("kernel", ["event", "cycle"])
@pytest.mark.parametrize(
    "mechanism", ["refab", "refpb", "elastic", "ar", "darp", "dsarp"]
)
def test_issued_is_accrued_minus_owed(mechanism, kernel):
    issued, due, owed, _ = counted_run(mechanism, kernel)
    assert issued > 0
    assert issued == due - owed


@pytest.mark.parametrize("kernel", ["event", "cycle"])
def test_darp_ends_the_run_owing_refreshes(kernel):
    # Conservation must hold with debt outstanding, not only when every
    # due refresh was paid: DARP postpones refreshes to busy banks.
    issued, due, owed, _ = counted_run("darp", kernel)
    assert owed > 0
    assert issued == due - owed


@pytest.mark.parametrize("kernel", ["event", "cycle"])
def test_adaptive_cell_counts_both_granularities(kernel):
    # The quarter accounting is only checked if 4x REFabs issue too.
    durations = counted_run("ar", kernel)[3]
    assert len(durations) == 2
