"""Differential proof that the event kernel is bit-identical to the cycle kernel.

The event kernel (``SystemConfig.kernel == "event"``) skips provably idle
spans in one jump; the legacy per-cycle loop (``"cycle"``) is kept as the
reference.  These tests run the *same* simulation under both kernels and
require the full :meth:`~repro.sim.results.SimulationResult.to_dict`
payloads — per-core IPC and stall counts, device command counts, controller
latencies, refresh statistics, and energy — to be equal bit for bit, across
every refresh mechanism, the paper's three DRAM densities and several
workload mixes (latency-bound pointer chasing, bandwidth-bound streaming,
and a mixed intensive/non-intensive pairing).
"""

from __future__ import annotations

import pytest

from repro.config.presets import paper_system
from repro.config.refresh_config import RefreshMechanism
from repro.config.system import SystemConfig
from repro.sim.simulator import Simulator
from repro.workloads.benchmark_suite import get_benchmark
from repro.workloads.mixes import make_workload

#: Short windows keep the full 11 x 3 x 3 matrix fast while still covering
#: several refresh intervals (tREFIpb) and a warmup reset per cell.
CYCLES = 1200
WARMUP = 200

MECHANISMS = [mechanism.value for mechanism in RefreshMechanism]

DENSITIES = (8, 16, 32)

#: Three workload mixes with qualitatively different idle behaviour: the
#: event kernel's skip opportunities (and therefore its code paths) differ
#: between latency-bound waits, saturated bandwidth, and CPU-heavy phases.
MIXES = {
    "latency": ("random_access", "mcf_like"),
    "bandwidth": ("stream_copy", "stream_triad"),
    "mixed": ("tpcc_like", "gcc_like"),
}


def run_kernel(
    kernel: str,
    mechanism: str,
    density: int,
    mix: tuple[str, ...],
    cycles: int = CYCLES,
    warmup: int = WARMUP,
    seed: int = 0,
) -> dict:
    """One simulation under the given kernel, returned as its result dict."""
    config = paper_system(
        density_gb=density, mechanism=mechanism, num_cores=len(mix)
    ).with_kernel(kernel)
    workload = make_workload(
        [get_benchmark(name) for name in mix], name="x".join(mix), seed=seed
    )
    simulator = Simulator(config, workload)
    return simulator.run(cycles, warmup=warmup).to_dict()


@pytest.mark.parametrize("mix_name", sorted(MIXES))
@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_event_kernel_bit_identical(mechanism, density, mix_name):
    mix = MIXES[mix_name]
    reference = run_kernel("cycle", mechanism, density, mix)
    fast = run_kernel("event", mechanism, density, mix)
    assert fast == reference


SCHEDULERS = ("frfcfs", "fcfs", "frfcfs-cap")

PAGE_POLICIES = ("closed", "open")


class TestSchedulerPolicyMatrix:
    """The bit-identity proof extends to every registered scheduler policy.

    Every policy must satisfy the event-kernel contract (``select`` /
    ``last_conflicts`` / ``next_event_cycle``); this matrix runs each
    scheduler x page-policy cell under both kernels and requires the full
    result payloads to match bit for bit.  The refresh mechanisms chosen
    maximize interaction coverage: REFab exercises rank-level quiescing,
    DSARP exercises DARP's out-of-order refreshes plus SARP's
    subarray-conflict bookkeeping (the ``last_conflicts`` replay path).
    """

    @pytest.mark.parametrize("page_policy", PAGE_POLICIES)
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("mechanism", ("refab", "dsarp"))
    def test_policy_matrix_bit_identical(self, mechanism, scheduler, page_policy):
        results = {}
        for kernel in ("cycle", "event"):
            config = (
                paper_system(density_gb=32, mechanism=mechanism, num_cores=2)
                .with_scheduler(scheduler)
                .with_page_policy(page_policy)
                .with_kernel(kernel)
            )
            workload_names = MIXES["mixed"]
            workload = make_workload(
                [get_benchmark(name) for name in workload_names],
                name="x".join(workload_names),
                seed=0,
            )
            simulator = Simulator(config, workload)
            results[kernel] = simulator.run(CYCLES, warmup=WARMUP).to_dict()
        assert results["event"] == results["cycle"]

    def test_policies_actually_differ(self):
        """The matrix is not vacuous: policies produce different schedules."""
        payloads = {}
        workload = make_workload(
            [get_benchmark(name) for name in MIXES["bandwidth"]],
            name="differ",
            seed=0,
        )
        for scheduler, page_policy in (
            ("frfcfs", "closed"),
            ("frfcfs", "open"),
            ("fcfs", "open"),
        ):
            config = (
                paper_system(density_gb=32, mechanism="refab", num_cores=2)
                .with_scheduler(scheduler)
                .with_page_policy(page_policy)
            )
            simulator = Simulator(config, workload)
            result = simulator.run(CYCLES, warmup=WARMUP)
            payloads[(scheduler, page_policy)] = (
                result.device_stats,
                result.controller_stats,
            )
        assert payloads[("frfcfs", "closed")] != payloads[("frfcfs", "open")]
        assert payloads[("frfcfs", "open")] != payloads[("fcfs", "open")]


class TestKernelEquivalenceEdges:
    def test_no_warmup_window(self):
        """The reset-free path (warmup=0) must also match exactly."""
        reference = run_kernel("cycle", "refab", 32, MIXES["latency"], warmup=0)
        fast = run_kernel("event", "refab", 32, MIXES["latency"], warmup=0)
        assert fast == reference

    def test_long_warmup_crossing_refresh_intervals(self):
        """Sleep spans crossing the warmup boundary are flushed correctly."""
        reference = run_kernel(
            "cycle", "refab", 32, MIXES["latency"], cycles=800, warmup=1600
        )
        fast = run_kernel(
            "event", "refab", 32, MIXES["latency"], cycles=800, warmup=1600
        )
        assert fast == reference

    def test_distinct_seeds_stay_identical(self):
        for seed in (1, 7):
            reference = run_kernel("cycle", "dsarp", 32, MIXES["mixed"], seed=seed)
            fast = run_kernel("event", "dsarp", 32, MIXES["mixed"], seed=seed)
            assert fast == reference

    def test_single_core_alone_run(self):
        """The alone-run shape (1 core) exercises the longest sleep spans."""
        reference = run_kernel("cycle", "refab", 32, ("mcf_like",))
        fast = run_kernel("event", "refab", 32, ("mcf_like",))
        assert fast == reference

    def test_darp_pullin_budget(self):
        """A non-zero pull-in budget exercises DARP's widest candidate pools."""
        for kernel_pair in [("cycle", "event")]:
            results = []
            for kernel in kernel_pair:
                config = paper_system(
                    density_gb=32, mechanism="darp", num_cores=2, max_pullin=8
                ).with_kernel(kernel)
                workload = make_workload(
                    [get_benchmark("tpcc_like"), get_benchmark("soplex_like")],
                    name="pullin",
                    seed=3,
                )
                results.append(
                    Simulator(config, workload).run(CYCLES, warmup=WARMUP).to_dict()
                )
            assert results[0] == results[1]


class TestEventHorizons:
    """Semantics of the conservative ``next_event_cycle`` reference chain.

    The hot path uses tighter cached horizons, but the component-level
    methods are the documented API (and the yardstick the tighter code
    must never exceed): they report the earliest expiring timing window
    strictly after ``now``, or ``None`` when nothing is pending.
    """

    def test_bank_reports_earliest_future_deadline(self):
        from repro.dram.bank import Bank

        bank = Bank(index=0, rows=64, subarrays_per_bank=4, rows_per_refresh=8)
        assert bank.next_event_cycle(0) is None
        bank.t_act, bank.t_rd, bank.refresh_until = 50, 30, 40
        assert bank.next_event_cycle(0) == 30
        # Past deadlines are filtered: their conditions hold monotonically.
        assert bank.next_event_cycle(30) == 40
        assert bank.next_event_cycle(99) is None

    def test_rank_includes_tfaw_window_only_when_full(self):
        from repro.dram.bank import Bank
        from repro.dram.rank import Rank

        banks = [
            Bank(index=i, rows=64, subarrays_per_bank=4, rows_per_refresh=8)
            for i in range(2)
        ]
        rank = Rank(index=0, banks=banks)
        assert rank.next_event_cycle(0, tfaw=20) is None
        for cycle in (1, 2, 3):
            rank.act_history.append(cycle)
        assert rank.next_event_cycle(5, tfaw=20) is None  # only 3 of 4
        rank.act_history.append(4)
        assert rank.next_event_cycle(5, tfaw=20) == 21  # oldest(1) + tFAW

    def test_device_horizon_is_min_over_channels(self):
        from repro.config.dram_config import DRAMConfig
        from repro.dram.device import DRAMDevice

        device = DRAMDevice(DRAMConfig.for_density(8))
        assert device.next_event_cycle(0) is None
        device.bank(0, 0, 0).t_act = 70
        device.bank(1, 1, 3).refresh_until = 55
        timings = device.timings
        channel_event = [
            channel.next_event_cycle(0, timings, device.tfaw_in_force)
            for channel in device.channels
        ]
        assert channel_event == [70, 55]
        assert device.next_event_cycle(0) == 55
        # Channel bus deadlines participate too (command-cycle space).
        channel = device.channels[0]
        channel.bus_busy_until = 40
        assert channel.next_event_cycle(
            0, timings, device.tfaw_in_force
        ) == 40 - max(timings.tCL, timings.tCWL)

    def test_memory_system_combines_device_and_controllers(self):
        memory_config = paper_system(mechanism="none", num_cores=1)
        from repro.controller.memory_controller import MemorySystem

        memory = MemorySystem(memory_config)
        assert memory.next_event_cycle(0) is None
        # A pending read arrival is a controller event.
        import heapq

        heapq.heappush(memory.controllers[1]._pending_reads, (33, 0, None))
        assert memory.controllers[1].next_event_cycle(0) == 33
        assert memory.next_event_cycle(0) == 33
        # Device deadlines win when earlier.
        memory.device.bank(0, 0, 0).t_pre = 12
        assert memory.next_event_cycle(0) == 12

    def test_core_horizon_tracks_pure_gap_run(self):
        config = paper_system(mechanism="none", num_cores=1)
        workload = make_workload([get_benchmark("gcc_like")], seed=0)
        simulator = Simulator(config, workload)
        core = simulator.cores[0]
        budget = config.cpu.insts_per_dram_cycle
        core._gap_remaining = 3 * budget + 1
        assert core.pure_gap_ticks() == 3
        assert core.next_event_cycle(100) == 104
        core._gap_remaining = budget - 1
        assert core.pure_gap_ticks() == 0
        # No self-scheduled event: blocked cores are woken by memory.
        assert core.next_event_cycle(100) is None


class TestKernelConfiguration:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            paper_system().with_kernel("warp")

    def test_default_kernel_is_event(self):
        assert SystemConfig().kernel == "event"
        assert paper_system().kernel == "event"

    def test_kernel_excluded_from_fingerprint(self):
        """Bit-identical kernels share cached results: same job key."""
        from tests.conftest import job_key

        config = paper_system()
        assert job_key(config.with_kernel("cycle")) == job_key(
            config.with_kernel("event")
        )

    def test_runner_kernel_override(self):
        from repro.sim.runner import ExperimentRunner

        runner = ExperimentRunner(cycles=100, warmup=0, kernel="cycle")
        job = runner._job(paper_system(), make_workload([get_benchmark("gcc_like")]))
        assert job.config.kernel == "cycle"
        with pytest.raises(ValueError, match="kernel"):
            ExperimentRunner(kernel="warp")
