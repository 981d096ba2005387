"""The top-level simulator: cores + caches + memory controller + DRAM.

The simulator advances in DRAM bus cycles.  Every cycle it first ticks the
memory system (which may issue one command per channel and returns read
requests whose data arrived), wakes up the cores waiting on those reads,
and then lets every core execute up to one DRAM cycle's worth of
instructions (``issue_width * cpu_cycles_per_dram_cycle``).
"""

from __future__ import annotations

from itertools import islice
from time import perf_counter
from typing import Optional

import repro.obs.profile as obs_profile
from repro.cache.llc import LastLevelCache
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.warm import WarmStates
from repro.config.system import SystemConfig
from repro.controller.memory_controller import MemorySystem
from repro.cpu.core_model import Core
from repro.power.dram_power import DRAMPowerModel
from repro.sim.results import CoreResult, SimulationResult
from repro.workloads.mixes import Workload


class Simulator:
    """One simulation instance for a (configuration, workload) pair."""

    def __init__(
        self,
        config: SystemConfig,
        workload: Workload,
        seed: int = 0,
        functional_warmup_accesses: Optional[int] = None,
        warm_states: Optional[WarmStates] = None,
    ):
        self.config = config
        self.workload = workload
        self.seed = seed
        #: Warmed LLC states this simulation restores from (and adds to);
        #: a caller running many simulations passes one holder to them all.
        self.warm_states = warm_states if warm_states is not None else WarmStates()
        self.memory = MemorySystem(config)
        self.power_model = DRAMPowerModel(config.dram)
        capacity = self.memory.mapper.capacity_bytes
        region = capacity // max(1, workload.num_cores)
        self.cores: list[Core] = []
        for core_id, benchmark in enumerate(workload.benchmarks):
            trace = benchmark.trace(seed=workload.seed + seed + core_id)
            llc = LastLevelCache(config.cache)
            self._functional_warmup(
                llc, benchmark, core_id * region, functional_warmup_accesses
            )
            self.cores.append(
                Core(
                    core_id=core_id,
                    config=config.cpu,
                    trace=trace,
                    llc=llc,
                    memory=self.memory,
                    address_offset=core_id * region,
                )
            )
        self._current_cycle = 0
        #: Event-kernel core-sleep records, one per core:
        #: ``None`` (awake), ``("ahead", cycle)`` for a core that rolled
        #: ahead and must next be ticked at ``cycle``, or
        #: ``(kind, channel, counter, first_unaccounted)`` for a blocked
        #: core, where ``kind`` is "completion"/"read_queue"/"write_queue",
        #: ``counter`` snapshots the matching retirement counter at sleep
        #: time, and ``first_unaccounted`` is the first cycle whose stall
        #: has not yet been added to the core's statistics.
        self._core_sleep: list = [None] * len(self.cores)
        #: Epoch samples of the most recent :meth:`run` (empty unless
        #: ``config.obs.epoch_interval`` > 0).
        self.epoch_samples: list = []
        if config.obs.epoch_interval > 0:
            from repro.obs.epochs import EpochSampler

            self._epoch_sampler = EpochSampler(config.obs.epoch_interval)
        else:
            self._epoch_sampler = None

    def _functional_warmup(
        self,
        llc: LastLevelCache,
        benchmark,
        address_offset: int,
        accesses: Optional[int],
    ) -> None:
        """Pre-populate a core's LLC so the timed run sees steady-state traffic.

        Short timed windows would otherwise start with a cold (and therefore
        eviction-free) cache, which both under-reports non-intensive hit
        rates and suppresses the dirty-writeback traffic that DARP's
        write-refresh parallelization relies on.  The warmup streams the
        benchmark's ``warm_accesses`` (its trace's addresses and write
        flags) through the cache model only — no DRAM cycles are
        simulated — from its own seed, so the timed run still consumes the
        benchmark's trace from its beginning.

        The warmed state is a pure function of the cache geometry, the
        benchmark, the warm seed, the access count and the address offset.
        The offset splits into a whole number of cache spans (which only
        shifts every tag) and a residue, so the state is warmed once per
        residue in :attr:`warm_states` and restored, tags shifted, into
        every LLC that needs it.  A restore builds each set only when
        the run first touches it.
        """
        cache = self.config.cache
        cache_lines = cache.size_bytes // cache.line_bytes
        if accesses is None:
            footprint_lines = max(1, benchmark.footprint_bytes // cache.line_bytes)
            accesses = min(3 * cache_lines, 4 * footprint_lines)
        if accesses <= 0:
            return
        seed = self.workload.seed + self.seed + 7919
        # One tag step: the address distance that maps back onto a set.
        span = cache.line_bytes * cache.num_sets
        tag_base, residue = divmod(address_offset, span)

        def warm():
            scratch = SetAssociativeCache(
                cache.size_bytes, cache.associativity, cache.line_bytes
            )
            scratch.fill(islice(benchmark.warm_accesses(seed), accesses), residue)
            return scratch.snapshot()

        key = (cache, benchmark, seed, accesses, residue)
        llc.restore(self.warm_states.fetch(key, warm), tag_base)

    # -- execution -------------------------------------------------------------
    def step(self) -> None:
        """Advance the whole system by one DRAM cycle."""
        self._tick(self._current_cycle)
        self._current_cycle += 1

    def _tick(self, cycle: int) -> bool:
        """Advance every component one DRAM cycle; True if anything happened.

        "Anything happened" means an observable state change: a read's
        data arrived, a controller issued a DRAM command, or a core made
        progress (retired instructions, fetched a trace entry, or drained
        a writeback).  When it returns False the whole system is provably
        frozen until the next timing event, which is what licenses the
        event kernel to skip ahead.
        """
        completed = self.memory.tick(cycle)
        for request in completed:
            self.cores[request.core_id].complete_load(request)
        activity = bool(completed) or self.memory.last_tick_issued
        for core in self.cores:
            if core.tick(cycle):
                activity = True
        return activity

    def _wake_core(self, core_id: int, cycle: int) -> None:
        """End a core's sleep, charging the stalls the slept span accrued."""
        record = self._core_sleep[core_id]
        if record is None:
            return
        self._core_sleep[core_id] = None
        self.cores[core_id].skip_stalled_cycles(cycle - record[3])

    def _flush_core_sleep(self) -> None:
        """Materialize lazily accumulated stall cycles of sleeping cores.

        Called at measurement boundaries (warmup reset, end of run) so
        the statistics match the cycle kernel's exactly; the cores stay
        asleep, accounting restarting at the current cycle.  A core that
        is ahead has executed every cycle before the boundary and
        stalled in none of them since its last tick.
        """
        cycle = self._current_cycle
        for core_id, record in enumerate(self._core_sleep):
            if record is not None and record[0] != "ahead":
                self.cores[core_id].skip_stalled_cycles(cycle - record[3])
                self._core_sleep[core_id] = record[:3] + (cycle,)

    def _step_event(self, limit: int) -> None:
        """One event-kernel step: tick what can act, sleep what provably can't.

        Four levels of cycle-skipping compose here, each licensed by a
        frozen-state argument and each replaying exactly the per-cycle
        side effects the cycle kernel would have produced:

        * controllers micro-sleep between their own timing events while
          their queues are untouched (inside
          :meth:`~repro.controller.memory_controller.ChannelController.tick_event`);
        * a core rolls over cycle boundaries while its actions stay local
          (:meth:`~repro.cpu.core_model.Core.tick` with ``limit``) and
          sleeps "ahead" until the cycle its tick returned, where it
          resumes; a read completing for it meanwhile is recorded without
          waking it, since the cycles it ran ahead could not have used it;
        * a core whose tick changed nothing sleeps until its recorded
          wake-up — a data arrival for its own loads, or space in the one
          queue that rejected it — accruing stall cycles lazily;
        * when additionally no command issued or read completed, the
          whole system jumps to the earliest memory event or ahead core's
          resumption (clamped to ``limit`` so measurement windows end
          exactly where the cycle kernel's do).
        """
        cycle = self._current_cycle
        memory = self.memory
        sleep = self._core_sleep
        cores = self.cores
        completed = memory.tick_event(cycle)
        if completed:
            for request in completed:
                core_id = request.core_id
                record = sleep[core_id]
                if record is not None and record[0] != "ahead":
                    self._wake_core(core_id, cycle)
                cores[core_id].complete_load(request)
        controllers = memory.controllers
        next_cycle = cycle + 1
        horizon = limit
        for core_id, core in enumerate(cores):
            record = sleep[core_id]
            if record is not None:
                kind = record[0]
                if kind == "completion":
                    continue
                if kind == "ahead":
                    wake = record[1]
                    if wake > cycle:
                        if wake < horizon:
                            horizon = wake
                        continue
                    sleep[core_id] = None
                else:
                    controller = controllers[record[1]]
                    counter = (
                        controller.read_retires
                        if kind == "read_queue"
                        else controller.write_retires
                    )
                    if counter == record[2]:
                        continue
                    self._wake_core(core_id, cycle)
            wake = core.tick(cycle, limit)
            if wake == next_cycle:
                horizon = next_cycle
            elif wake:
                if wake < horizon:
                    horizon = wake
                sleep[core_id] = ("ahead", wake)
            else:
                reason = core.block_reason
                if reason[0] == "completion":
                    sleep[core_id] = ("completion", -1, -1, next_cycle)
                else:
                    controller = controllers[reason[1]]
                    counter = (
                        controller.read_retires
                        if reason[0] == "read_queue"
                        else controller.write_retires
                    )
                    sleep[core_id] = (reason[0], reason[1], counter, next_cycle)
        self._current_cycle = next_cycle
        if horizon == next_cycle or completed or memory.last_tick_issued:
            return
        next_event = memory.next_skip_event(cycle)
        target = horizon if next_event is None or next_event > horizon else next_event
        skipped = target - next_cycle
        if skipped <= 0:
            return
        memory.skip_idle_cycles(skipped)
        self._current_cycle = target

    def _advance_to(self, limit: int) -> None:
        """Advance the system to ``limit`` using the configured kernel.

        When span profiling is active every kernel step is timed
        individually (``kernel.step_event`` / ``kernel.step``); the
        profiler reference is hoisted out of the loop so the disabled
        path costs one module-attribute load per call.
        """
        profiler = obs_profile.ACTIVE
        if self.config.kernel == "event":
            if profiler is None:
                while self._current_cycle < limit:
                    self._step_event(limit)
            else:
                add = profiler.add
                while self._current_cycle < limit:
                    start = perf_counter()
                    self._step_event(limit)
                    add("kernel.step_event", perf_counter() - start)
        else:
            if profiler is None:
                while self._current_cycle < limit:
                    self.step()
            else:
                add = profiler.add
                while self._current_cycle < limit:
                    start = perf_counter()
                    self.step()
                    add("kernel.step", perf_counter() - start)

    def run(self, cycles: int, warmup: int = 0) -> SimulationResult:
        """Run ``warmup`` + ``cycles`` DRAM cycles and report the measured window.

        With ``config.obs.epoch_interval`` > 0 the measured window is
        advanced in epoch-sized chunks, sampling at every boundary.  The
        chunking cannot change results: each kernel step is already
        clamped to its limit, and the boundary flush only materializes
        stall accounting that would have been charged later anyway — a
        property pinned by the epoch bit-identity tests.
        """
        if cycles <= 0:
            raise ValueError("cycles must be positive")
        with obs_profile.span("sim.warmup"):
            self._advance_to(self._current_cycle + warmup)
        if warmup:
            self._flush_core_sleep()
            self._reset_measurement_state()
        start_cycle = self._current_cycle
        sampler = self._epoch_sampler
        with obs_profile.span("sim.measure"):
            if sampler is None:
                self._advance_to(start_cycle + cycles)
            else:
                sampler.begin(self, start_cycle)
                limit = start_cycle + cycles
                boundary = start_cycle
                while boundary < limit:
                    boundary = min(boundary + sampler.interval, limit)
                    self._advance_to(boundary)
                    self._flush_core_sleep()
                    sampler.sample(self, self._current_cycle)
                self.epoch_samples = sampler.samples
        self._flush_core_sleep()
        elapsed = self._current_cycle - start_cycle
        return self._build_result(elapsed, warmup)

    # -- internals ----------------------------------------------------------------
    def _reset_measurement_state(self) -> None:
        """Clear statistics accumulated during warmup (state is preserved).

        Every holder resets through its schema-driven
        :meth:`~repro.stats.StatsStruct.reset`, so a counter added to a
        schema can never be silently carried across the warmup boundary.
        """
        for core in self.cores:
            core.reset_stats()
        if self.memory.tracer is not None:
            # The trace should cover exactly the measured window, so its
            # totals can be cross-checked against the run's aggregates.
            self.memory.tracer.reset()
        self.memory.device.stats.reset()
        for controller in self.memory.controllers:
            controller.stats.reset()
            controller.refresh_policy.stats.reset()
        for channel in self.memory.device.channels:
            channel.stats.reset()

    def _build_result(self, elapsed: int, warmup: int) -> SimulationResult:
        core_results = []
        for core, benchmark in zip(self.cores, self.workload.benchmarks):
            stats = core.stats
            core_results.append(
                CoreResult(
                    core_id=core.core_id,
                    benchmark=benchmark.name,
                    instructions=stats.instructions,
                    ipc=core.ipc(elapsed),
                    mpki=stats.mpki(),
                    dram_reads=stats.dram_reads_issued,
                    dram_writes=stats.dram_writes_issued,
                    stall_cycles=stats.stall_cycles,
                )
            )
        device_stats = self.memory.device.stats.as_dict()
        # Schema-driven cross-channel merge: counters sum, while the
        # latency averages are recomputed from the merged raw totals (a
        # per-channel-average sum would be meaningless).
        controller_stats = self.memory.merged_controller_stats()
        energy = self.power_model.energy(self.memory.device.stats, elapsed)
        return SimulationResult(
            workload=self.workload.name,
            mechanism=self.config.refresh.mechanism.value,
            density_gb=self.config.dram.density_gb,
            cycles=elapsed,
            warmup_cycles=warmup,
            cores=core_results,
            device_stats=device_stats,
            controller_stats=controller_stats,
            refresh_stats=self.memory.refresh_policy_stats(),
            energy=energy.as_dict(),
        )
