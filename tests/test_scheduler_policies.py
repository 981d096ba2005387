"""Tests for the pluggable scheduler/page-policy architecture.

Covers the registry contract (unknown-name errors, duplicate protection),
the configuration threading (``SystemConfig.to_dict``/``from_dict`` round
trips, fingerprint/cache-key distinctness per policy, sweep-axis
application), the behavioural differences between the registered policies,
and the guarantee that the default registry reproduces the pre-refactor
baseline bit-identically.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.config.controller_config import PAGE_POLICIES, ControllerConfig
from repro.config.presets import paper_system
from repro.config.system import SystemConfig
from repro.controller.memory_controller import MemorySystem
from repro.controller.policies import (
    CappedRowHitScheduler,
    FCFSScheduler,
    FRFCFSScheduler,
    SchedulerPolicy,
    create_scheduler,
    register_scheduler,
    scheduler_class,
    scheduler_descriptions,
    scheduler_names,
)
from repro.dram.commands import CommandType
from repro.engine.jobs import SimulationJob
from repro.sim.simulator import Simulator
from repro.sweep.compile import build_config
from repro.sweep.spec import Axis, SweepSpec
from repro.workloads.benchmark_suite import get_benchmark
from repro.workloads.mixes import make_workload

from tests.conftest import job_key


class TestRegistry:
    def test_all_policies_registered(self):
        assert scheduler_names() == ("fcfs", "frfcfs", "frfcfs-cap")

    def test_registered_classes(self):
        assert scheduler_class("frfcfs") is FRFCFSScheduler
        assert scheduler_class("fcfs") is FCFSScheduler
        assert scheduler_class("frfcfs-cap") is CappedRowHitScheduler

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="unknown scheduler policy 'warp'"):
            scheduler_class("warp")
        with pytest.raises(ValueError, match="frfcfs"):
            create_scheduler("warp", controller=None)

    def test_duplicate_registration_rejected(self):
        class Duplicate(FRFCFSScheduler):
            name = "frfcfs"

        with pytest.raises(ValueError, match="already registered"):
            register_scheduler(Duplicate)

    def test_unnamed_policy_rejected(self):
        class Nameless(SchedulerPolicy):
            def select(self, cycle):
                return None

            def next_event_cycle(self, now):
                return None

        with pytest.raises(ValueError, match="declares no name"):
            register_scheduler(Nameless)

    def test_descriptions_cover_every_policy(self):
        descriptions = scheduler_descriptions()
        assert set(descriptions) == set(scheduler_names())
        assert all(descriptions.values())


class TestConfigThreading:
    def test_unknown_scheduler_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="unknown scheduler policy"):
            ControllerConfig(scheduler="warp")

    def test_unknown_page_policy_rejected(self):
        with pytest.raises(ValueError, match="ControllerConfig.page_policy"):
            ControllerConfig(page_policy="ajar")

    def test_row_hit_cap_validated(self):
        with pytest.raises(ValueError, match="row_hit_cap"):
            ControllerConfig(row_hit_cap=0)

    def test_with_helpers(self):
        config = paper_system()
        assert config.controller.scheduler == "frfcfs"
        assert config.controller.page_policy == "closed"
        swapped = config.with_scheduler("fcfs").with_page_policy("open")
        assert swapped.controller.scheduler == "fcfs"
        assert swapped.controller.page_policy == "open"
        # Everything else is untouched.
        assert swapped.dram == config.dram and swapped.refresh == config.refresh

    def test_system_config_dict_round_trip(self):
        config = paper_system(density_gb=32, mechanism="dsarp", num_cores=4)
        config = config.with_scheduler("frfcfs-cap").with_page_policy("open")
        # Through JSON, so the payload is genuinely serializable.
        payload = json.loads(json.dumps(config.to_dict()))
        assert SystemConfig.from_dict(payload) == config
        assert payload["controller"]["scheduler"] == "frfcfs-cap"
        assert payload["controller"]["page_policy"] == "open"

    def test_from_dict_rejects_unknown_keys(self):
        payload = paper_system().to_dict()
        payload["controller"]["sched"] = "frfcfs"
        with pytest.raises(ValueError, match="unknown ControllerConfig keys: sched"):
            SystemConfig.from_dict(payload)

    def test_from_dict_revalidates(self):
        payload = paper_system().to_dict()
        payload["controller"]["scheduler"] = "warp"
        with pytest.raises(ValueError, match="unknown scheduler policy"):
            SystemConfig.from_dict(payload)

    def test_fingerprints_differ_per_policy(self):
        base = paper_system()
        keys = {job_key(base)}
        for scheduler in scheduler_names():
            for page_policy in PAGE_POLICIES:
                config = base.with_scheduler(scheduler).with_page_policy(page_policy)
                keys.add(job_key(config))
        # 3 schedulers x 2 page policies; the default combination collides
        # with `base` by design (it *is* the default).
        assert len(keys) == 6

    def test_row_hit_cap_inert_for_schedulers_that_ignore_it(self):
        """Sweeping row_hit_cap under frfcfs/fcfs must not split the cache:
        the knob is only in the job key under the scheduler that reads it."""
        base = paper_system()
        for scheduler in ("frfcfs", "fcfs"):
            config = base.with_scheduler(scheduler)
            recapped = replace(
                config, controller=replace(config.controller, row_hit_cap=16)
            )
            assert job_key(recapped) == job_key(config)
        capped = base.with_scheduler("frfcfs-cap")
        recapped = replace(
            capped, controller=replace(capped.controller, row_hit_cap=16)
        )
        assert job_key(recapped) != job_key(capped)

    def test_page_policy_descriptions_cover_every_policy(self):
        from repro.config.controller_config import PAGE_POLICY_DESCRIPTIONS

        assert tuple(PAGE_POLICY_DESCRIPTIONS) == PAGE_POLICIES
        assert all(PAGE_POLICY_DESCRIPTIONS.values())

    def test_job_cache_keys_differ_per_policy(self):
        workload = make_workload([get_benchmark("gcc_like")], seed=0)

        def key(config):
            return SimulationJob(
                config=config, workload=workload, cycles=100, warmup=0, seed=0
            ).key()

        base = paper_system(num_cores=1)
        keys = {
            key(base.with_scheduler(s).with_page_policy(p))
            for s in scheduler_names()
            for p in PAGE_POLICIES
        }
        assert len(keys) == 6
        # The kernel stays excluded: both kernels share cached results.
        assert key(base.with_kernel("cycle")) == key(base.with_kernel("event"))


class TestRunnerOverrides:
    def test_runner_override_applies_to_jobs_and_fingerprints(self):
        from repro.sim.runner import ExperimentRunner

        runner = ExperimentRunner(
            cycles=100, warmup=0, scheduler="fcfs", page_policy="open"
        )
        workload = make_workload([get_benchmark("gcc_like")], seed=0)
        job = runner._job(paper_system(), workload)
        assert job.config.controller.scheduler == "fcfs"
        assert job.config.controller.page_policy == "open"
        # The memo key must agree with the identity of the overridden
        # config, or _result_for's fast path never hits under an override.
        overridden = paper_system().with_scheduler("fcfs").with_page_policy("open")
        assert job.key() == job_key(overridden, workload)
        assert runner._job(paper_system(), workload) is job

    def test_runner_rejects_unknown_overrides(self):
        from repro.sim.runner import ExperimentRunner

        with pytest.raises(ValueError, match="unknown scheduler policy"):
            ExperimentRunner(cycles=100, warmup=0, scheduler="warp")
        with pytest.raises(ValueError, match="ControllerConfig.page_policy"):
            ExperimentRunner(cycles=100, warmup=0, page_policy="ajar")

    def test_cli_sweep_flags_do_not_clobber_swept_axes(self):
        """--scheduler on `repro sweep` folds into the spec's base, so a
        spec that sweeps the scheduler axis keeps its axis intact."""
        from repro.cli import _apply_policy_flags

        swept = SweepSpec(
            name="swept",
            axes=(Axis("scheduler", ("frfcfs", "fcfs")),),
            mechanisms=("refab",),
            baseline="refab",
        )
        folded = _apply_policy_flags(swept, "frfcfs-cap", "open")
        assert folded.base == {"scheduler": "frfcfs-cap", "page_policy": "open"}
        assert folded.axes == swept.axes
        # Axis values beat the folded base during compilation.
        assert build_config(folded, {"scheduler": "fcfs"}).controller.scheduler == "fcfs"
        # A spec not sweeping the knob picks the flag up as its new default.
        assert (
            build_config(folded, {}).controller.page_policy == "open"
        )
        # No flags: the spec passes through untouched.
        assert _apply_policy_flags(swept, None, None) is swept


class TestSweepAxis:
    def test_scheduler_axis_expands_and_applies(self):
        spec = SweepSpec(
            name="sched",
            axes=(
                Axis("scheduler", ("frfcfs", "fcfs")),
                Axis("page_policy", ("closed", "open")),
            ),
            mechanisms=("refab",),
            baseline="refab",
        )
        assert spec.num_points() == 4
        config = build_config(spec, {"scheduler": "fcfs", "page_policy": "open"})
        assert config.controller.scheduler == "fcfs"
        assert config.controller.page_policy == "open"

    def test_row_hit_cap_axis_applies(self):
        spec = SweepSpec(
            name="cap",
            axes=(Axis("row_hit_cap", (1, 4, 16)),),
            base={"scheduler": "frfcfs-cap"},
            mechanisms=("refab",),
            baseline="refab",
        )
        config = build_config(spec, {"row_hit_cap": 16})
        assert config.controller.scheduler == "frfcfs-cap"
        assert config.controller.row_hit_cap == 16

    def test_spec_fingerprints_differ_per_scheduler_point(self):
        spec = SweepSpec(
            name="sched",
            axes=(Axis("scheduler", ("frfcfs", "fcfs", "frfcfs-cap")),),
            mechanisms=("refab",),
            baseline="refab",
        )
        keys = {
            job_key(build_config(spec, {"scheduler": name}))
            for name in ("frfcfs", "fcfs", "frfcfs-cap")
        }
        assert len(keys) == 3

    def test_spec_json_round_trip_keeps_policy_axes(self):
        spec = SweepSpec(
            name="sched",
            axes=(Axis("scheduler", ("frfcfs", "fcfs")),),
            mechanisms=("refab",),
            baseline="refab",
        )
        assert SweepSpec.from_json(spec.to_json()) == spec


def _memory(scheduler="frfcfs", page_policy="closed", **kwargs) -> MemorySystem:
    config = (
        paper_system(mechanism="none", **kwargs)
        .with_scheduler(scheduler)
        .with_page_policy(page_policy)
    )
    return MemorySystem(config)


def _enqueue_on_channel0(memory, addresses, cycle=0):
    kept = []
    for offset, address in enumerate(addresses):
        request = memory.access(address, False, core_id=0, cycle=cycle + offset)
        if request is not None and request.location.channel == 0:
            kept.append(request)
    return kept


#: Address strides on channel 0 of the default organization (the channel
#: bit is address bit 6, so consecutive cache lines alternate channels):
#: next column of the same row, next bank, next row of the same bank.
COLUMN_STRIDE = 128
BANK_STRIDE = 16384
ROW_STRIDE = 262144


class TestFCFSBehaviour:
    def test_no_open_row_preference(self):
        """A younger row hit never jumps an older request in another bank.

        FR-FCFS prefers the younger hit; plain FCFS activates for the
        older request first — the defining difference between the two.
        """
        for scheduler_name in ("frfcfs", "fcfs"):
            memory = _memory(scheduler_name)
            mapper = memory.mapper
            loc0 = mapper.decode(0)
            controller = memory.controllers[loc0.channel]
            # Open row 0 of bank 0 by serving a first request's ACT; then
            # enqueue an *older* request to another bank and a *younger*
            # row hit to the open row.
            first = memory.access(0, False, core_id=0, cycle=0)
            assert first is not None
            selection = controller.scheduler.select(0)
            assert selection is not None and selection[0].kind is CommandType.ACT
            controller.device.issue(selection[0], 0)
            controller.queues.remove(first)

            older = memory.access(BANK_STRIDE, False, core_id=0, cycle=1)
            younger = memory.access(COLUMN_STRIDE, False, core_id=0, cycle=2)
            assert older is not None and younger is not None
            assert older.location.channel == loc0.channel
            assert younger.location == mapper.decode(COLUMN_STRIDE)

            late = 100  # every timing window has expired by then
            command, _ = controller.scheduler.select(late)
            if scheduler_name == "frfcfs":
                assert command.kind in (CommandType.RD, CommandType.RDA)
                assert command.row == loc0.row
            else:
                assert command.kind is CommandType.ACT
                assert command.bank == older.location.bank


def _drive_hit_stream(memory, stream_length: int):
    """Open row 0 of (channel 0, bank 0), enqueue an older conflicting
    request to row 1, then a stream of younger row-0 hits; issue scheduler
    selections until the bank precharges.

    Returns ``(hits_served_before_precharge, stream_length)``.
    """
    loc0 = memory.mapper.decode(0)
    controller = memory.controllers[loc0.channel]
    scheduler = controller.scheduler

    opener = memory.access(0, False, core_id=0, cycle=0)
    assert opener is not None
    cycle = 0
    hits_served = 0  # every column hit to row 0, the opener's included
    while opener in controller.queues.reads[opener.bank_key]:
        selection = scheduler.select(cycle)
        if selection is not None:
            command, request = selection
            controller.device.issue(command, cycle)
            if command.kind.is_column and request is not None:
                controller.queues.remove(request)
                hits_served += 1
        cycle += 1
    # Row 0 is now open.  The conflicting request arrives first (older)...
    victim = memory.access(ROW_STRIDE, False, core_id=0, cycle=cycle)
    assert victim is not None and victim.location.row != loc0.row
    assert victim.bank_key == opener.bank_key
    # ... followed by a stream of younger hits to the open row.
    for index in range(1, stream_length + 1):
        request = memory.access(
            index * COLUMN_STRIDE, False, core_id=0, cycle=cycle + index
        )
        assert request is not None and request.location.row == loc0.row

    for cycle in range(cycle, cycle + 3000):
        selection = scheduler.select(cycle)
        if selection is None:
            continue
        command, request = selection
        controller.device.issue(command, cycle)
        if command.kind.is_column and request is not None:
            controller.queues.remove(request)
            if request.location.row == loc0.row:
                hits_served += 1
        if command.kind is CommandType.PRE:
            return hits_served, stream_length
    raise AssertionError("bank never precharged")


class TestRowHitCap:
    def test_streak_forces_precharge(self):
        """After ``row_hit_cap`` hits, the older conflicting request wins.

        Under the open page policy plain FR-FCFS serves younger row hits
        for as long as any are pending; the capped variant demotes the
        bank after the streak and precharges for the waiting request.
        """
        memory = _memory("frfcfs-cap", "open")
        cap = memory.config.controller.row_hit_cap
        scheduler = memory.controllers[0].scheduler
        assert isinstance(scheduler, CappedRowHitScheduler)
        hits_before_precharge, stream_length = _drive_hit_stream(
            memory, stream_length=cap + 4
        )
        # The streak includes the hit that followed the row's ACT, so
        # exactly `cap` consecutive hits issue before the forced close —
        # with younger hits still pending.
        assert hits_before_precharge == cap < stream_length

    def test_uncapped_frfcfs_starves_conflicting_request(self):
        """Control case: without the cap the whole hit stream jumps the
        older conflicting request — the bank only closes once every hit
        has been served."""
        memory = _memory("frfcfs", "open")
        stream = memory.config.controller.row_hit_cap + 4
        hits_before_precharge, stream_length = _drive_hit_stream(
            memory, stream_length=stream
        )
        assert hits_before_precharge == stream_length + 1  # + the opener's hit


class TestDefaultRegistryBaseline:
    def test_default_matches_explicit_frfcfs_closed(self):
        """The registry default reproduces the pre-refactor baseline.

        A simulation under the untouched default configuration must be
        bit-identical to one that names the baseline policies explicitly —
        the pluggable architecture is a pure refactor for the default
        point.  (The golden Table 2 / Figure 13 fixtures in
        ``tests/test_golden_regression.py`` pin the default registry to the
        pre-refactor numbers across the full experiment pipeline.)
        """
        workload = make_workload(
            [get_benchmark("tpcc_like"), get_benchmark("mcf_like")], seed=0
        )
        default = Simulator(paper_system(num_cores=2), workload)
        explicit = Simulator(
            paper_system(num_cores=2)
            .with_scheduler("frfcfs")
            .with_page_policy("closed"),
            workload,
        )
        assert (
            default.run(800, warmup=100).to_dict()
            == explicit.run(800, warmup=100).to_dict()
        )

    def test_controller_uses_configured_scheduler(self):
        for name, cls in (
            ("frfcfs", FRFCFSScheduler),
            ("fcfs", FCFSScheduler),
            ("frfcfs-cap", CappedRowHitScheduler),
        ):
            memory = _memory(name)
            assert type(memory.controllers[0].scheduler) is cls


class TestSkipHorizonAccessor:
    def test_skip_horizon_matches_components(self):
        import heapq

        memory = _memory()
        controller = memory.controllers[0]
        assert controller.skip_horizon(0) is None
        # A cached sleep horizon is reported...
        controller._sleep_until = 40
        assert controller.skip_horizon(0) == 40
        # ... the earliest pending-read arrival wins when sooner ...
        heapq.heappush(controller._pending_reads, (25, 0, None))
        assert controller.skip_horizon(0) == 25
        # ... past events are filtered ...
        assert controller.skip_horizon(30) == 40
        # ... and the memory system's reference scan aggregates across
        # controllers (the calendar-backed next_skip_event is covered by
        # its own suite).
        other = memory.controllers[1]
        other._sleep_until = 10
        assert memory.scan_skip_event(0) == 10
        # The calendar starts fully pinned — with no controller having
        # posted yet, next_skip_event never promises more than one cycle.
        assert memory.next_skip_event(0) == 1
        # Once every controller posts its horizon, the calendar answers
        # with the earliest live posting.
        controller._post_wake()
        other._post_wake()
        assert memory.next_skip_event(0) == 1  # other: _sleep_until==10 but
        # version mismatch pins it (fresh queues were never synced)
        other._sleep_queue_version = other.queues.version
        other._post_wake()
        controller._sleep_queue_version = controller.queues.version
        controller._post_wake()
        assert memory.next_skip_event(0) == 10
