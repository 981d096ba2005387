"""Unit tests for every refresh policy (the paper's core mechanisms)."""

import pytest

from repro.config.presets import paper_system
from repro.config.refresh_config import RefreshMechanism
from repro.controller.memory_controller import MemorySystem
from repro.core.adaptive import AdaptiveRefreshPolicy
from repro.core.all_bank import AllBankRefreshPolicy
from repro.core.darp import DARPPolicy
from repro.core.elastic import ElasticRefreshPolicy
from repro.core.factory import create_refresh_policy
from repro.core.no_refresh import NoRefreshPolicy
from repro.core.per_bank import PerBankRefreshPolicy
from repro.sim.simulator import Simulator
from repro.workloads.mixes import make_workload_category


def memory_for(mechanism: str, **kwargs) -> MemorySystem:
    return MemorySystem(paper_system(mechanism=mechanism, **kwargs))


def run_cycles(memory: MemorySystem, cycles: int, start: int = 0):
    for cycle in range(start, start + cycles):
        memory.tick(cycle)


class TestFactory:
    def test_mapping(self):
        config = paper_system()
        cases = {
            "none": NoRefreshPolicy,
            "refab": AllBankRefreshPolicy,
            "sarpab": AllBankRefreshPolicy,
            "fgr2x": AllBankRefreshPolicy,
            "fgr4x": AllBankRefreshPolicy,
            "refpb": PerBankRefreshPolicy,
            "sarppb": PerBankRefreshPolicy,
            "elastic": ElasticRefreshPolicy,
            "darp": DARPPolicy,
            "dsarp": DARPPolicy,
            "ar": AdaptiveRefreshPolicy,
        }
        for name, expected_type in cases.items():
            policy = create_refresh_policy(config.with_mechanism(name), channel_id=0)
            assert isinstance(policy, expected_type), name

    def test_sarp_enabled_only_for_sarp_mechanisms(self):
        for name, expected in (("refpb", False), ("sarppb", True), ("dsarp", True), ("refab", False)):
            memory = memory_for(name)
            assert memory.device.sarp_enabled is expected


class TestNoRefresh:
    def test_never_issues(self):
        memory = memory_for("none")
        run_cycles(memory, memory.device.timings.tREFIab * 2)
        assert memory.device.stats.all_bank_refreshes == 0
        assert memory.device.stats.per_bank_refreshes == 0


class TestAllBankPolicy:
    def test_refresh_rate_matches_trefi(self):
        memory = memory_for("refab")
        t = memory.device.timings
        intervals = 4
        run_cycles(memory, t.tREFIab * intervals + t.tRFCab)
        # 2 channels x 2 ranks, one refresh per rank per interval.
        expected = 4 * intervals
        assert abs(memory.device.stats.all_bank_refreshes - expected) <= 4

    def test_blocks_demand_while_pending(self):
        memory = memory_for("refab")
        controller = memory.controllers[0]
        policy = controller.refresh_policy
        t = memory.device.timings
        assert not policy.blocks_demand(0, 0, 0)
        # Advance the schedule so a refresh becomes pending without letting
        # the controller issue it (accrue directly).
        policy.accrue(t.tREFIab + 1)
        assert policy.refresh_debt(0) >= 1 or policy.refresh_debt(1) >= 1
        blocked_rank = 0 if policy.refresh_debt(0) else 1
        assert policy.blocks_demand(t.tREFIab + 1, blocked_rank, 0)


class TestPerBankPolicy:
    def test_round_robin_order(self):
        memory = memory_for("refpb")
        controller = memory.controllers[0]
        policy = controller.refresh_policy
        t = memory.device.timings
        # Issue a few refreshes so the issue pointer leaves bank 0, then
        # owe more than one round of banks without issuing any.
        start = t.tREFIpb * 5
        run_cycles(memory, start)
        policy.accrue(start + t.tREFIpb * (policy.num_banks + 3))
        # The owed banks are the consecutive round-robin run starting at
        # the issue pointer, wrapping as often as the rank owes.
        pointers = set()
        for rank in range(policy.num_ranks):
            head = policy.pending_bank(rank)
            owed = policy.refresh_debt(rank)
            assert owed > policy.num_banks and head is not None
            expected = [0] * policy.num_banks
            for step in range(owed):
                expected[(head + step) % policy.num_banks] += 1
            banks = range(policy.num_banks)
            assert [policy.refresh_debt(rank, bank) for bank in banks] == expected
            pointers.add(head)
        assert pointers != {0}

    def test_blocks_only_head_bank(self):
        memory = memory_for("refpb")
        policy = memory.controllers[0].refresh_policy
        t = memory.device.timings
        policy.accrue(t.tREFIpb * policy.num_ranks + 1)
        for rank in range(policy.num_ranks):
            head = policy.pending_bank(rank)
            if head is None:
                continue
            assert policy.blocks_demand(0, rank, head)
            assert not policy.blocks_demand(0, rank, (head + 1) % policy.num_banks)

    def test_refresh_rate_eight_times_refab(self):
        memory = memory_for("refpb")
        t = memory.device.timings
        intervals = 2
        run_cycles(memory, t.tREFIab * intervals + t.tRFCpb)
        expected = 4 * 8 * intervals  # 4 ranks, 8 per-bank refreshes per tREFIab
        assert abs(memory.device.stats.per_bank_refreshes - expected) <= 8


class TestElasticPolicy:
    def test_tracks_refab_rate_under_load(self):
        # With the steady-state backlog, elastic must pay roughly one refresh
        # per tREFIab per rank even though it may shift them slightly.
        memory = memory_for("elastic")
        t = memory.device.timings
        intervals = 5
        run_cycles(memory, t.tREFIab * intervals + t.tRFCab)
        refab = memory_for("refab")
        run_cycles(refab, t.tREFIab * intervals + t.tRFCab)
        assert memory.device.stats.all_bank_refreshes >= refab.device.stats.all_bank_refreshes - 8

    def test_effective_postpone_budget_reduced(self):
        policy = create_refresh_policy(paper_system(mechanism="elastic"), 0)
        assert policy._effective_postpone == max(
            1,
            policy.refresh_config.max_postpone - policy.refresh_config.steady_state_backlog,
        )


class TestDARPPolicy:
    def test_debt_never_exceeds_jedec_limits(self):
        memory = memory_for("darp")
        t = memory.device.timings
        run_cycles(memory, t.tREFIab * 3)
        for controller in memory.controllers:
            policy = controller.refresh_policy
            for rank in range(policy.num_ranks):
                for bank in range(policy.num_banks):
                    debt = policy.refresh_debt(rank, bank)
                    assert -policy.refresh_config.max_pullin <= debt
                    assert debt <= policy.refresh_config.max_postpone

    def test_refresh_work_conserved(self):
        # DARP must not refresh less than the round-robin baseline would
        # (modulo the +-8 commands the standard allows per bank).
        memory = memory_for("darp")
        baseline = memory_for("refpb")
        t = memory.device.timings
        cycles = t.tREFIab * 4
        run_cycles(memory, cycles)
        run_cycles(baseline, cycles)
        assert (
            memory.device.stats.per_bank_refreshes
            >= baseline.device.stats.per_bank_refreshes - 8 * 4
        )

    def test_blocks_demand_only_when_credit_exhausted(self):
        policy = create_refresh_policy(paper_system(mechanism="darp"), 0)
        memory = memory_for("darp")
        policy.bind(memory.controllers[0])
        t = memory.device.timings
        max_postpone = policy.refresh_config.max_postpone
        # Let bank (0, 0) owe refresh after refresh, issuing none: demand
        # to it flows until its postpone credit is exhausted.
        cycle = 0
        while policy.refresh_debt(0, 0) < max_postpone:
            assert not policy.blocks_demand(cycle, 0, 0)
            cycle += t.tREFIpb
            policy.accrue(cycle)
        assert policy.refresh_debt(0, 0) == max_postpone
        assert policy.blocks_demand(cycle, 0, 0)

    def test_write_mode_candidate_picks_least_loaded_bank(self):
        memory = memory_for("darp")
        controller = memory.controllers[0]
        policy = controller.refresh_policy
        # Load bank (0, 0) with a request; the candidate must avoid it.
        memory.access(0, is_write=True, core_id=0, cycle=0)
        loaded_key = None
        for key in controller.queues.bank_keys:
            if controller.queues.demand_count(key) > 0:
                loaded_key = key
        if loaded_key is not None and loaded_key[0] == 0:
            candidate = policy._write_mode_candidate(0)
            assert candidate != loaded_key[1]

    def test_ablation_flag_disables_out_of_order(self):
        config = paper_system(mechanism="darp", enable_out_of_order=False)
        policy = create_refresh_policy(config, 0)
        memory = MemorySystem(config)
        run_cycles(memory, memory.device.timings.tREFIab * 2)
        # It still refreshes (like baseline per-bank refresh).
        assert memory.device.stats.per_bank_refreshes > 0

    @pytest.mark.parametrize("mechanism", ["darp", "dsarp"])
    def test_draw_tick_answer_is_whether_the_pools_are_empty(self, mechanism):
        # wants_draw_ticks answers without rebuilding a stale pool cache;
        # on every call of a real 8-core run it must still say exactly
        # whether post_demand would draw.  The check rebuilds the pools
        # aside and puts the cache back, so the run takes the same paths.
        # Only a pull-in budget makes post_demand draw at all; on a
        # half-intensive mix the banks both keep idle slack to pull in and
        # sometimes all reach the budget, so both answers occur.
        config = paper_system(
            density_gb=32, mechanism=mechanism, num_cores=8, max_pullin=8
        )
        sim = Simulator(config, make_workload_category(50, index=0, num_cores=8))
        answers = {True: 0, False: 0}
        stale = 0
        for controller in sim.memory.controllers:
            policy = controller.refresh_policy
            answer = policy.wants_draw_ticks

            def checked(policy=policy, answer=answer):
                nonlocal stale
                cache = policy._pool_cache
                stale += cache is None or cache[0] != (
                    policy.controller.queues.idle_version
                )
                result = answer()
                expected = bool(policy._post_demand_pools())
                policy._pool_cache = cache
                assert result == expected
                answers[result] += 1
                return result

            policy.wants_draw_ticks = checked
        sim.run(1500, warmup=300)
        assert answers[True] and answers[False] and stale

    @pytest.mark.parametrize("mechanism", ["darp", "dsarp"])
    def test_step_three_pool_is_blocked_without_a_pullin_budget(self, mechanism):
        # At max_pullin = 0, post_demand does not draw.  That is exact
        # because its pools are the owed idle banks pre_demand step 2 has
        # just tried: whenever pre_demand and select both come back empty,
        # no pool bank passes the REFpb legality test, so no draw could
        # have issued.
        config = paper_system(
            density_gb=32, mechanism=mechanism, num_cores=8
        ).with_kernel("cycle")
        sim = Simulator(config, make_workload_category(100, index=0, num_cores=8))
        checked = 0
        for controller in sim.memory.controllers:
            policy = controller.refresh_policy
            outcome = {}

            def recorded(name, hook, outcome=outcome):
                def wrapper(cycle):
                    outcome[name] = hook(cycle)
                    return outcome[name]

                return wrapper

            policy.pre_demand = recorded("pre", policy.pre_demand)
            controller.scheduler.select = recorded(
                "select", controller.scheduler.select
            )

            def tick(cycle, inner=controller.tick, policy=policy, outcome=outcome):
                nonlocal checked
                outcome.clear()
                completed = inner(cycle)
                if outcome["pre"] is None and outcome.get("select", 1) is None:
                    for rank, pool in policy._post_demand_pools():
                        rank_obj = policy.device.rank(policy.channel_id, rank)
                        for bank in pool:
                            bank_obj = rank_obj.banks[bank]
                            assert (
                                bank_obj.open_row is not None
                                or cycle < bank_obj.t_act
                                or cycle < bank_obj.refresh_until
                                or cycle < rank_obj.refab_until
                                or cycle < rank_obj.pb_refresh_until
                            )
                            checked += 1
                return completed

            controller.tick = tick
        result = sim.run(1500, warmup=300)
        assert checked > 0 and result.refresh_stats["postponed"] > 0


class TestAdaptivePolicy:
    def test_issues_refresh_work(self):
        memory = memory_for("ar")
        t = memory.device.timings
        run_cycles(memory, t.tREFIab * 3)
        assert memory.device.stats.all_bank_refreshes >= 4

    def test_mode_selection_prefers_1x_under_pressure(self):
        memory = memory_for("ar")
        controller = memory.controllers[0]
        policy = controller.refresh_policy
        # With an idle rank the policy may use the fine-granularity mode.
        assert policy._select_mode(0) == 4
        # Under demand pressure it falls back to the cheaper 1x mode.
        address = 0
        while controller.queues.rank_demand_count(0) < policy.refresh_config.ar_pressure_threshold:
            request = memory.access(address, is_write=False, core_id=0, cycle=0)
            address += 128
        assert policy._select_mode(0) == 1


class TestRefreshStats:
    def test_stats_dict_keys(self):
        for mechanism in RefreshMechanism:
            policy = create_refresh_policy(paper_system(mechanism=mechanism), 0)
            stats = policy.stats_dict()
            assert set(stats) == {
                "all_bank_issued",
                "per_bank_issued",
                "postponed",
                "pulled_in",
                "forced",
                "write_mode_refreshes",
            }
