"""Unit and property tests for the last-level cache."""

import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.llc import LastLevelCache
from repro.cache.set_assoc import HIT, MISS, SetAssociativeCache
from repro.cache.warm import WarmStates
from repro.config.cpu_config import CacheConfig
from repro.config.presets import paper_system
from repro.sim.simulator import Simulator
from repro.workloads.benchmark_suite import Benchmark, get_benchmark
from repro.workloads.mixes import make_workload
from repro.workloads.trace import take


def small_cache(size=8 * 1024, assoc=4, line=64) -> SetAssociativeCache:
    return SetAssociativeCache(size_bytes=size, associativity=assoc, line_bytes=line)


class TestSetAssociativeCache:
    def test_miss_then_hit(self):
        cache = small_cache()
        first = cache.access(0, is_write=False)
        second = cache.access(0, is_write=False)
        assert not first.hit
        assert second.hit
        assert cache.hits == 1
        assert cache.misses == 1

    def test_same_line_different_offsets_hit(self):
        cache = small_cache()
        cache.access(0, is_write=False)
        assert cache.access(63, is_write=False).hit
        assert not cache.access(64, is_write=False).hit

    def test_lru_eviction_order(self):
        cache = small_cache(size=4 * 64 * 1, assoc=4, line=64)  # 1 set, 4 ways
        for i in range(4):
            cache.access(i * 64, is_write=False)
        cache.access(0, is_write=False)  # touch line 0, making line 1 the LRU
        cache.access(4 * 64, is_write=False)  # evicts line 1
        assert cache.contains(0)
        assert not cache.contains(64)

    def test_dirty_eviction_produces_writeback(self):
        cache = small_cache(size=4 * 64, assoc=4, line=64)
        cache.access(0, is_write=True)
        for i in range(1, 4):
            cache.access(i * 64, is_write=False)
        result = cache.access(4 * 64, is_write=False)
        assert result.writeback_address == 0
        assert cache.writebacks == 1

    def test_clean_eviction_has_no_writeback(self):
        cache = small_cache(size=4 * 64, assoc=4, line=64)
        for i in range(5):
            result = cache.access(i * 64, is_write=False)
        assert result.writeback_address is None
        assert cache.writebacks == 0

    def test_write_hit_marks_dirty(self):
        cache = small_cache(size=4 * 64, assoc=4, line=64)
        cache.access(0, is_write=False)
        cache.access(0, is_write=True)
        for i in range(1, 4):
            cache.access(i * 64, is_write=False)
        result = cache.access(4 * 64, is_write=False)
        assert result.writeback_address == 0

    def test_outcomes_without_writeback_are_shared_constants(self):
        cache = small_cache(size=4 * 64, assoc=4, line=64)
        assert cache.access(0, is_write=True) is MISS
        assert cache.access(0, is_write=False) is HIT
        for i in range(1, 4):
            cache.access(i * 64, is_write=False)
        evicting = cache.access(4 * 64, is_write=False)
        assert evicting is not MISS
        assert not evicting.hit and evicting.writeback_address == 0
        assert MISS.writeback_address is None

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(size_bytes=1000, associativity=3, line_bytes=64)

    def test_miss_rate_and_reset(self):
        cache = small_cache()
        cache.access(0, is_write=False)
        cache.access(0, is_write=False)
        assert cache.miss_rate == pytest.approx(0.5)
        cache.reset_stats()
        assert cache.hits == 0 and cache.misses == 0
        assert cache.miss_rate == 0.0

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=1 << 20), st.booleans()), max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, accesses):
        cache = small_cache(size=2 * 1024, assoc=2, line=64)
        capacity_lines = 2 * 1024 // 64
        for address, is_write in accesses:
            cache.access(address, is_write)
            assert cache.occupancy() <= capacity_lines

    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=200),
    )
    @settings(max_examples=50, deadline=None)
    def test_most_recent_line_always_resident(self, addresses):
        cache = small_cache(size=2 * 1024, assoc=2, line=64)
        for address in addresses:
            cache.access(address, is_write=False)
            assert cache.contains(address)


class TestLastLevelCache:
    def test_wraps_paper_geometry(self):
        llc = LastLevelCache(CacheConfig())
        assert llc.miss_rate == 0.0
        result = llc.access(0, is_write=False)
        assert not result.hit
        assert llc.misses == 1
        assert llc.mpki(1000) == 1.0

    def test_line_address(self):
        llc = LastLevelCache(CacheConfig())
        assert llc.line_address(130) == 128

    def test_contains_does_not_disturb_lru(self):
        llc = LastLevelCache(
            CacheConfig(size_bytes=4 * 64, associativity=4, line_bytes=64),
        )
        llc.access(0, is_write=False)
        assert llc.contains(0)
        assert not llc.contains(64)
        assert llc.hits == 0 and llc.misses == 1

    def test_mpki_zero_for_no_instructions(self):
        llc = LastLevelCache(CacheConfig())
        assert llc.mpki(0) == 0.0


# -- snapshot / restore and the warm-state holder ---------------------------

SMALL = CacheConfig(size_bytes=8 * 1024, associativity=4, line_bytes=64)
SPAN = SMALL.line_bytes * SMALL.num_sets


def resident(llc: LastLevelCache) -> list:
    """Every set's ``(tag, dirty)`` items in LRU order."""
    return [list(cache_set.items()) for cache_set in llc._sets]


def random_accesses(count: int = 3000, seed: int = 3) -> list:
    rng = random.Random(seed)
    return [(rng.randrange(64 * SPAN), rng.random() < 0.4) for _ in range(count)]


def warmed_directly(accesses, offset: int, config: CacheConfig = SMALL):
    llc = LastLevelCache(config)
    for address, is_write in accesses:
        llc.access(llc.line_address(offset + address), is_write)
    llc.reset_stats()
    return llc


def warm_simulator(warm_states: WarmStates) -> Simulator:
    config = paper_system(density_gb=8, mechanism="none", num_cores=1)
    workload = make_workload([get_benchmark("gcc_like")])
    return Simulator(
        config, workload, functional_warmup_accesses=0, warm_states=warm_states
    )


def warmed_by_simulator(sim: Simulator, benchmark, offset: int, accesses: int):
    llc = LastLevelCache(sim.config.cache)
    sim._functional_warmup(llc, benchmark, offset, accesses)
    return llc


def warmed_reference(sim: Simulator, benchmark, offset: int, accesses: int):
    """The warmup without reuse: stream the warm trace at the real offset."""
    trace = benchmark.trace(seed=sim.workload.seed + sim.seed + 7919)
    entries = [next(trace) for _ in range(accesses)]
    return warmed_directly(
        [(entry.address, entry.is_write) for entry in entries],
        offset,
        sim.config.cache,
    )


class TestSnapshotRestore:
    @pytest.mark.parametrize("residue", [0, 7 * 64, 1000])
    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_restore_with_tag_shift_equals_warming_at_the_offset(self, k, residue):
        accesses = random_accesses()
        snapshot = warmed_directly(accesses, residue).snapshot()
        restored = LastLevelCache(SMALL)
        restored.restore(snapshot, k)
        direct = warmed_directly(accesses, k * SPAN + residue)
        assert resident(restored) == resident(direct)

    @pytest.mark.parametrize("residue", [0, 1000])
    @pytest.mark.parametrize(
        "name", ["hmmer_like", "calculix_like", "povray_like", "gcc_like"]
    )
    def test_fill_leaves_the_sets_access_leaves(self, name, residue):
        benchmark = get_benchmark(name)
        entries = take(benchmark.trace(seed=7919), 5000)
        filled = small_cache()
        filled.fill(islice(benchmark.warm_accesses(7919), 5000), residue)
        accessed = LastLevelCache(SMALL)
        for entry in entries:
            accessed.access(residue + entry.address, entry.is_write)
        # Every footprint overflows the small cache, so lines are evicted
        # dirty and clean; all but the strided sweep also re-touch lines.
        assert accessed.writebacks
        assert accessed.misses - accessed.writebacks > SMALL.size_bytes // 64
        assert accessed.hits or name == "calculix_like"
        assert [list(s.items()) for s in filled._sets] == resident(accessed)
        assert (filled.hits, filled.misses, filled.writebacks) == (0, 0, 0)

    def test_restored_caches_share_no_sets(self):
        snapshot = warmed_directly(random_accesses(), 0).snapshot()
        first, second = LastLevelCache(SMALL), LastLevelCache(SMALL)
        first.restore(snapshot)
        second.restore(snapshot)
        assert resident(first) == resident(second)
        assert all(a is not b for a, b in zip(first._sets, second._sets))
        before = resident(second)
        for address, is_write in random_accesses(500, seed=9):
            first.access(address, is_write)
        assert resident(second) == before
        third = LastLevelCache(SMALL)
        third.restore(snapshot)
        assert resident(third) == before

    def test_restore_resets_statistics_and_keeps_dirty_flags_boolean(self):
        snapshot = warmed_directly(random_accesses(), 0).snapshot()
        llc = LastLevelCache(SMALL)
        llc.access(0, is_write=True)
        llc.restore(snapshot)
        assert (llc.hits, llc.misses, llc.writebacks) == (0, 0, 0)
        flags = {type(dirty) for items in resident(llc) for _, dirty in items}
        assert flags == {bool}

    def test_restore_rejects_another_geometry(self):
        snapshot = LastLevelCache(SMALL).snapshot()
        with pytest.raises(ValueError):
            LastLevelCache(CacheConfig()).restore(snapshot)


class TestWarmStates:
    def test_fetch_warms_once_then_serves_the_stored_snapshot(self):
        holder = WarmStates()
        calls = []

        def warm():
            calls.append(1)
            return LastLevelCache(SMALL).snapshot()

        first = holder.fetch("a", warm)
        assert holder.fetch("a", warm) is first
        assert len(calls) == 1
        assert (holder.hits, holder.misses, len(holder)) == (1, 1, 1)

    def test_least_recently_used_snapshot_is_evicted(self, monkeypatch):
        monkeypatch.setattr(WarmStates, "CAPACITY", 2)
        holder = WarmStates()
        snapshot = LastLevelCache(SMALL).snapshot()
        for key in ("a", "b", "a", "c"):
            holder.fetch(key, lambda: snapshot)
        assert len(holder) == 2
        warmed = []
        holder.fetch("a", lambda: warmed.append("a") or snapshot)
        holder.fetch("b", lambda: warmed.append("b") or snapshot)
        assert warmed == ["b"]

    def test_holder_restores_equal_direct_warming(self):
        # One benchmark per trace pattern: the holder warms with the bulk
        # fill, the reference with one ``access`` per trace entry.
        names = ("stream_copy", "calculix_like", "mcf_like", "gcc_like")
        holder = WarmStates()
        sim = warm_simulator(holder)
        span = sim.config.cache.line_bytes * sim.config.cache.num_sets
        for name in names:
            benchmark = get_benchmark(name)
            for k in (0, 1, 3, 64):
                for residue in (0, 64, 1000):
                    offset = k * span + residue
                    warmed = warmed_by_simulator(sim, benchmark, offset, 3000)
                    reference = warmed_reference(sim, benchmark, offset, 3000)
                    assert resident(warmed) == resident(reference), (name, offset)
        # One warmup per benchmark and residue; every other offset is a
        # tag shift.
        assert (holder.misses, holder.hits) == (3 * len(names), 9 * len(names))

    def test_eviction_leaves_results_unchanged(self, monkeypatch):
        benchmarks = [get_benchmark("gcc_like"), get_benchmark("hmmer_like")]
        roomy = warm_simulator(WarmStates())
        monkeypatch.setattr(WarmStates, "CAPACITY", 1)
        tight_holder = WarmStates()
        tight = warm_simulator(tight_holder)
        for round_ in range(2):
            for index, benchmark in enumerate(benchmarks):
                offset = (round_ * 2 + index) * (1 << 30)
                evicted = warmed_by_simulator(tight, benchmark, offset, 2000)
                kept = warmed_by_simulator(roomy, benchmark, offset, 2000)
                assert resident(evicted) == resident(kept)
        assert tight_holder.hits == 0 and len(tight_holder) == 1

    def test_custom_benchmarks_sharing_a_name_do_not_share_state(self):
        small = Benchmark("custom", "random", 64 * 1024, 0.05, 0.3, False)
        large = Benchmark("custom", "random", 16 * 1024 * 1024, 0.05, 0.3, False)
        holder = WarmStates()
        sim = warm_simulator(holder)
        for benchmark in (small, large):
            warmed = warmed_by_simulator(sim, benchmark, 0, 3000)
            reference = warmed_reference(sim, benchmark, 0, 3000)
            assert resident(warmed) == resident(reference)
        assert holder.misses == 2 and holder.hits == 0
