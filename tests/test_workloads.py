"""Unit tests for trace generators, the benchmark suite and workload mixes."""

import hashlib
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from repro.config.serialize import from_plain, to_plain
from repro.workloads.benchmark_suite import (
    Benchmark,
    benchmark_suite,
    get_benchmark,
    intensive_benchmarks,
    non_intensive_benchmarks,
)
from repro.workloads.generators import (
    GENERATORS,
    _draw_accesses,
    mixed_trace,
    random_trace,
    streaming_trace,
    strided_trace,
)
from repro.workloads.mixes import (
    INTENSITY_CATEGORIES,
    make_workload,
    make_workload_category,
    make_workload_sweep,
    memory_intensive_workloads,
)
from repro.workloads.trace import summarize, take

from tests.conftest import job_key


class TestTake:
    def test_truncated_trace_yields_prefix(self):
        # A finite trace shorter than the requested count returns what it
        # has instead of letting StopIteration escape (which PEP 479 would
        # turn into a RuntimeError inside a consuming generator).
        short = iter(["a", "b", "c"])
        assert take(short, 10) == ["a", "b", "c"]

    def test_exhausted_trace_yields_empty(self):
        trace = iter(())
        assert take(trace, 5) == []
        assert take(trace, 5) == []

    def test_inside_consuming_generator(self):
        def consumer():
            yield take(iter([1, 2]), 4)

        assert list(consumer()) == [[1, 2]]


class TestGenerators:
    def test_streaming_is_sequential_within_runs(self):
        trace = streaming_trace(1 << 20, 0.2, 0.0, seed=1, run_length=16)
        entries = take(trace, 16)
        deltas = [b.address - a.address for a, b in zip(entries, entries[1:])]
        assert deltas.count(64) >= 10

    def test_addresses_stay_within_footprint(self):
        footprint = 1 << 18
        for factory in (streaming_trace, random_trace, mixed_trace):
            entries = take(factory(footprint, 0.2, 0.3, seed=3), 500)
            assert all(0 <= e.address < footprint for e in entries)
        entries = take(
            strided_trace(footprint, 0.2, 0.3, stride_bytes=256, seed=3),
            500,
        )
        assert all(0 <= e.address < footprint for e in entries)

    def test_determinism_per_seed(self):
        a = take(random_trace(1 << 20, 0.1, 0.4, seed=7), 100)
        b = take(random_trace(1 << 20, 0.1, 0.4, seed=7), 100)
        c = take(random_trace(1 << 20, 0.1, 0.4, seed=8), 100)
        assert a == b
        assert a != c

    def test_write_fraction_approximation(self):
        entries = take(random_trace(1 << 22, 0.1, 0.5, seed=2), 4000)
        stats = summarize(entries)
        assert stats["write_fraction"] == pytest.approx(0.5, abs=0.05)

    def test_memory_fraction_approximation(self):
        entries = take(streaming_trace(1 << 22, 0.1, 0.3, seed=2), 4000)
        stats = summarize(entries)
        assert stats["memory_fraction"] == pytest.approx(0.1, rel=0.25)

    def test_dependent_fraction_zero_means_no_dependences(self):
        entries = take(
            random_trace(1 << 20, 0.1, 0.0, seed=1, dependent_fraction=0.0),
            200,
        )
        assert not any(e.depends for e in entries)

    def test_dependent_loads_present_for_pointer_chasing(self):
        entries = take(
            random_trace(1 << 20, 0.1, 0.0, seed=1, dependent_fraction=0.9),
            200,
        )
        assert sum(e.depends for e in entries) > 100

    def test_strided_requires_line_sized_stride(self):
        with pytest.raises(ValueError):
            take(strided_trace(1 << 20, 0.1, 0.0, stride_bytes=32), 1)

    def test_streaming_requires_a_positive_run_length(self):
        with pytest.raises(ValueError, match="run_length"):
            streaming_trace(1 << 20, 0.1, 0.0, run_length=0)

    def test_every_instruction_an_access_means_no_gaps(self):
        for factory in (streaming_trace, random_trace, mixed_trace):
            entries = take(factory(1 << 20, 1.0, 0.3, seed=5), 200)
            assert all(entry.gap == 0 for entry in entries)

    def test_summarize_empty(self):
        assert summarize([])["accesses"] == 0

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.floats(min_value=0.01, max_value=0.9),
    )
    @settings(max_examples=30, deadline=None)
    def test_gap_never_negative(self, seed, memory_fraction):
        entries = take(random_trace(1 << 20, memory_fraction, 0.2, seed=seed), 50)
        assert all(e.gap >= 0 for e in entries)


class TestBenchmarkValidation:
    """Bad fields fail at construction, naming the field."""

    VALID = dict(
        name="custom",
        pattern="random",
        footprint_bytes=1 << 20,
        memory_fraction=0.05,
        write_fraction=0.3,
        intensive=False,
    )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("pattern", "zigzag"),
            ("memory_fraction", 0),
            ("memory_fraction", -0.1),
            ("memory_fraction", 1.5),
            ("memory_fraction", float("nan")),
            ("write_fraction", 1.7),
            ("write_fraction", -0.01),
            ("dependent_fraction", 1.01),
            ("dependent_fraction", -1),
            ("footprint_bytes", 0),
            ("footprint_bytes", 63),
        ],
    )
    def test_bad_field_is_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            Benchmark(**{**self.VALID, field: value})

    def test_strided_stride_below_a_line_is_rejected(self):
        strided = {**self.VALID, "pattern": "strided"}
        with pytest.raises(ValueError, match="stride_bytes"):
            Benchmark(**strided, stride_bytes=32)
        # Other patterns never read the stride.
        Benchmark(**self.VALID, stride_bytes=32)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"memory_fraction": 1.0},
            {"write_fraction": 0.0, "dependent_fraction": 0.0},
            {"write_fraction": 1.0, "dependent_fraction": 1.0},
            {"footprint_bytes": 64},
            {"pattern": "strided", "stride_bytes": 64},
        ],
    )
    def test_edge_values_are_accepted(self, overrides):
        benchmark = Benchmark(**{**self.VALID, **overrides})
        assert len(take(benchmark.trace(), 10)) == 10

    def test_bad_benchmark_from_the_wire_is_refused(self):
        plain = to_plain(get_benchmark("mcf_like"))
        assert from_plain(Benchmark, plain) == get_benchmark("mcf_like")
        with pytest.raises(ValueError, match="memory_fraction"):
            from_plain(Benchmark, {**plain, "memory_fraction": 0})


def trace_digest(benchmark, seed: int, count: int = 20000) -> str:
    digest = hashlib.sha256()
    for entry in islice(benchmark.trace(seed=seed), count):
        digest.update(
            f"{entry.gap},{entry.address},{int(entry.is_write)},"
            f"{int(entry.depends)};".encode()
        )
    return digest.hexdigest()


#: sha256 of the first 20,000 entries of every built-in benchmark's trace
#: at seed 0 and at the warm seed 7919 (``Simulator``'s functional warmup
#: of a seed-0 run).  A change to any generator's draw order, or to the
#: arithmetic of a draw, changes these.
PINNED_TRACES = {
    "stream_copy": {
        0: "f12f42c2e5e11bd690727ea659405ad0d8e87097c216fdcf5f18350c262d3b84",
        7919: "80a468e24fd78a3aacfe76c3fcc9c9360ae97e9dd79f93fd129ec4ca49fc22de",
    },
    "stream_triad": {
        0: "6a21aac917a964e907f0ba64549d7fb22980eae76f7384eb6f65607bba97817a",
        7919: "08f0bf98a54ba1412faf266390f9304993a31c62ec956d34120ff169b977df56",
    },
    "random_access": {
        0: "a63a649075c500a306bee43ae61c96d3307cd2042c953c442b9b3bb133b905bf",
        7919: "7c0edd7d8ab777350632d29b3e29404ddb5da1d06985e8613c75937e12eca801",
    },
    "mcf_like": {
        0: "21d9efb4ce6ab7645c03cfd72dc4bd673256469cf992aabf5e13f56f763a8f30",
        7919: "c4bf8559e877cd3ab526938fe71b23b4de3a823c8db7d4cb99518fd3f9b2181c",
    },
    "libquantum_like": {
        0: "94bf7301b4cb45f0ea59055b3003d9ff0dd824f18b7663130e01a14c52d71cd1",
        7919: "58c0f98f73d48a1251b105a25887670f43971c5b6beb22ff5f2207f01788d507",
    },
    "lbm_like": {
        0: "0d434fc305e64baf3c9fad2de13433af9f2a337958d6646e3667e6bea5b037c7",
        7919: "6472ff1ad8ecd80c74fd590d33656bc5c3ebfb22f14797404366db95bc20665f",
    },
    "milc_like": {
        0: "5c48c6aae20bff527c1f40c3cffef39df61197637c7fe9e641fbb984579a8d83",
        7919: "1fba821647532e4b38ad297cc5c095be63c765da1226ac2162bb445265001393",
    },
    "soplex_like": {
        0: "e5b58ee4cd45255478b92f9b1dd9798618c81904ac17e18b22f32ca8fa2289c4",
        7919: "035959400beca0936e84ec0734e2ce1f7aa1ca8dfe480f76828a4ba54bf98719",
    },
    "gems_like": {
        0: "a3ac12838f286b4bc095d0f41daa033005da643eb29d4f165ba5254715ab1da1",
        7919: "d7d2fe318fa75f924e2f531e193be247faeab50cce4d94c0d7dec0dde0c6caab",
    },
    "tpcc_like": {
        0: "5a7ace03ea9b4ccc6524d9a608539b63c653caff703f009009394a7d7b61a017",
        7919: "2cfeb67c176b63da62f9f09aa10afc70b0ca33eeee0c5e5d5ae105026d5bccc1",
    },
    "gcc_like": {
        0: "07f6d26feb21b8f82e7edc9610b6a0e72eaaf19e1d2f3a1b3bb8229d35694626",
        7919: "c13832166d7726a6ae65bee5bf38dfb28235a4be5362828ab60a6ac1a55fb870",
    },
    "povray_like": {
        0: "a1e9c91575fa2d357c556d5aa4dee517c60a1364cbc1df8cc5b875772ab95d4f",
        7919: "2fc18618e17a6be23344d723ca3a44d54dddcb4d2976b830972cf41accb8e673",
    },
    "calculix_like": {
        0: "1eda9503a9f4bcd68f9500b00af85e0f5e6455180fa4c1a20813890b71204fe7",
        7919: "f5b3dd486e4b806dead0a2f6db3346a51c1e78bba05dfaaf5eff974d059991be",
    },
    "hmmer_like": {
        0: "cfbf5911ee890ab82f099b2517ad441cc5bf2ed5f3fa4bb8b8f5cc01992aae55",
        7919: "c44bd1efc81a7bab8c4461f187bf67986768a17bf99912a23fb5a73622dac2d1",
    },
    "h264_like": {
        0: "a7b2e67020f5d4f6498502e53fbaeaac04d708734256b17fee762d5562b77836",
        7919: "9fe1d06ab3366ada8c95b0cb732ab195b0fb5e451ff003e075d949d44169a366",
    },
    "omnetpp_lite": {
        0: "c9ff910eb83422a363e5f246a6b82bd75dee329dac8ed7146b1f46d1a4c744ce",
        7919: "5dc2f37e811a56a2eb5fed4f1dae23ad451115ca878ed8f0f832fa1102e099b3",
    },
}


class TestTraceIdentity:
    def test_every_builtin_benchmark_is_pinned(self):
        assert set(PINNED_TRACES) == {b.name for b in benchmark_suite()}

    @pytest.mark.parametrize("seed", [0, 7919])
    @pytest.mark.parametrize("name", sorted(PINNED_TRACES))
    def test_trace_matches_its_pinned_digest(self, name, seed):
        expected = PINNED_TRACES[name][seed]
        assert trace_digest(get_benchmark(name), seed) == expected


def trace_pairs(trace, count: int) -> list:
    return [(entry.address, entry.is_write) for entry in islice(trace, count)]


class TestWarmStream:
    """``warm_accesses`` is the trace's ``(address, is_write)``, access by
    access: the LLC warmup fills from it, so any drift in its draws would
    silently change every warmed cache."""

    @pytest.mark.parametrize("seed", [0, 7919])
    @pytest.mark.parametrize("name", sorted(PINNED_TRACES))
    def test_warm_stream_is_the_trace(self, name, seed):
        benchmark = get_benchmark(name)
        warm = list(islice(benchmark.warm_accesses(seed), 20000))
        assert warm == trace_pairs(benchmark.trace(seed=seed), 20000)

    @pytest.mark.parametrize("pattern", sorted(GENERATORS))
    @pytest.mark.parametrize(
        "memory_fraction, write_fraction",
        [(1.0, 0.3), (0.05, 0.0), (0.05, 1.0), (1.0, 0.0), (1.0, 1.0)],
    )
    def test_edge_fractions(self, pattern, memory_fraction, write_fraction):
        benchmark = Benchmark(
            "edge",
            pattern,
            64 * 1024,
            memory_fraction,
            write_fraction,
            False,
            dependent_fraction=0.5,
        )
        warm = list(islice(benchmark.warm_accesses(5), 3000))
        assert warm == trace_pairs(benchmark.trace(seed=5), 3000)
        if write_fraction in (0.0, 1.0):
            assert all(is_write == bool(write_fraction) for _, is_write in warm)

    @pytest.mark.parametrize("burst_length", [1, 3])
    def test_mixed_with_short_bursts(self, burst_length):
        args = (256 * 1024, 0.1, 0.4)
        options = {"seed": 9, "burst_length": burst_length, "streaming_share": 0.3}
        warm = list(islice(mixed_trace(*args, **options, draw=_draw_accesses), 3000))
        assert warm == trace_pairs(mixed_trace(*args, **options), 3000)


class TestBenchmarkSuite:
    def test_suite_has_both_classes(self):
        assert len(intensive_benchmarks()) >= 8
        assert len(non_intensive_benchmarks()) >= 5

    def test_lookup_by_name(self):
        benchmark = get_benchmark("stream_copy")
        assert benchmark.intensive
        assert benchmark.mpki_class == "intensive"
        with pytest.raises(KeyError):
            get_benchmark("does_not_exist")

    def test_every_benchmark_produces_a_trace(self):
        for benchmark in benchmark_suite():
            entries = take(benchmark.trace(seed=0), 50)
            assert len(entries) == 50
            assert all(0 <= e.address < benchmark.footprint_bytes for e in entries)

    def test_non_intensive_footprints_fit_in_llc(self):
        for benchmark in non_intensive_benchmarks():
            assert benchmark.footprint_bytes <= 1024 * 1024

    def test_intensive_footprints_exceed_llc(self):
        for benchmark in intensive_benchmarks():
            assert benchmark.footprint_bytes > 8 * 1024 * 1024

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError, match="pattern"):
            Benchmark("bogus", "zigzag", 1024, 0.1, 0.1, False)


class TestWorkloadMixes:
    def test_category_composition(self):
        for category in INTENSITY_CATEGORIES:
            workload = make_workload_category(category, index=0, num_cores=8)
            intensive = sum(1 for b in workload.benchmarks if b.intensive)
            assert intensive == round(8 * category / 100)
            assert workload.category == category

    def test_category_is_deterministic(self):
        a = make_workload_category(50, index=1, num_cores=8, seed=3)
        b = make_workload_category(50, index=1, num_cores=8, seed=3)
        assert job_key(workload=a) == job_key(workload=b)

    def test_different_indices_differ(self):
        a = make_workload_category(50, index=0, num_cores=8)
        b = make_workload_category(50, index=1, num_cores=8)
        assert job_key(workload=a) != job_key(workload=b)

    def test_invalid_category_rejected(self):
        with pytest.raises(ValueError):
            make_workload_category(10)

    def test_sweep_covers_all_categories(self):
        sweep = make_workload_sweep(workloads_per_category=2)
        assert len(sweep) == 2 * len(INTENSITY_CATEGORIES)
        categories = {workload.category for workload in sweep}
        assert categories == set(INTENSITY_CATEGORIES)

    def test_make_workload_explicit(self):
        workload = make_workload([get_benchmark("mcf_like"), get_benchmark("gcc_like")])
        assert workload.num_cores == 2
        assert "mcf_like" in workload.name
        with pytest.raises(ValueError):
            make_workload([])

    def test_memory_intensive_workloads_all_intensive(self):
        for workload in memory_intensive_workloads(count=3, num_cores=4):
            assert all(b.intensive for b in workload.benchmarks)
