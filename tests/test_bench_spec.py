"""Tests for the benchmark spec registry and the result-document schema."""

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    BenchContext,
    BenchDocument,
    BenchError,
    BenchRecord,
    BenchSpec,
    all_specs,
    get_spec,
    run_specs,
)
from repro.sim.runner import ExperimentRunner

#: Benchmark names that ``benchmarks/baseline.json`` and
#: ``benchmarks/history/`` are keyed by; the quick tier must keep
#: covering all of them.
PORTED_BENCHMARKS = (
    "ablation_darp_components",
    "ablation_dsarp_additivity",
    "engine_scaling",
    "figure05_trfc_trend",
    "figure06_refab_loss",
    "figure07_refab_vs_refpb",
    "figure12_workload_sweep",
    "figure13_all_mechanisms",
    "figure14_energy",
    "figure15_memory_intensity",
    "figure16_fgr",
    "kernel_speedup",
    "sweep_cache",
    "table2_summary",
    "table3_core_count",
    "table4_tfaw",
    "table5_subarrays",
    "table6_refresh_interval",
)


class TestRegistry:
    def test_quick_tier_covers_every_ported_benchmark(self):
        names = {spec.name for spec in all_specs("quick")}
        for expected in PORTED_BENCHMARKS:
            assert expected in names
        assert len(names) >= 18

    def test_full_tier_is_a_superset_of_quick(self):
        quick = {spec.name for spec in all_specs("quick")}
        everything = {spec.name for spec in all_specs("full")}
        assert quick < everything  # kernel_speedup_full is full-only

    def test_every_spec_has_description_and_valid_tier(self):
        for spec in all_specs():
            assert spec.description, spec.name
            assert spec.tier in ("quick", "full")

    def test_unknown_name_rejected_with_known_names_listed(self):
        with pytest.raises(BenchError, match="unknown benchmark"):
            get_spec("figure99")

    def test_unknown_tier_rejected(self):
        with pytest.raises(BenchError, match="unknown tier"):
            all_specs("medium")


class TestBenchSpecValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(BenchError):
            BenchSpec(name="", target=lambda context: None)

    def test_bad_tier_rejected(self):
        with pytest.raises(BenchError, match="tier"):
            BenchSpec(name="x", target=lambda context: None, tier="slow")

    def test_non_callable_target_rejected(self):
        with pytest.raises(BenchError, match="callable"):
            BenchSpec(name="x", target="not-a-function")

    def test_nonpositive_max_regression_rejected(self):
        with pytest.raises(BenchError, match="max_regression"):
            BenchSpec(name="x", target=lambda context: None, max_regression=0.0)

    def test_artifact_defaults_to_name(self):
        spec = BenchSpec(name="x", target=lambda context: None)
        assert spec.artifact == "x"


def make_record(name="bench_a", wall=1.0, **kwargs):
    return BenchRecord(name=name, tier="quick", wall_clock_s=wall, **kwargs)


def make_document(records, tier="quick"):
    return BenchDocument(
        tier=tier, created_utc="2026-07-30T00:00:00Z", benchmarks=list(records)
    )


class TestDocumentRoundTrip:
    def test_json_round_trip_preserves_everything(self):
        document = make_document(
            [
                make_record(
                    metrics={"gmean": 1.5},
                    timings={"speedup": 4.5},
                    engine={"jobs": 10, "simulated": 7},
                    max_regression=0.5,
                ),
                make_record(name="bench_b", wall=0.25, checks_passed=False,
                            error="check failed: trend"),
            ]
        )
        document.environment = {"python": "3.12.0", "cycles": 26000}
        restored = BenchDocument.from_json(document.to_json())
        assert restored.to_dict() == document.to_dict()
        assert restored.schema_version == SCHEMA_VERSION
        assert restored.record("bench_a").metrics == {"gmean": 1.5}
        assert restored.record("bench_b").checks_passed is False
        assert not restored.ok

    def test_save_and_load(self, tmp_path):
        document = make_document([make_record()])
        path = document.save(tmp_path / "nested" / "BENCH_test.json")
        assert BenchDocument.load(path).to_dict() == document.to_dict()

    def test_non_document_json_rejected(self):
        with pytest.raises(BenchError, match="benchmark"):
            BenchDocument.from_json("[1, 2, 3]")
        with pytest.raises(BenchError, match="invalid benchmark JSON"):
            BenchDocument.from_json("{not json")
        with pytest.raises(BenchError, match="schema"):
            BenchDocument.from_json('{"schema": "something.else", "benchmarks": []}')

    def test_duplicate_records_rejected(self):
        data = make_document([make_record(), make_record()]).to_dict()
        with pytest.raises(BenchError, match="duplicate"):
            BenchDocument.from_dict(data)

    def test_invalid_wall_clock_rejected(self):
        data = make_document([make_record()]).to_dict()
        data["benchmarks"][0]["wall_clock_s"] = -1.0
        with pytest.raises(BenchError, match="wall_clock_s"):
            BenchDocument.from_dict(data)

    def test_non_numeric_metric_rejected(self):
        data = make_document([make_record()]).to_dict()
        data["benchmarks"][0]["metrics"] = {"gmean": "fast"}
        with pytest.raises(BenchError, match="metrics"):
            BenchDocument.from_dict(data)


class TestRunSpecs:
    def _context_spec(self, **kwargs):
        def target(context):
            """A tiny inline benchmark."""
            assert isinstance(context, BenchContext)
            return {"value": 2.0}

        defaults = dict(
            name="inline",
            target=target,
            metrics=lambda payload: {"value": payload["value"]},
            timings=lambda payload: {"wall": 0.001},
        )
        defaults.update(kwargs)
        return BenchSpec(**defaults)

    def test_run_produces_a_schema_valid_document(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        spec = self._context_spec(format=lambda payload: f"value={payload['value']}")
        document = run_specs([spec], runner=ExperimentRunner(cycles=100, warmup=10))
        assert document.schema_version == SCHEMA_VERSION
        assert document.ok
        record = document.record("inline")
        assert record.metrics == {"value": 2.0}
        assert record.engine["jobs"] == 0
        assert (tmp_path / "inline.txt").read_text() == "value=2.0\n"
        # The whole document survives a JSON round trip.
        restored = BenchDocument.from_json(document.to_json())
        assert restored.to_dict() == document.to_dict()

    def test_failing_check_is_recorded_not_raised(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))

        def checks(payload, context):
            assert payload["value"] > 10, "value too small"

        spec = self._context_spec(checks=checks)
        document = run_specs([spec], runner=ExperimentRunner(cycles=100, warmup=10))
        record = document.record("inline")
        assert record.checks_passed is False
        assert "value too small" in record.error
        assert not document.ok

    def test_raising_metrics_extractor_is_isolated_too(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))

        def bad_metrics(payload):
            raise KeyError("shape changed")

        specs = [
            self._context_spec(name="bad_extractor", metrics=bad_metrics),
            self._context_spec(),
        ]
        document = run_specs(specs, runner=ExperimentRunner(cycles=100, warmup=10))
        assert document.record("bad_extractor").checks_passed is False
        assert "shape changed" in document.record("bad_extractor").error
        # The rest of the suite still ran and the document is serializable.
        assert document.record("inline").checks_passed is True
        assert BenchDocument.from_json(document.to_json()).names() == [
            "bad_extractor",
            "inline",
        ]

    def test_raising_target_does_not_abort_the_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))

        def broken(context):
            """A benchmark that explodes."""
            raise RuntimeError("boom")

        specs = [
            BenchSpec(name="broken", target=broken),
            self._context_spec(),
        ]
        document = run_specs(specs, runner=ExperimentRunner(cycles=100, warmup=10))
        assert document.record("broken").checks_passed is False
        assert "boom" in document.record("broken").error
        assert document.record("inline").checks_passed is True
