"""Tests for the ``repro bench`` command-line interface."""

import io
import json

import pytest

from repro.bench import BenchSpec, all_specs
from repro.cli import main


def run_cli(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = main(argv, stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


class TestBenchList:
    def test_lists_every_registered_benchmark_with_tier(self):
        code, out, _ = run_cli(["bench", "list"])
        assert code == 0
        for spec in all_specs():
            assert spec.name in out
        assert "[quick]" in out
        assert "[full " in out


class TestBenchRun:
    def test_run_only_writes_schema_valid_document(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        json_path = tmp_path / "BENCH_test.json"
        code, out, err = run_cli(
            ["bench", "run", "--only", "figure05_trfc_trend", "--json", str(json_path)]
        )
        assert code == 0, err
        assert "1 benchmarks run, 0 failed" in out
        data = json.loads(json_path.read_text())
        assert data["schema"] == "repro.bench"
        assert data["schema_version"] == 1
        assert [b["name"] for b in data["benchmarks"]] == ["figure05_trfc_trend"]
        assert data["benchmarks"][0]["checks_passed"] is True
        # The text artifact landed in the bench dir, not the repo tree.
        assert (tmp_path / "figure05_trfc_trend.txt").exists()

    def test_default_json_path_is_dated_in_bench_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        code, out, _ = run_cli(["bench", "run", "--only", "figure05_trfc_trend"])
        assert code == 0
        written = list(tmp_path.glob("BENCH_*.json"))
        assert len(written) == 1
        assert str(written[0]) in out

    def test_repeated_only_is_deduplicated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        json_path = tmp_path / "deduped.json"
        code, _, _ = run_cli(
            [
                "bench",
                "run",
                "--only",
                "figure05_trfc_trend",
                "--only",
                "figure05_trfc_trend",
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        data = json.loads(json_path.read_text())
        assert [b["name"] for b in data["benchmarks"]] == ["figure05_trfc_trend"]
        # ... so the document stays loadable by compare.
        code, _, _ = run_cli(["bench", "compare", str(json_path), str(json_path)])
        assert code == 0

    def test_summary_names_benchmarks_off_the_shared_runner(
        self, tmp_path, monkeypatch
    ):
        from repro.bench import spec as bench_spec
        from repro.sim.runner import ExperimentRunner

        from tests.conftest import small_system, small_workload

        def private_engine(context):
            """Simulate one short cell on a runner of its own."""
            runner = ExperimentRunner(cycles=400, warmup=80)
            return runner.simulate(small_system("refab"), small_workload())

        def shared_engine(context):
            """Simulate one short cell on the shared runner."""
            return context.runner.simulate(small_system("refab"), small_workload())

        bench_spec.load_suite()
        for target in (private_engine, shared_engine):
            spec = BenchSpec(name=target.__name__, target=target)
            monkeypatch.setitem(bench_spec._REGISTRY, spec.name, spec)
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        code, _, err = run_cli(
            ["bench", "run", "--only", "private_engine", "--only", "shared_engine"]
            + ["--cycles", "400", "--warmup", "80"]
        )
        assert code == 0, err
        # The shared runner's counts are labelled as such, never as the run's.
        assert "run summary:" not in err
        assert "shared runner summary: 1 jobs planned — 1 simulated" in err
        assert "(1 planned no jobs on it): private_engine\n" in err

    def test_unknown_benchmark_is_a_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        code, _, err = run_cli(["bench", "run", "--only", "figure99"])
        assert code == 2
        assert "unknown benchmark" in err


class TestBenchCompare:
    @pytest.fixture()
    def current_document(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        json_path = tmp_path / "current.json"
        code, _, err = run_cli(
            ["bench", "run", "--only", "figure05_trfc_trend", "--json", str(json_path)]
        )
        assert code == 0, err
        return json_path

    def test_self_compare_exits_zero(self, current_document):
        code, out, _ = run_cli(
            ["bench", "compare", str(current_document), str(current_document)]
        )
        assert code == 0
        assert "PASS" in out

    def test_synthetic_slowdown_exits_nonzero(self, tmp_path, current_document):
        slowed = json.loads(current_document.read_text())
        for bench in slowed["benchmarks"]:
            bench["wall_clock_s"] = bench["wall_clock_s"] * 10 + 1.0
        slowed_path = tmp_path / "slowed.json"
        slowed_path.write_text(json.dumps(slowed))
        code, out, _ = run_cli(
            [
                "bench",
                "compare",
                str(current_document),
                str(slowed_path),
                "--max-regression",
                "25%",
            ]
        )
        assert code == 1
        assert "REGRESSION" in out

    def test_fidelity_drift_exits_nonzero(self, tmp_path, current_document):
        drifted = json.loads(current_document.read_text())
        name, value = next(iter(drifted["benchmarks"][0]["metrics"].items()))
        drifted["benchmarks"][0]["metrics"][name] = value + 1.0
        drifted_path = tmp_path / "drifted.json"
        drifted_path.write_text(json.dumps(drifted))
        code, out, _ = run_cli(
            ["bench", "compare", str(current_document), str(drifted_path)]
        )
        assert code == 1
        assert "FIDELITY" in out

    def test_schema_mismatch_is_a_usage_error(self, tmp_path, current_document):
        migrated = json.loads(current_document.read_text())
        migrated["schema_version"] = 99
        migrated_path = tmp_path / "migrated.json"
        migrated_path.write_text(json.dumps(migrated))
        code, _, err = run_cli(
            ["bench", "compare", str(current_document), str(migrated_path)]
        )
        assert code == 2
        assert "schema version mismatch" in err

    def test_missing_file_is_a_usage_error(self, tmp_path, current_document):
        code, _, err = run_cli(
            ["bench", "compare", str(current_document), str(tmp_path / "nope.json")]
        )
        assert code == 2
        assert "error" in err

    def test_report_file_written(self, tmp_path, current_document):
        report = tmp_path / "deep" / "report.md"
        code, out, _ = run_cli(
            [
                "bench",
                "compare",
                str(current_document),
                str(current_document),
                "--report",
                str(report),
            ]
        )
        assert code == 0
        assert report.read_text() == out

    def test_bare_number_above_one_is_rejected_as_ambiguous(self, current_document):
        # `--max-regression 25` almost certainly means 25%; refusing beats
        # silently installing a 2500% threshold that disables the gate.
        with pytest.raises(SystemExit):
            run_cli(
                [
                    "bench",
                    "compare",
                    str(current_document),
                    str(current_document),
                    "--max-regression",
                    "25",
                ]
            )

    def test_percentage_threshold_parsing(self, current_document):
        for flag in ("25%", "0.25"):
            code, _, _ = run_cli(
                [
                    "bench",
                    "compare",
                    str(current_document),
                    str(current_document),
                    "--max-regression",
                    flag,
                ]
            )
            assert code == 0
        with pytest.raises(SystemExit):
            run_cli(
                [
                    "bench",
                    "compare",
                    str(current_document),
                    str(current_document),
                    "--max-regression",
                    "fast",
                ]
            )
