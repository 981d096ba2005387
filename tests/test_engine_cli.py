"""Tests for the ``python -m repro`` command-line interface."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.sim.registry import EXPERIMENTS

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = main(argv, stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


class TestListCommand:
    def test_lists_every_experiment(self):
        code, out, _ = run_cli(["list"])
        assert code == 0
        for name in EXPERIMENTS:
            assert name in out

    def test_descriptions_come_from_docstrings(self):
        code, out, _ = run_cli(["list"])
        assert code == 0
        for experiment in EXPERIMENTS.values():
            summary = (experiment.function.__doc__ or "").splitlines()[0]
            assert summary.strip().rstrip(".") in out


    def test_closed_pipe_exits_without_traceback(self):
        # ``repro list | head -1``, made deterministic: the reader is gone
        # before the child writes a byte.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "repro", "list"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert child.returncode == 1
        assert "Traceback" not in child.stderr.decode()


class TestConsoleScript:
    """The ``repro`` console script must stay wired to the CLI entry point."""

    def test_pyproject_declares_the_entry_point(self):
        import tomllib

        pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
        assert pyproject["project"]["scripts"]["repro"] == "repro.cli:main"

    def test_entry_point_target_resolves_and_runs(self):
        # Resolve the entry-point string the same way an installed script
        # would, then invoke it; main() returns the process exit code.
        import importlib

        module_name, _, attribute = "repro.cli:main".partition(":")
        entry = getattr(importlib.import_module(module_name), attribute)
        stdout, stderr = io.StringIO(), io.StringIO()
        assert entry(["list"], stdout=stdout, stderr=stderr) == 0
        assert "figure12" in stdout.getvalue()


class TestRunCommand:
    def test_simulation_free_experiment(self):
        code, out, err = run_cli(["run", "figure5"])
        assert code == 0
        points = json.loads(out)
        assert len(points) > 0
        assert "0 simulated" in err  # run summary present, nothing simulated

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["run", "figure99"])

    @pytest.mark.parametrize("densities", ["-8", "0", "8,0"])
    def test_non_positive_density_is_a_usage_error(self, densities, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["run", "figure7", "--densities", densities])
        assert excinfo.value.code == 2
        assert "densities must be positive" in capsys.readouterr().err

    def test_output_file(self, tmp_path):
        out_path = tmp_path / "figure5.json"
        code, out, _ = run_cli(["run", "figure5", "--output", str(out_path)])
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())

    def test_second_invocation_hits_store(self, tmp_path):
        store = tmp_path / "cache.sqlite"
        argv = [
            "run",
            "figure7",
            "--store",
            str(store),
            "--densities",
            "32",
            "--workloads-per-category",
            "1",
            "--cycles",
            "1200",
            "--warmup",
            "200",
        ]
        # First invocation simulates in worker processes and warms the store.
        code, first_out, first_err = run_cli(argv + ["--workers", "2"])
        assert code == 0
        assert store.exists()
        first_summary = first_err.splitlines()[-2]
        assert "— 0 simulated" not in first_summary

        # A second, serial invocation (fresh runner, fresh store object —
        # only the file is shared) must not simulate anything.
        code, second_out, second_err = run_cli(argv)
        assert code == 0
        second_summary = second_err.splitlines()[-2]
        assert "— 0 simulated" in second_summary
        assert ", 0 store hits" not in second_summary
        # ... and must reproduce the identical experiment output.
        assert json.loads(second_out) == json.loads(first_out)


class TestResilienceFlags:
    ARGV = [
        "run",
        "figure7",
        "--densities",
        "32",
        "--workloads-per-category",
        "1",
        "--cycles",
        "1200",
        "--warmup",
        "200",
    ]

    def test_sqlite_backend_end_to_end(self, tmp_path):
        store = tmp_path / "cache.sqlite"
        code, first_out, err = run_cli(
            self.ARGV + ["--store", str(store), "--workers", "2"]
        )
        assert code == 0
        assert store.exists()
        # The file really is a SQLite database, not JSON lines.
        assert store.read_bytes()[:15] == b"SQLite format 3"

        code, second_out, err = run_cli(self.ARGV + ["--store", str(store)])
        assert code == 0
        assert "— 0 simulated" in err
        assert json.loads(second_out) == json.loads(first_out)

    def test_store_format_does_not_depend_on_the_extension(self, tmp_path):
        store = tmp_path / "cache.dat"  # extension says nothing
        code, _, _ = run_cli(self.ARGV + ["--store", str(store)])
        assert code == 0
        assert store.read_bytes()[:15] == b"SQLite format 3"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--cycles", "0"],
            ["--warmup", "-5"],
            ["--workloads-per-category", "0"],
            ["--sensitivity-workloads", "0"],
        ],
    )
    def test_bad_window_and_scale_flags_are_usage_errors(self, flags):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["run", "figure5", *flags])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flag", ["--cycles", "--warmup"])
    def test_non_integer_window_says_what_was_expected(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["run", "figure5", flag, "abc"])
        assert excinfo.value.code == 2
        assert f"argument {flag}: expected an integer, got 'abc'" in (
            capsys.readouterr().err
        )

    def test_store_rerun_replays_from_store(self, tmp_path):
        # Resuming a killed or partial run is a plain rerun against the
        # same store: completed jobs replay, only missing ones simulate.
        store = tmp_path / "cache.sqlite"
        code, first_out, _ = run_cli(self.ARGV + ["--store", str(store)])
        assert code == 0

        code, second_out, err = run_cli(self.ARGV + ["--store", str(store)])
        assert code == 0
        assert "— 0 simulated" in err
        assert json.loads(second_out) == json.loads(first_out)

    def test_retry_and_timeout_flags_accepted(self, tmp_path):
        # --job-timeout forces the parallel engine even at one worker, so
        # the timeout machinery guards serial-sized runs too.
        code, _, err = run_cli(
            self.ARGV + ["--max-retries", "0", "--job-timeout", "120"]
        )
        assert code == 0
        assert "warning: run completed with degradation" not in err

    def test_invalid_knob_values_rejected(self):
        for argv in (
            ["run", "figure5", "--max-retries", "-1"],
            ["run", "figure5", "--job-timeout", "0"],
        ):
            with pytest.raises(SystemExit):
                run_cli(argv)


class TestRemoteFlags:
    def test_serve_only_requires_serve(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["run", "figure7", "--workers", "0"])
        assert excinfo.value.code == 2

    def test_min_workers_requires_serve(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["run", "figure7", "--min-workers", "2"])
        assert excinfo.value.code == 2

    def test_malformed_serve_address_rejected(self):
        for address in ("localhost", "host:banana", "host:70000"):
            with pytest.raises(SystemExit):
                run_cli(["run", "figure7", "--serve", address])

    def test_worker_requires_connect(self):
        with pytest.raises(SystemExit):
            run_cli(["worker"])

    def test_worker_gives_up_when_nobody_listens(self):
        # Nothing listens on this port; a tight connect timeout must turn
        # into a clean non-zero exit, not a hang.
        code, _, err = run_cli(
            ["worker", "--connect", "127.0.0.1:1", "--connect-timeout", "0.2"]
        )
        assert code == 2
        assert "cannot reach" in err


class TestStoreCommand:
    @pytest.fixture()
    def seeded_store(self, tmp_path):
        from repro.engine.sqlite_store import SqliteStore

        from tests.conftest import quick_run

        path = tmp_path / "cache.sqlite"
        result = quick_run("refab", cycles=1200, warmup=200)
        with SqliteStore(path) as store:
            store.put("key1", result)
            store.put("key1", result)  # an upsert, not a second record
            store.put("key2", result)
        return path

    def test_stat_reports_results_and_bytes(self, seeded_store):
        code, out, _ = run_cli(["store", "stat", str(seeded_store)])
        assert code == 0
        assert f"{seeded_store}: 2 result(s), " in out
        assert "bytes on disk" in out

    def test_stat_missing_file_fails(self, tmp_path):
        code, _, err = run_cli(["store", "stat", str(tmp_path / "absent.sqlite")])
        assert code == 2
        assert "does not exist" in err
        assert not (tmp_path / "absent.sqlite").exists()

    def test_copy_merges_every_result(self, seeded_store, tmp_path):
        destination = tmp_path / "copy.sqlite"
        code, out, _ = run_cli(
            ["store", "copy", str(seeded_store), str(destination)]
        )
        assert code == 0
        assert "copied 2 result(s)" in out
        assert destination.read_bytes()[:15] == b"SQLite format 3"

    def test_compact_sqlite_store(self, seeded_store):
        code, out, _ = run_cli(["store", "compact", str(seeded_store)])
        assert code == 0
        assert f"compacted {seeded_store}: 2 -> 2 record(s)" in out

    def test_compact_keeps_the_latest_write_per_key(self, tmp_path):
        from repro.engine.sqlite_store import SqliteStore

        from tests.conftest import quick_run

        path = tmp_path / "cache.sqlite"
        result = quick_run("refab", cycles=1200, warmup=200)
        updated = type(result).from_dict(result.to_dict())
        updated.workload = "other"
        with SqliteStore(path) as store:
            store.put("key1", result)
            store.put("key1", updated)
            store.put("key2", result)
        code, out, _ = run_cli(["store", "compact", str(path)])
        assert code == 0
        assert "2 -> 2 record(s)" in out
        with SqliteStore(path) as reopened:
            assert list(reopened.keys()) == ["key1", "key2"]
            assert reopened.get("key1") == updated
            assert reopened.get("key2") == result

    def test_copy_creates_destination_directories(self, seeded_store, tmp_path):
        from repro.engine.sqlite_store import SqliteStore

        destination = tmp_path / "nested" / "dir" / "copy.sqlite"
        code, out, _ = run_cli(
            ["store", "copy", str(seeded_store), str(destination)]
        )
        assert code == 0
        assert "copied 2 result(s)" in out
        with SqliteStore(destination) as copy:
            assert list(copy.keys()) == ["key1", "key2"]

    def test_stat_after_compact_reports_compacted_bytes(self, seeded_store):
        # Both commands count the same bytes (database plus WAL).
        code, out, _ = run_cli(["store", "compact", str(seeded_store)])
        assert code == 0
        bytes_after = int(out.split(" -> ")[-1].split()[0])
        code, out, _ = run_cli(["store", "stat", str(seeded_store)])
        assert code == 0
        assert f", {bytes_after} bytes on disk" in out


class TestNonStoreFile:
    """A file that is not a SQLite result store fails loudly, by content."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "figure5", "--store", "{bad}"],
            ["sweep", "figure13_all_mechanisms", "--store", "{bad}"],
            ["bench", "run", "--only", "sweep_cache", "--store", "{bad}"],
            ["report", "paper", "--artifacts", "table2", "--store", "{bad}"],
            ["store", "stat", "{bad}"],
            ["store", "copy", "{bad}", "{good}"],
            ["store", "compact", "{bad}"],
        ],
        ids=lambda argv: "-".join(argv[:2]),
    )
    def test_exits_2_with_an_error_line(self, argv, tmp_path):
        # An old JSON-lines store, named as a SQLite one: only the content
        # can tell, and it must neither crash nor be overwritten.
        bad = tmp_path / "cache.sqlite"
        content = '{"key": "k", "result": {}}\n'
        bad.write_text(content)
        paths = {"bad": str(bad), "good": str(tmp_path / "out.sqlite")}
        child = subprocess.run(
            [sys.executable, "-m", "repro"]
            + [arg.format(**paths) for arg in argv],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            timeout=120,
        )
        assert child.returncode == 2, child.stderr
        assert f"error: cannot open result store {bad}" in child.stderr
        assert "Traceback" not in child.stderr
        assert bad.read_text() == content


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        process = subprocess.run(
            [sys.executable, "-m", "repro", "run", "figure5"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )
        assert process.returncode == 0, process.stderr
        assert json.loads(process.stdout)
