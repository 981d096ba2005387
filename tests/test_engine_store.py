"""Tests for the engine result stores and result serialization."""

import json
import multiprocessing
import pickle

import pytest

from repro.engine.jobs import SimulationJob, execute_job, fingerprint_digest
from repro.engine.sqlite_store import SqliteStore, copy_store
from repro.engine.store import InMemoryStore, JsonlStore, open_store
from repro.sim.results import SimulationResult
from repro.workloads.mixes import Workload, make_workload_category

from tests.conftest import quick_run, small_system, small_workload


@pytest.fixture(scope="module")
def result() -> SimulationResult:
    return quick_run("refab", cycles=1500, warmup=300)


def make_job(mechanism="refab", seed=0, cycles=1500, warmup=300) -> SimulationJob:
    return SimulationJob(
        config=small_system(mechanism),
        workload=small_workload(),
        cycles=cycles,
        warmup=warmup,
        seed=seed,
    )


class TestSerialization:
    def test_simulation_result_round_trip(self, result):
        rebuilt = SimulationResult.from_dict(result.to_dict())
        assert rebuilt == result

    def test_to_dict_is_json_compatible(self, result):
        rebuilt = SimulationResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt == result

    def test_workload_spec_round_trip(self):
        workload = make_workload_category(50, index=1, num_cores=4)
        rebuilt = Workload.from_dict(json.loads(json.dumps(workload.to_dict())))
        assert rebuilt == workload
        assert rebuilt.fingerprint() == workload.fingerprint()


class TestJobs:
    def test_job_is_picklable_and_runs(self):
        job = make_job(cycles=800, warmup=100)
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job
        assert clone.key() == job.key()
        result = execute_job(clone)
        assert result.cycles == 800
        assert result.mechanism == "refab"

    def test_key_tracks_fingerprint(self):
        assert make_job().key() == make_job().key()
        assert make_job().key() != make_job(mechanism="dsarp").key()
        assert make_job().key() != make_job(seed=7).key()
        assert make_job().key() != make_job(cycles=1600).key()

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("cycles", 0),
            ("cycles", -100),
            ("cycles", 100.5),
            ("cycles", True),
            ("warmup", -5),
            ("warmup", 10.0),
            ("warmup", False),
            ("seed", True),
            ("seed", 1.0),
            ("seed", "3"),
        ],
    )
    def test_malformed_window_is_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            make_job(**{field: value})

    def test_zero_warmup_and_negative_seed_are_valid(self):
        job = make_job(warmup=0, seed=-1)
        assert (job.warmup, job.seed) == (0, -1)

    def test_digest_is_stable_across_processes(self):
        # sha256 of canonical JSON must not depend on interpreter hash
        # randomization; pin one value so accidental format changes that
        # would orphan every persisted store are caught.
        assert fingerprint_digest(("a", 1, (2, True))) == (
            "270979ccc8c0fa59c6c1a3e7b9710e15ff7b731418e0bad28f7a5ac6c2da7a27"
        )


class TestStores:
    def test_in_memory_store(self, result):
        store = InMemoryStore()
        assert store.get("k") is None
        assert "k" not in store
        store.put("k", result)
        assert store.get("k") == result
        assert "k" in store
        assert len(store) == 1

    def test_jsonl_store_round_trip(self, result, tmp_path):
        path = tmp_path / "cache.jsonl"
        store = JsonlStore(path)
        assert len(store) == 0
        store.put("key1", result)
        assert store.get("key1") == result

        reopened = JsonlStore(path)
        assert len(reopened) == 1
        assert reopened.get("key1") == result

    def test_jsonl_store_last_write_wins(self, result, tmp_path):
        path = tmp_path / "cache.jsonl"
        store = JsonlStore(path)
        store.put("key1", result)
        updated = SimulationResult.from_dict(result.to_dict())
        updated.workload = "other"
        store.put("key1", updated)

        reopened = JsonlStore(path)
        assert len(reopened) == 1
        assert reopened.get("key1").workload == "other"
        # The file keeps both records (append-only), the index keeps one.
        assert len(path.read_text().strip().splitlines()) == 2

    def test_jsonl_store_creates_parent_directories(self, result, tmp_path):
        path = tmp_path / "nested" / "dir" / "cache.jsonl"
        JsonlStore(path).put("key1", result)
        assert JsonlStore(path).get("key1") == result

    def test_jsonl_store_ignores_blank_lines(self, result, tmp_path):
        path = tmp_path / "cache.jsonl"
        JsonlStore(path).put("key1", result)
        with path.open("a") as handle:
            handle.write("\n\n")
        assert JsonlStore(path).get("key1") == result

    def test_jsonl_store_skips_truncated_trailing_record(self, result, tmp_path):
        # A process killed mid-append leaves a partial line; the store must
        # stay readable (the lost result is simply re-simulated).
        path = tmp_path / "cache.jsonl"
        JsonlStore(path).put("key1", result)
        with path.open("a") as handle:
            handle.write('{"key": "key2", "result": {"trunc')
        reopened = JsonlStore(path)
        assert reopened.get("key1") == result
        assert reopened.get("key2") is None
        assert len(reopened) == 1

    def test_jsonl_store_survives_corrupted_middle_record(self, result, tmp_path):
        # Corruption anywhere in the file (disk error, manual edit) must
        # only lose the damaged record, never the records around it.
        path = tmp_path / "cache.jsonl"
        store = JsonlStore(path)
        store.put("key1", result)
        store.put("key2", result)
        store.put("key3", result)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2] + "<<GARBAGE>>"
        path.write_text("\n".join(lines) + "\n")
        reopened = JsonlStore(path)
        assert reopened.get("key1") == result
        assert reopened.get("key2") is None
        assert reopened.get("key3") == result
        assert len(reopened) == 2


def _sqlite_writer(path, prefix, count, result_dict):
    """Child-process entry: hammer one SQLite store with upserts."""
    result = SimulationResult.from_dict(result_dict)
    store = SqliteStore(path)
    for index in range(count):
        store.put(f"{prefix}-{index:03d}", result)
    store.close()


class TestSqliteStore:
    def test_round_trip_and_reopen(self, result, tmp_path):
        path = tmp_path / "cache.sqlite"
        store = SqliteStore(path)
        assert len(store) == 0
        assert store.get("key1") is None
        store.put("key1", result)
        assert store.get("key1") == result
        assert "key1" in store
        store.close()

        with SqliteStore(path) as reopened:
            assert len(reopened) == 1
            assert reopened.get("key1") == result

    def test_last_write_wins(self, result, tmp_path):
        store = SqliteStore(tmp_path / "cache.sqlite")
        store.put("key1", result)
        updated = SimulationResult.from_dict(result.to_dict())
        updated.workload = "other"
        store.put("key1", updated)
        assert len(store) == 1
        assert store.get("key1").workload == "other"

    def test_creates_parent_directories(self, result, tmp_path):
        path = tmp_path / "nested" / "dir" / "cache.sqlite"
        SqliteStore(path).put("key1", result)
        assert SqliteStore(path).get("key1") == result

    def test_keys_are_ordered(self, result, tmp_path):
        store = SqliteStore(tmp_path / "cache.sqlite")
        for key in ("zebra", "alpha", "mango"):
            store.put(key, result)
        assert list(store.keys()) == ["alpha", "mango", "zebra"]

    def test_unreadable_record_is_a_miss(self, result, tmp_path):
        path = tmp_path / "cache.sqlite"
        store = SqliteStore(path)
        store.put("key1", result)
        store._conn.execute(
            "UPDATE results SET result = ? WHERE key = ?", ("not json", "key1")
        )
        assert store.get("key1") is None

    def test_concurrent_writers_do_not_corrupt(self, result, tmp_path):
        # Several processes upserting into one WAL-mode database must all
        # land: this is the property that lets parallel workers (and even
        # parallel CI jobs) share one store safely.
        path = tmp_path / "cache.sqlite"
        writers, per_writer = 4, 25
        processes = [
            multiprocessing.Process(
                target=_sqlite_writer,
                args=(path, f"writer{index}", per_writer, result.to_dict()),
            )
            for index in range(writers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        store = SqliteStore(path)
        assert len(store) == writers * per_writer
        for index in range(writers):
            assert store.get(f"writer{index}-000") == result


class TestCompaction:
    def test_jsonl_compact_drops_stale_duplicates(self, result, tmp_path):
        path = tmp_path / "cache.jsonl"
        store = JsonlStore(path)
        updated = SimulationResult.from_dict(result.to_dict())
        updated.workload = "other"
        for _ in range(3):
            store.put("key1", result)
        store.put("key1", updated)
        store.put("key2", result)
        assert store.record_count() == 5

        summary = store.compact()
        assert summary["records_before"] == 5
        assert summary["records_after"] == 2
        assert summary["bytes_after"] < summary["bytes_before"]
        assert store.record_count() == 2

        # Compaction keeps exactly the latest record per key.
        reopened = JsonlStore(path)
        assert len(reopened) == 2
        assert reopened.get("key1").workload == "other"
        assert reopened.get("key2") == result

    def test_jsonl_compact_of_empty_store_is_a_no_op(self, tmp_path):
        store = JsonlStore(tmp_path / "cache.jsonl")
        summary = store.compact()
        assert summary["records_before"] == 0
        assert summary["records_after"] == 0

    def test_sqlite_compact_reports_counts_and_keeps_data(self, result, tmp_path):
        store = SqliteStore(tmp_path / "cache.sqlite")
        for index in range(20):
            store.put(f"key{index:02d}", result)
        for index in range(20):
            store.put(f"key{index:02d}", result)  # upserts churn the WAL
        summary = store.compact()
        assert summary["records_before"] == 20
        assert summary["records_after"] == 20
        assert summary["bytes_after"] <= summary["bytes_before"]
        assert store.get("key00") == result
        store.close()
        reopened = SqliteStore(store.path)
        assert len(reopened) == 20
        reopened.close()


class TestOpenStore:
    def test_auto_infers_backend_from_extension(self, tmp_path):
        assert isinstance(open_store(tmp_path / "cache.jsonl"), JsonlStore)
        for suffix in ("sqlite", "sqlite3", "db"):
            assert isinstance(open_store(tmp_path / f"cache.{suffix}"), SqliteStore)

    def test_explicit_backend_overrides_extension(self, tmp_path):
        assert isinstance(
            open_store(tmp_path / "cache.dat", backend="sqlite"), SqliteStore
        )
        assert isinstance(
            open_store(tmp_path / "cache.db2", backend="jsonl"), JsonlStore
        )

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown store backend"):
            open_store(tmp_path / "cache.jsonl", backend="parquet")


class TestCopyStore:
    def test_jsonl_sqlite_round_trip_equivalence(self, result, tmp_path):
        # Both backends share fingerprint keys, so a cache migrates between
        # them losslessly in either direction.
        jsonl = JsonlStore(tmp_path / "cache.jsonl")
        updated = SimulationResult.from_dict(result.to_dict())
        updated.workload = "other"
        jsonl.put("key1", result)
        jsonl.put("key2", updated)

        sqlite = SqliteStore(tmp_path / "cache.sqlite")
        assert copy_store(jsonl, sqlite) == 2
        assert sqlite.get("key1") == result
        assert sqlite.get("key2") == updated

        back = JsonlStore(tmp_path / "roundtrip.jsonl")
        assert copy_store(sqlite, back) == 2
        assert sorted(back.keys()) == sorted(jsonl.keys())
        for key in back.keys():
            assert back.get(key) == jsonl.get(key)

    def test_source_without_key_enumeration_rejected(self, result, tmp_path):
        class Opaque:
            def get(self, key):
                return None

        with pytest.raises(TypeError, match="does not enumerate keys"):
            copy_store(Opaque(), InMemoryStore())
