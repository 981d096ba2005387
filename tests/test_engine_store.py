"""Tests for the engine result stores and result serialization."""

import dataclasses
import hashlib
import json
import multiprocessing
import pickle
import queue
import signal
import sqlite3
import traceback

import pytest

from repro.config.obs_config import ObsConfig
from repro.config.presets import paper_system
from repro.config.refresh_config import RefreshMechanism
from repro.config.serialize import from_plain, to_plain
from repro.config.system import SystemConfig
from repro.controller.policies import scheduler_names
from repro.engine.jobs import SimulationJob, execute_job
from repro.engine.remote import decode_job, encode_job
from repro.engine.sqlite_store import SqliteStore, copy_store
from repro.engine.store import InMemoryStore, ResultStore
from repro.sim.results import SimulationResult
from repro.workloads.generators import GENERATORS
from repro.workloads.mixes import Workload, make_workload_category

from tests.conftest import job_key, quick_run, small_system, small_workload


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

    def test_result_payload_is_pinned(self):
        # The result record's JSON form is derived from its dataclass
        # fields; pin one small job's payload so a changed value, type or
        # key (which would make stored and remote results disagree with
        # fresh ones) fails loudly.
        payload = json.dumps(make_job("dsarp").run().to_dict(), sort_keys=True)
        assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == (
            "b15f3b9434cd64b7333ed155d905d001d25a9b90ab046ba0aa71e4fb862b663a"
        )

    def test_workload_spec_round_trip(self):
        workload = make_workload_category(50, index=1, num_cores=4)
        rebuilt = from_plain(Workload, json.loads(json.dumps(to_plain(workload))))
        assert rebuilt == workload
        assert job_key(workload=rebuilt) == job_key(workload=workload)


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
            ("warmup", False),
            ("seed", True),
            ("seed", "3"),
        ],
    )
    def test_malformed_window_is_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_job(**{field: value})

    @pytest.mark.parametrize(("field", "value"), [("warmup", 10.0), ("seed", 1.0)])
    def test_integral_float_window_is_an_int(self, field, value):
        job = make_job(**{field: value})
        assert type(getattr(job, field)) is int
        assert job.key() == make_job(**{field: int(value)}).key()

    def test_zero_warmup_and_negative_seed_are_valid(self):
        job = make_job(warmup=0, seed=-1)
        assert (job.warmup, job.seed) == (0, -1)

    def test_digest_is_stable_across_processes(self):
        # The key is sha256 of canonical JSON, so it must not depend on
        # interpreter hash randomization; pin one small job's key so an
        # accidental change to the identity, which would orphan every
        # persisted store, fails loudly.
        assert make_job().key() == (
            "3ddfd80dd346eb86868fe7a841f91db6818ffa32d68a6d90622dfa34cc941fcf"
        )


#: Another valid value for each string-valued field, by name.
_OTHER_CHOICES = {
    "scheduler": scheduler_names(),
    "page_policy": ("closed", "open"),
    "mechanism": tuple(mechanism.value for mechanism in RefreshMechanism),
    "pattern": tuple(sorted(GENERATORS)),
    "kernel": SystemConfig.KERNELS,
    "trace_format": ObsConfig.TRACE_FORMATS,
}


def _changed(name: str, value):
    """A valid value other than ``value`` for the field ``name``."""
    if name == "fgr_mode":
        return 2 if value != 2 else 4
    if name in _OTHER_CHOICES:
        return next(choice for choice in _OTHER_CHOICES[name] if choice != value)
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2 if value else 0.5
    if isinstance(value, str):
        return value + "_other"
    if value is None:
        return "elsewhere"
    raise AssertionError(f"no change rule for {name}={value!r}")


def _leaves(plain: dict, prefix: tuple = ()):
    """``(path, value)`` of every leaf of a nested plain dict."""
    for name, value in plain.items():
        if isinstance(value, dict):
            yield from _leaves(value, prefix + (name,))
        else:
            yield prefix + (name,), value


def _with_leaf(config: SystemConfig, path: tuple, value) -> SystemConfig:
    plain = config.to_dict()
    node = plain
    for name in path[:-1]:
        node = node[name]
    node[path[-1]] = value
    return SystemConfig.from_dict(plain)


def _wire_key(payload: dict) -> str:
    """The key a sender derives for a wire payload, recomputed from the
    payload itself (the kernel, obs and an unread row_hit_cap left out)."""
    plain = json.loads(json.dumps({k: v for k, v in payload.items() if k != "key"}))
    config = plain["config"]
    del config["kernel"], config["obs"]
    if config["controller"]["scheduler"] != "frfcfs-cap":
        del config["controller"]["row_hit_cap"]
    encoded = json.dumps(plain, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


class TestJobKey:
    """Every field that can change a result is part of the job key."""

    def test_int_and_float_of_a_float_field_share_a_key(self):
        # A JSON spec's ``64`` and the preset's ``64.0`` are one config.
        preset = paper_system(retention_ms=64.0)
        plain = preset.to_dict()
        plain["dram"]["retention_ms"] = 64
        decoded = SystemConfig.from_dict(plain)
        assert type(decoded.dram.retention_ms) is float
        assert job_key(decoded) == job_key(preset)
        assert job_key(paper_system(retention_ms=64)) == job_key(preset)
        first = small_workload().benchmarks[0]
        chase = dataclasses.replace(first, dependent_fraction=1)
        assert type(chase.dependent_fraction) is float

    @pytest.mark.parametrize("scheduler", scheduler_names())
    def test_every_config_leaf_changes_the_key(self, scheduler):
        config = small_system("refab").with_scheduler(scheduler)
        base = job_key(config)
        leaves = list(_leaves(config.to_dict()))
        assert len(leaves) == 58  # every settable field, kernel and obs too
        for path, value in leaves:
            name = path[-1]
            changed = _with_leaf(config, path, _changed(name, value))
            inert = path[0] in ("kernel", "obs") or (
                name == "row_hit_cap" and scheduler != "frfcfs-cap"
            )
            if inert:
                assert job_key(changed) == base, path
            else:
                assert job_key(changed) != base, path

    @pytest.mark.parametrize("wrong", ["str", "bool", "half"])
    def test_every_config_leaf_refuses_a_wrong_type_by_name(self, wrong):
        # A str for any leaf, a bool for a non-bool one and x.5 for an int
        # one: each is refused naming the dotted path down to the field.
        config = small_system("refab")
        for path, value in _leaves(config.to_dict()):
            name = path[-1]
            if wrong == "str" and name != "trace_dir":  # any str names a dir
                bad = "11"
            elif wrong == "bool" and not isinstance(value, bool):
                bad = True
            elif wrong == "half" and type(value) is int:
                bad = value + 0.5
            else:
                continue
            with pytest.raises(ValueError) as refused:
                _with_leaf(config, path, bad)
            message = str(refused.value)
            named = [f".{part}: " for part in path]
            if name == "scheduler" and wrong == "str":  # its registry names it
                named[-1] = "unknown scheduler policy '11'"
            assert all(part in message for part in named), (path, message)

    def test_integral_float_core_count_shares_a_key(self):
        preset = paper_system(num_cores=8)
        plain = preset.to_dict()
        plain["cpu"]["num_cores"] = 8.0
        decoded = SystemConfig.from_dict(plain)
        assert type(decoded.cpu.num_cores) is int
        assert job_key(decoded) == job_key(preset)
        assert job_key(paper_system(num_cores=8.0)) == job_key(preset)
        for bad in (8.5, True, "8"):
            with pytest.raises(ValueError, match="CPUConfig.num_cores: expects"):
                paper_system(num_cores=bad)
            plain["cpu"]["num_cores"] = bad
            with pytest.raises(ValueError, match="CPUConfig.num_cores: expects"):
                SystemConfig.from_dict(plain)

    def test_wrongly_typed_wire_config_is_refused_by_name_not_by_key(self):
        payload = json.loads(json.dumps(encode_job(make_job())))
        assert _wire_key(payload) == payload["key"]
        payload["config"]["dram"]["timings"]["tCL"] = "11"
        payload["key"] = _wire_key(payload)
        with pytest.raises(ValueError, match="DRAMTimings.tCL: expects") as refused:
            decode_job(payload)
        assert "key" not in str(refused.value)

    def test_every_workload_and_benchmark_field_changes_the_key(self):
        workload = small_workload()
        base = job_key(workload=workload)
        for field in dataclasses.fields(workload):
            if field.name == "benchmarks":
                continue
            value = _changed(field.name, getattr(workload, field.name))
            changed = dataclasses.replace(workload, **{field.name: value})
            assert job_key(workload=changed) != base, field.name
        first, *rest = workload.benchmarks
        for field in dataclasses.fields(first):
            value = _changed(field.name, getattr(first, field.name))
            benchmark = dataclasses.replace(first, **{field.name: value})
            changed = dataclasses.replace(workload, benchmarks=(benchmark, *rest))
            assert job_key(workload=changed) != base, field.name


class TestStores:
    def test_in_memory_store(self, result):
        store = InMemoryStore()
        assert store.get("k") is None
        assert "k" not in store
        store.put("k", result)
        assert store.get("k") == result
        assert "k" in store
        assert len(store) == 1
        assert list(store.keys()) == ["k"]


def _sqlite_writer(path, prefix, count, result_dict, reports):
    """Child-process entry: hammer one SQLite store with upserts.

    Puts one report on ``reports``: None, or the traceback of the failure
    (which then propagates), so the parent's assertion can name its cause.
    """
    try:
        result = SimulationResult.from_dict(result_dict)
        store = SqliteStore(path)
        for index in range(count):
            store.put(f"{prefix}-{index:03d}", result)
        store.close()
    except BaseException:
        reports.put(f"{prefix}: {traceback.format_exc()}")
        raise
    reports.put(None)


def _killable_writer(path, result_dict, acks):
    """Child-process entry: put results forever, acknowledging each commit."""
    result = SimulationResult.from_dict(result_dict)
    store = SqliteStore(path)
    index = 0
    while True:
        store.put(f"key-{index:05d}", result)
        acks.send(index)
        index += 1


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
        store.close()
        with SqliteStore(store.path) as reopened:
            assert len(reopened) == 1
            assert reopened.get("key1").workload == "other"

    def test_creates_parent_directories(self, result, tmp_path):
        path = tmp_path / "nested" / "dir" / "cache.sqlite"
        SqliteStore(path).put("key1", result)
        assert SqliteStore(path).get("key1") == result

    def test_every_extension_opens_as_sqlite(self, result, tmp_path):
        # There is one format, so a new store is SQLite whatever its name.
        for name in ("cache.jsonl", "cache.sqlite", "cache.db", "cache.dat"):
            path = tmp_path / name
            with SqliteStore(path) as store:
                store.put("key1", result)
            assert path.read_bytes()[:15] == b"SQLite format 3"

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

    def test_last_write_wins_across_open_handles(self, result, tmp_path):
        # Two runs sharing one store each hold a connection; a write through
        # either one is what both read next.
        path = tmp_path / "cache.sqlite"
        updated = SimulationResult.from_dict(result.to_dict())
        updated.workload = "other"
        with SqliteStore(path) as first, SqliteStore(path) as second:
            first.put("key1", result)
            assert second.get("key1") == result
            second.put("key1", updated)
            assert first.get("key1") == updated
            assert len(first) == len(second) == 1

    def test_records_are_plain_canonical_json(self, result, tmp_path):
        # The database is self-describing: a plain sqlite3 query reads back
        # the exact ``to_dict`` payload, with sorted keys.
        path = tmp_path / "cache.sqlite"
        with SqliteStore(path) as store:
            store.put("key1", result)
        conn = sqlite3.connect(path)
        try:
            (payload,) = conn.execute(
                "SELECT result FROM results WHERE key = ?", ("key1",)
            ).fetchone()
        finally:
            conn.close()
        assert payload == json.dumps(result.to_dict(), sort_keys=True)
        assert SimulationResult.from_dict(json.loads(payload)) == result

    def test_damaged_record_loses_only_itself(self, result, tmp_path):
        # A record edited from outside the store (a manual fix gone wrong)
        # must cost that one result, never the results around it.
        path = tmp_path / "cache.sqlite"
        with SqliteStore(path) as store:
            for key in ("key1", "key2", "key3"):
                store.put(key, result)
        conn = sqlite3.connect(path)
        try:
            with conn:
                conn.execute(
                    "UPDATE results SET result = substr(result, 1, 40) || "
                    "'<<GARBAGE>>' WHERE key = 'key2'"
                )
        finally:
            conn.close()
        with SqliteStore(path) as reopened:
            assert reopened.get("key1") == result
            assert reopened.get("key2") is None
            assert reopened.get("key3") == result
            survivors = InMemoryStore()
            assert copy_store(reopened, survivors) == 2
            assert sorted(survivors.keys()) == ["key1", "key3"]

    def test_concurrent_writers_do_not_corrupt(self, result, tmp_path):
        # Several processes upserting into one WAL-mode database must all
        # land: this is the property that lets parallel workers (and even
        # parallel CI jobs) share one store safely.
        path = tmp_path / "cache.sqlite"
        writers, per_writer = 4, 25
        reports = multiprocessing.Queue()
        processes = [
            multiprocessing.Process(
                target=_sqlite_writer,
                args=(path, f"writer{index}", per_writer, result.to_dict(), reports),
            )
            for index in range(writers)
        ]
        for process in processes:
            process.start()
        # Read every report before joining: joining a process whose queued
        # data has not been read can deadlock.
        failures = []
        for _ in processes:
            try:
                report = reports.get(timeout=60)
            except queue.Empty:
                report = "a writer sent no report"
            if report is not None:
                failures.append(report)
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0, failures
        store = SqliteStore(path)
        assert len(store) == writers * per_writer
        for index in range(writers):
            assert store.get(f"writer{index}-000") == result


    def test_killed_writer_keeps_every_committed_result(self, result, tmp_path):
        # A run killed mid-batch (then resumed from its store) must lose at most
        # the put in flight: every acknowledged commit survives, and the
        # reopened store accepts new writes.
        path = tmp_path / "cache.sqlite"
        context = multiprocessing.get_context("spawn")
        receiver, sender = context.Pipe(duplex=False)
        writer = context.Process(
            target=_killable_writer, args=(path, result.to_dict(), sender)
        )
        writer.start()
        sender.close()
        committed = -1
        try:
            while committed < 40:
                assert receiver.poll(60), "writer stopped acknowledging puts"
                committed = receiver.recv()
        finally:
            writer.kill()
            writer.join(timeout=60)
        assert writer.exitcode == -signal.SIGKILL

        with SqliteStore(path) as reopened:
            keys = list(reopened.keys())
            assert len(keys) >= committed + 1
            for index in range(committed + 1):
                assert reopened.get(f"key-{index:05d}") == result
            # Nothing half-written: every stored key reads back whole.
            assert all(reopened.get(key) == result for key in keys)
            reopened.put("after-kill", result)
        with SqliteStore(path) as again:
            assert again.get("after-kill") == result
            assert len(again) == len(keys) + 1

    @pytest.mark.parametrize(
        "content",
        [
            b"hello\nworld\n",
            b'{"key": "k", "result": {}}\n',  # a JSON-lines store
        ],
        ids=["text", "jsonl"],
    )
    def test_non_database_file_is_refused_by_content(self, content, tmp_path):
        # The name says SQLite; the content decides.
        path = tmp_path / "cache.sqlite"
        path.write_bytes(content)
        with pytest.raises(ValueError, match="cache.sqlite"):
            SqliteStore(path)
        assert path.read_bytes() == content

    def test_foreign_results_table_is_refused(self, tmp_path):
        path = tmp_path / "other.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE results (id INTEGER, score REAL)")
        conn.close()
        with pytest.raises(ValueError, match="other.db"):
            SqliteStore(path)


class TestCompaction:
    def test_sqlite_compact_of_empty_store_is_a_no_op(self, tmp_path):
        with SqliteStore(tmp_path / "cache.sqlite") as store:
            summary = store.compact()
            assert summary["records_before"] == 0
            assert summary["records_after"] == 0
            assert summary["bytes_after"] == store.disk_bytes()

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


    def test_sqlite_compact_keeps_the_latest_write_per_key(self, result, tmp_path):
        store = SqliteStore(tmp_path / "cache.sqlite")
        updated = SimulationResult.from_dict(result.to_dict())
        updated.workload = "other"
        for _ in range(3):
            store.put("key1", result)
        store.put("key1", updated)
        store.put("key2", result)

        summary = store.compact()
        assert summary["records_before"] == 2
        assert summary["records_after"] == 2
        # The WAL holds every overwrite; compaction folds it away.
        assert summary["bytes_after"] < summary["bytes_before"]
        store.close()

        with SqliteStore(store.path) as reopened:
            assert len(reopened) == 2
            assert reopened.get("key1") == updated
            assert reopened.get("key2") == result


class TestCopyStore:
    def test_copy_round_trip_equivalence(self, result, tmp_path):
        # Every store shares fingerprint keys, so results move between
        # stores losslessly in either direction.
        source = InMemoryStore()
        updated = SimulationResult.from_dict(result.to_dict())
        updated.workload = "other"
        source.put("key1", result)
        source.put("key2", updated)

        sqlite = SqliteStore(tmp_path / "cache.sqlite")
        assert copy_store(source, sqlite) == 2
        assert sqlite.get("key1") == result
        assert sqlite.get("key2") == updated

        back = InMemoryStore()
        assert copy_store(sqlite, back) == 2
        assert sorted(back.keys()) == sorted(source.keys())
        for key in back.keys():
            assert back.get(key) == source.get(key)

    def test_source_without_key_enumeration_rejected(self):
        # ``keys`` is part of the interface, so a store that cannot
        # enumerate its keys (and could not be copied) cannot exist.
        class Opaque(ResultStore):
            def get(self, key):
                return None

            def put(self, key, result):
                pass

            def __len__(self):
                return 0

        with pytest.raises(TypeError, match="keys"):
            Opaque()
