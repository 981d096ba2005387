"""SQLite-backed result store: WAL mode, concurrent-safe, resumable.

The :class:`SqliteStore` keeps every simulation result in one SQLite
database keyed by :meth:`repro.engine.jobs.SimulationJob.key`.  It is
the repo's one persistent store: every ``--store PATH`` and every
``repro store`` command opens it.

Why SQLite:

* **Concurrent writers.**  WAL journaling plus a busy timeout lets
  several runs (or several hosts on a shared filesystem that supports
  POSIX locks) warm the same store without corrupting it.
* **Incremental commits.**  Every ``put`` is its own transaction, so a
  run killed at any instant leaves a consistent database with everything
  committed so far — rerunning it against the same store resumes it.
* **Cheap point lookups.**  A million-config design-space sweep resumes
  by primary-key probes instead of loading every result into memory.

A file that is not such a database — including a JSON-lines store
written before SQLite became the only format — is refused with a
:class:`ValueError` naming the path; its results are recomputable.

Results are stored as canonical JSON (the
:meth:`~repro.sim.results.SimulationResult.to_dict` payload), so the
database is self-describing and ``sqlite3`` CLI queries stay usable.
"""

from __future__ import annotations

import json
import os
import sqlite3
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional

from repro.engine.store import ResultStore

if TYPE_CHECKING:  # avoid repro.sim <-> repro.engine import cycle
    from repro.sim.results import SimulationResult

#: How long a writer waits on a locked database before failing (seconds).
BUSY_TIMEOUT_S = 30.0


def _connect(path: Path) -> sqlite3.Connection:
    """Open ``path`` as a result database, creating the table if missing."""
    conn = sqlite3.connect(str(path), timeout=BUSY_TIMEOUT_S, isolation_level=None)
    try:
        # WAL lets readers proceed under a writer and makes each put an
        # atomic, crash-consistent transaction; NORMAL sync is durable
        # against process death (the resume scenario), if not power loss.
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS results ("
            "  key TEXT PRIMARY KEY,"
            "  result TEXT NOT NULL"
            ")"
        )
        # A foreign database may already hold a differently shaped
        # ``results`` table; refuse it now rather than on first use.
        conn.execute("SELECT key, result FROM results LIMIT 0")
    except sqlite3.DatabaseError:
        conn.close()
        raise
    return conn


class SqliteStore(ResultStore):
    """A WAL-mode SQLite result store keyed by job key."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._conn = _connect(self.path)
        except sqlite3.DatabaseError as error:
            # The file's content decides, not its name: a text file (an old
            # JSON-lines store, say) fails with "file is not a database" and
            # is left untouched.
            raise ValueError(
                f"cannot open result store {self.path}: {error}"
            ) from None

    def get(self, key: str) -> Optional["SimulationResult"]:
        from repro.sim.results import SimulationResult

        row = self._conn.execute(
            "SELECT result FROM results WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        try:
            return SimulationResult.from_dict(json.loads(row[0]))
        except (ValueError, KeyError, TypeError):
            # An unreadable record (schema drift, manual tampering) is
            # treated as a miss: results are recomputable.
            return None

    def put(self, key: str, result: "SimulationResult") -> None:
        payload = json.dumps(result.to_dict(), sort_keys=True)
        self._conn.execute(
            "INSERT INTO results (key, result) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET result = excluded.result",
            (key, payload),
        )

    def __len__(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]

    def keys(self) -> Iterator[str]:
        for (key,) in self._conn.execute("SELECT key FROM results ORDER BY key"):
            yield key

    def disk_bytes(self) -> int:
        """Bytes of the database file plus its ``-wal`` sidecar.

        The ``-shm`` file is fixed-size shared memory, not data, so it is
        not counted.
        """
        total = 0
        for suffix in ("", "-wal"):
            sidecar = Path(str(self.path) + suffix)
            if sidecar.exists():
                total += sidecar.stat().st_size
        return total

    def compact(self) -> dict:
        """Checkpoint the WAL and VACUUM the database.

        A long sweep leaves a WAL file rivaling the database itself and
        free pages from upserts; compaction folds the WAL back in and
        rewrites the file densely.  Returns before/after record counts and
        :meth:`disk_bytes`.
        """
        records = len(self)
        bytes_before = self.disk_bytes()
        # VACUUM first (it writes through the WAL), then truncate the WAL
        # so the rewrite actually lands in the main database file.
        self._conn.execute("VACUUM")
        self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        return {
            "records_before": records,
            "records_after": records,
            "bytes_before": bytes_before,
            "bytes_after": self.disk_bytes(),
        }

    def close(self) -> None:
        """Close the database connection (idempotent)."""
        self._conn.close()

    def __enter__(self) -> "SqliteStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def copy_store(source: ResultStore, destination: ResultStore) -> int:
    """Copy every keyed result from one store into another.

    Every store is keyed by the same job keys, so this merges
    one cache into another without a single re-simulation; returns the
    number of results copied.
    """
    copied = 0
    for key in list(source.keys()):
        result = source.get(key)
        if result is not None:
            destination.put(key, result)
            copied += 1
    return copied
