"""Result stores keyed by job key.

A :class:`ResultStore` maps the key of a
:class:`~repro.engine.jobs.SimulationJob` (the sha256 of the job's plain
JSON form, see :meth:`~repro.engine.jobs.SimulationJob.key`) to its
:class:`~repro.sim.results.SimulationResult`.  This module holds the
interface and :class:`InMemoryStore`, a plain dict that shares results
inside one process (and is the tests' fake).  The one persistent store,
the WAL-mode :class:`~repro.engine.sqlite_store.SqliteStore`, lives in
its own module: every ``--store PATH`` opens it, whatever the file name.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # avoid repro.sim <-> repro.engine import cycle
    from repro.sim.results import SimulationResult


class ResultStore(ABC):
    """Interface for persistent simulation-result caches."""

    @abstractmethod
    def get(self, key: str) -> Optional[SimulationResult]:
        """The stored result for ``key``, or ``None``."""

    @abstractmethod
    def put(self, key: str, result: SimulationResult) -> None:
        """Store ``result`` under ``key`` (last write wins)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of distinct keys stored."""

    @abstractmethod
    def keys(self) -> Iterator[str]:
        """Every stored key."""

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None


class InMemoryStore(ResultStore):
    """A dict-backed store; contents die with the process."""

    def __init__(self) -> None:
        self._results: dict[str, SimulationResult] = {}

    def get(self, key: str) -> Optional[SimulationResult]:
        return self._results.get(key)

    def put(self, key: str, result: SimulationResult) -> None:
        self._results[key] = result

    def __len__(self) -> int:
        return len(self._results)

    def keys(self) -> Iterator[str]:
        return iter(self._results)
