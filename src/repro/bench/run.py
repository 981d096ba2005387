"""Benchmark execution harness and the machine-readable result document.

:func:`run_specs` executes a list of registered :class:`BenchSpec` entries
through one shared :class:`~repro.sim.runner.ExperimentRunner` (so common
simulations — the REFab baselines, the alone runs — are performed once per
run), timing each spec and attributing the engine's job counters to it
via :meth:`~repro.engine.executor.ExecutorStats.delta` snapshots.

The output is a schema-versioned :class:`BenchDocument` — one JSON file
per run (the repo's ``BENCH_<date>.json`` trajectory) that
``repro bench compare`` consumes:

.. code-block:: json

    {
      "schema": "repro.bench",
      "schema_version": 1,
      "created_utc": "2026-07-30T12:00:00Z",
      "tier": "quick",
      "environment": {"python": "3.12.3", "cycles": 26000, "...": "..."},
      "benchmarks": [
        {
          "name": "table2_summary",
          "tier": "quick",
          "wall_clock_s": 1.84,
          "max_regression": null,
          "checks_passed": true,
          "engine": {"jobs": 63, "simulated": 63, "store_hits": 0,
                     "memory_hits": 0, "sim_cycles_per_s": 980000.0},
          "metrics": {"dsarp_gmean_vs_refpb_32gb_pct": 15.2},
          "timings": {}
        }
      ]
    }

``metrics`` hold deterministic fidelity numbers (gated by ``compare``);
``timings`` hold machine-dependent numbers (recorded, never gated).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import traceback
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter
from typing import Optional, Sequence, TextIO

from repro.bench.spec import TIERS, BenchError, BenchSpec
from repro.sim.experiments import ExperimentScale, default_scale
from repro.sim.runner import ExperimentRunner
from repro.version import __version__

#: Identifies the document format; bumped together with SCHEMA_VERSION.
SCHEMA_NAME = "repro.bench"
#: Version of the result-document schema.  ``compare`` refuses to diff
#: documents with mismatching versions.
SCHEMA_VERSION = 1

#: Environment variable overriding where benchmark artifacts (text tables,
#: default JSON documents) are written.
BENCH_DIR_ENV = "REPRO_BENCH_DIR"


def artifact_dir() -> Path:
    """Directory benchmark artifacts are written to.

    Defaults to the repo's ``results/`` directory; CI points
    :data:`BENCH_DIR_ENV` at a scratch directory so benchmark runs never
    dirty the working tree.
    """
    override = os.environ.get(BENCH_DIR_ENV)
    if override:
        return Path(override)
    # In a source / editable checkout parents[3] is the repo root; for a
    # plain `pip install .` it would be the interpreter's lib directory,
    # so fall back to the working directory there.
    root = Path(__file__).resolve().parents[3]
    if (root / "pyproject.toml").exists():
        return root / "results"
    return Path.cwd() / "results"


def default_json_path(now: Optional[datetime] = None) -> Path:
    """Default ``BENCH_<date>.json`` path inside the artifact directory."""
    stamp = (now or datetime.now(timezone.utc)).strftime("%Y-%m-%d")
    return artifact_dir() / f"BENCH_{stamp}.json"


def append_history(directory: str | os.PathLike, document: "BenchDocument") -> Path:
    """Append one snapshot to a history directory; returns the written path.

    The filename embeds the document's ``created_utc`` stamp compacted to
    ``BENCH_<YYYYmmddTHHMMSSZ>.json`` so lexicographic directory order is
    chronological — the invariant :func:`repro.report.trend.load_history`
    relies on.  Same-second collisions get a numeric suffix instead of
    overwriting an earlier snapshot.
    """
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    stamp = document.created_utc.replace("-", "").replace(":", "")
    if not stamp:
        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    path = out / f"BENCH_{stamp}.json"
    suffix = 0
    while path.exists():
        suffix += 1
        # "_" sorts after ".", so BENCH_<stamp>_1.json stays chronologically
        # after BENCH_<stamp>.json in lexicographic directory order.
        path = out / f"BENCH_{stamp}_{suffix}.json"
    return document.save(path)


@dataclass
class BenchContext:
    """What a benchmark target gets to run with.

    The shared ``runner`` carries the engine stack (executor, persistent
    store, progress callback) and the in-memory result cache that lets
    benchmarks share common simulations.  Targets that must measure their
    own engine configurations (scaling, cache benchmarks) build private
    runners instead and simply ignore this one.
    """

    runner: ExperimentRunner
    scale: ExperimentScale = field(default_factory=default_scale)

    @property
    def cycles(self) -> int:
        return self.runner.cycles

    @property
    def warmup(self) -> int:
        return self.runner.warmup


def _float_dict(raw: dict, what: str, name: str) -> dict:
    """Validate a metrics/timings mapping: string keys, numeric values."""
    clean = {}
    for key, value in raw.items():
        if not isinstance(key, str):
            raise BenchError(f"benchmark {name!r}: {what} key {key!r} is not a string")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise BenchError(
                f"benchmark {name!r}: {what}[{key!r}] is not a number: {value!r}"
            )
        clean[key] = float(value)
    return clean


@dataclass
class BenchRecord:
    """One benchmark's measurements inside a :class:`BenchDocument`."""

    name: str
    tier: str
    wall_clock_s: float
    checks_passed: bool = True
    error: Optional[str] = None
    max_regression: Optional[float] = None
    engine: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "tier": self.tier,
            "wall_clock_s": self.wall_clock_s,
            "checks_passed": self.checks_passed,
            "error": self.error,
            "max_regression": self.max_regression,
            "engine": dict(self.engine),
            "metrics": dict(self.metrics),
            "timings": dict(self.timings),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchRecord":
        if not isinstance(data, dict):
            raise BenchError(f"benchmark record must be an object, got {data!r}")
        try:
            name = data["name"]
            tier = data["tier"]
            wall = data["wall_clock_s"]
        except KeyError as missing:
            raise BenchError(
                f"benchmark record {data.get('name', '<unnamed>')!r} is missing "
                f"its {missing.args[0]!r} key"
            ) from None
        if tier not in TIERS:
            raise BenchError(f"benchmark {name!r} has unknown tier {tier!r}")
        if isinstance(wall, bool) or not isinstance(wall, (int, float)) or wall < 0:
            raise BenchError(f"benchmark {name!r} has invalid wall_clock_s {wall!r}")
        return cls(
            name=name,
            tier=tier,
            wall_clock_s=float(wall),
            checks_passed=bool(data.get("checks_passed", True)),
            error=data.get("error"),
            max_regression=data.get("max_regression"),
            engine=dict(data.get("engine", {})),
            metrics=_float_dict(dict(data.get("metrics", {})), "metrics", name),
            timings=_float_dict(dict(data.get("timings", {})), "timings", name),
        )


@dataclass
class BenchDocument:
    """A full benchmark run: environment header plus per-benchmark records."""

    tier: str
    created_utc: str
    environment: dict = field(default_factory=dict)
    benchmarks: list = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    def record(self, name: str) -> Optional[BenchRecord]:
        for entry in self.benchmarks:
            if entry.name == name:
                return entry
        return None

    def names(self) -> list[str]:
        return [entry.name for entry in self.benchmarks]

    @property
    def ok(self) -> bool:
        """True when every benchmark ran and passed its checks."""
        return all(entry.checks_passed for entry in self.benchmarks)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_NAME,
            "schema_version": self.schema_version,
            "created_utc": self.created_utc,
            "tier": self.tier,
            "environment": dict(self.environment),
            "benchmarks": [entry.to_dict() for entry in self.benchmarks],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchDocument":
        if not isinstance(data, dict):
            raise BenchError("a benchmark document must be a JSON object")
        schema = data.get("schema", SCHEMA_NAME)
        if schema != SCHEMA_NAME:
            raise BenchError(f"not a benchmark document (schema {schema!r})")
        version = data.get("schema_version")
        if not isinstance(version, int):
            raise BenchError(f"invalid schema_version {version!r}")
        try:
            benchmarks = [BenchRecord.from_dict(entry) for entry in data["benchmarks"]]
        except KeyError:
            raise BenchError("a benchmark document needs a 'benchmarks' list") from None
        names = [entry.name for entry in benchmarks]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise BenchError(f"duplicate benchmark records: {', '.join(duplicates)}")
        return cls(
            tier=data.get("tier", "quick"),
            created_utc=data.get("created_utc", ""),
            environment=dict(data.get("environment", {})),
            benchmarks=benchmarks,
            schema_version=version,
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "BenchDocument":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise BenchError(f"invalid benchmark JSON: {error}") from None
        return cls.from_dict(data)

    def save(self, path: str | os.PathLike) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | os.PathLike) -> "BenchDocument":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def _environment(runner: ExperimentRunner, workers: int) -> dict:
    """Header recorded with every run, for provenance and triage."""
    return {
        "python": platform.python_version(),
        "platform": sys.platform,
        "repro_version": __version__,
        "cycles": runner.cycles,
        "warmup": runner.warmup,
        "seed": runner.seed,
        "workers": workers,
    }


def run_specs(
    specs: Sequence[BenchSpec],
    tier: str = "quick",
    runner: Optional[ExperimentRunner] = None,
    scale: Optional[ExperimentScale] = None,
    workers: int = 1,
    log: Optional[TextIO] = None,
    write_text_artifacts: bool = True,
) -> BenchDocument:
    """Execute benchmark specs and assemble the result document.

    A spec whose target or checks raise does not abort the run: the
    failure is recorded on its :class:`BenchRecord` (``checks_passed:
    false`` plus the traceback's last line in ``error``) and the
    remaining specs still run, so one broken benchmark cannot hide
    regressions in the other seventeen.
    """
    runner = runner if runner is not None else ExperimentRunner()
    context = BenchContext(
        runner=runner, scale=scale if scale is not None else default_scale()
    )
    document = BenchDocument(
        tier=tier,
        created_utc=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        environment=_environment(runner, workers),
    )
    text_dir = artifact_dir() if write_text_artifacts else None
    for spec in specs:
        if log is not None:
            log.write(f"bench: {spec.name} ...\n")
            log.flush()
        before_stats = runner.executor.stats.snapshot()
        before_memory = runner.memory_hits
        start = perf_counter()
        payload: object = None
        error: Optional[str] = None
        try:
            payload = spec.target(context)
        except Exception:
            error = traceback.format_exc(limit=1).strip().splitlines()[-1]
        wall = perf_counter() - start
        record = BenchRecord(
            name=spec.name,
            tier=spec.tier,
            wall_clock_s=wall,
            max_regression=spec.max_regression,
            engine=_engine_delta(
                runner.executor.stats.delta(before_stats),
                runner.memory_hits - before_memory,
                runner.cycles + runner.warmup,
                wall,
            ),
        )
        if error is None:
            # Extractors and checks get the same isolation as the target:
            # a spec whose payload shape changed records its own failure
            # instead of aborting the run and losing the document.
            try:
                record.metrics = _float_dict(
                    spec.metrics(payload) if spec.metrics else {}, "metrics", spec.name
                )
                record.timings = _float_dict(
                    spec.timings(payload) if spec.timings else {}, "timings", spec.name
                )
                if spec.format is not None and text_dir is not None:
                    text_dir.mkdir(parents=True, exist_ok=True)
                    text = spec.format(payload)
                    (text_dir / f"{spec.artifact}.txt").write_text(
                        text + "\n", encoding="utf-8"
                    )
            except Exception:
                error = traceback.format_exc(limit=1).strip().splitlines()[-1]
            if error is None and spec.checks is not None:
                try:
                    spec.checks(payload, context)
                except AssertionError as failure:
                    error = (
                        f"check failed: {failure}" if str(failure) else "check failed"
                    )
                except Exception:
                    error = traceback.format_exc(limit=1).strip().splitlines()[-1]
        if error is not None:
            record.checks_passed = False
            record.error = error
        if log is not None:
            status = "ok" if record.checks_passed else f"FAILED ({record.error})"
            log.write(f"bench: {spec.name} {wall:.2f}s {status}\n")
            log.flush()
        document.benchmarks.append(record)
    return document


def _engine_delta(stats, memory_hits: int, window_cycles: int, wall_s: float) -> dict:
    """Attribute the shared runner's counter movement to one benchmark.

    ``stats`` is an :class:`~repro.engine.executor.ExecutorStats` delta.
    Benchmarks that build private runners (scaling, cache studies) show
    zeros here; their interesting numbers live in their ``timings``.
    """
    # Simulated DRAM cycles retired per wall-clock second: the runner's
    # window length times the simulations performed, over the wall time.
    cycles = window_cycles * stats.simulated
    return {
        "jobs": stats.jobs + memory_hits,
        "simulated": stats.simulated,
        "store_hits": stats.store_hits,
        "memory_hits": memory_hits,
        "sim_cycles_per_s": (cycles / wall_s) if wall_s > 0 else 0.0,
    }
