"""repro.bench: the declarative performance-benchmark subsystem.

Turns the repo's benchmarks into first-class, machine-readable,
regression-gated artifacts:

* :mod:`repro.bench.spec`    — :class:`BenchSpec` and the registry;
* :mod:`repro.bench.suite`   — the standard suite: one spec per paper
  experiment (built from :data:`repro.sim.registry.EXPERIMENTS`) plus
  the engine, kernel and observability benchmarks;
* :mod:`repro.bench.run`     — the execution harness and the
  schema-versioned :class:`BenchDocument` JSON result format;
* :mod:`repro.bench.compare` — the baseline regression gate with
  per-benchmark thresholds, noise floors and a markdown report.

Driven by the ``repro bench`` CLI (``list`` / ``run`` / ``compare``)::

    repro bench run --tier quick --workers 4 --json BENCH_2026-07-30.json
    repro bench compare benchmarks/baseline.json BENCH_2026-07-30.json \\
        --max-regression 25%
"""

from importlib import import_module

#: Public name -> the submodule that defines it.  The submodules load on
#: first use, so importing :mod:`repro.bench.spec` (the CLI does, for
#: :data:`TIERS`) does not load the harness.
_EXPORTS = {
    "DEFAULT_FIDELITY_TOLERANCE": "compare",
    "DEFAULT_MAX_REGRESSION": "compare",
    "DEFAULT_NOISE_FLOOR_S": "compare",
    "Comparison": "compare",
    "ComparisonEntry": "compare",
    "compare_documents": "compare",
    "SCHEMA_NAME": "run",
    "SCHEMA_VERSION": "run",
    "BenchContext": "run",
    "BenchDocument": "run",
    "BenchRecord": "run",
    "artifact_dir": "run",
    "default_json_path": "run",
    "run_specs": "run",
    "TIERS": "spec",
    "BenchError": "spec",
    "BenchSpec": "spec",
    "all_specs": "spec",
    "get_spec": "spec",
    "load_suite": "spec",
    "register": "spec",
}


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)


__all__ = sorted(_EXPORTS)
