"""Declarative design-space exploration.

The sweep subsystem turns arbitrary multi-axis design-space explorations
into data instead of code:

* :mod:`repro.sweep.spec` — :class:`SweepSpec`: named axes over system
  knobs (density, cores, tFAW, subarrays per bank, retention, ...), grid
  or zip expansion, mechanism lists and workload sets, serializable
  to/from JSON,
* :mod:`repro.sweep.compile` — deterministic expansion of a spec into one
  engine batch executed through an
  :class:`~repro.sim.runner.ExperimentRunner` (parallel fan-out and
  persistent-store caching included), producing a grid of
  :class:`SweepCell` measurements,
* :mod:`repro.sweep.analyze` — Pareto frontier (weighted speedup versus
  energy per access), per-axis sensitivity tables and best-config-per-
  workload summaries,
* :mod:`repro.sweep.artifact` — self-contained run directories
  (``spec.json`` / ``results.jsonl`` / ``summary.md``).

Every simulated paper result is a spec too: :mod:`repro.sim.experiments`
defines one spec factory and one aggregate per table and figure, and
:data:`repro.sim.registry.EXPERIMENTS` runs each as
``aggregate(run_sweep(spec(scale), runner))``.  This package knows
nothing of them; the dependency points from the experiments to here.

CLI: ``python -m repro sweep <spec.json|builtin-name> --workers N
--store cache.sqlite --out dir/``, where a built-in name is any
experiment's spec name (``repro list`` shows them).
"""

from repro.sweep.analyze import (
    ConfigSummary,
    best_per_workload,
    config_summaries,
    pareto_frontier,
    sensitivity,
    summarize,
)
from repro.sweep.artifact import load_run_dir, write_run_dir
from repro.sweep.compile import (
    SweepCell,
    SweepResult,
    build_config,
    build_workloads,
    describe_plan,
    expand_points,
    plan_sweep,
    run_sweep,
)
from repro.sweep.spec import (
    KNOWN_AXES,
    Axis,
    SpecError,
    SweepSpec,
    WorkloadSpec,
    describe_point,
    point_key,
)

__all__ = [
    "Axis",
    "KNOWN_AXES",
    "SpecError",
    "SweepSpec",
    "WorkloadSpec",
    "describe_point",
    "point_key",
    "SweepCell",
    "SweepResult",
    "build_config",
    "build_workloads",
    "describe_plan",
    "expand_points",
    "plan_sweep",
    "run_sweep",
    "ConfigSummary",
    "best_per_workload",
    "config_summaries",
    "pareto_frontier",
    "sensitivity",
    "summarize",
    "load_run_dir",
    "write_run_dir",
]
