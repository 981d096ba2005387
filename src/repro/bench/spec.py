"""Declarative benchmark specifications and their registry.

A :class:`BenchSpec` turns one performance benchmark into data: a name, a
tier (``quick`` benchmarks respect the ``REPRO_CYCLES`` window and are
cheap enough for CI; ``full`` benchmarks pin the paper's full measured
window), the target callable that produces the benchmark's payload, and
the extractors that reduce that payload to machine-readable numbers:

* ``metrics``  — deterministic *fidelity* numbers (paper results such as
  DSARP's gmean WS improvement).  ``repro bench compare`` fails on any
  drift in these, the same way the differential suite gates the kernels.
* ``timings``  — wall-clock-derived numbers (speedups, cache ratios)
  that are recorded for trend analysis but never gated, because they
  vary with the machine.
* ``checks``   — the benchmark's own assertions (the paper's trends);
  a failing check marks the benchmark ``checks_passed: false`` and makes
  ``repro bench run`` exit non-zero.

Specs are registered in a process-wide registry; the standard suite in
:mod:`repro.bench.suite` registers them, and ``repro bench run --only
<name>`` runs any one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Literal, Optional, get_args

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.bench.run import BenchContext

#: Benchmark tiers, cheapest first.  ``repro bench run --tier quick`` runs
#: the quick specs only; ``--tier full`` runs every registered spec.
Tier = Literal["quick", "full"]
TIERS: tuple[str, ...] = get_args(Tier)


class BenchError(ValueError):
    """A benchmark spec or result document is malformed."""


@dataclass(frozen=True)
class BenchSpec:
    """One registered performance benchmark.

    Parameters
    ----------
    name:
        Registry key; also names the JSON record and (by default) the
        human-readable text artifact.
    target:
        Callable receiving a :class:`~repro.bench.run.BenchContext` and
        returning the benchmark's payload.  The harness times this call.
    tier:
        ``"quick"`` or ``"full"`` (see :data:`TIERS`).
    metrics:
        Optional ``payload -> dict[str, float]`` extractor of the gated
        fidelity numbers.
    timings:
        Optional ``payload -> dict[str, float]`` extractor of ungated
        wall-clock-derived numbers.
    checks:
        Optional ``payload, context -> None`` assertion hook; raises
        ``AssertionError`` when the payload violates the paper's trends.
    format:
        Optional ``payload -> str`` renderer for the text artifact.
    artifact:
        Stem of the text artifact file (defaults to ``name``).
    max_regression:
        Optional per-benchmark wall-clock regression threshold (a
        fraction, e.g. ``0.5`` for 50 %) overriding the global
        ``--max-regression`` during ``repro bench compare``.  Use for
        benchmarks whose wall time is inherently noisy.
    """

    name: str
    target: Callable[["BenchContext"], object]
    tier: str = "quick"
    metrics: Optional[Callable[[object], dict]] = None
    timings: Optional[Callable[[object], dict]] = None
    checks: Optional[Callable[[object, "BenchContext"], None]] = None
    format: Optional[Callable[[object], str]] = None
    artifact: Optional[str] = None
    max_regression: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise BenchError("a benchmark spec needs a non-empty name")
        if self.tier not in TIERS:
            raise BenchError(
                f"unknown tier {self.tier!r} for benchmark {self.name!r}; "
                f"expected one of {', '.join(TIERS)}"
            )
        if not callable(self.target):
            raise BenchError(f"benchmark {self.name!r} needs a callable target")
        if self.max_regression is not None and self.max_regression <= 0:
            raise BenchError(
                f"benchmark {self.name!r}: max_regression must be positive, "
                f"got {self.max_regression}"
            )
        if self.artifact is None:
            object.__setattr__(self, "artifact", self.name)

    @property
    def description(self) -> str:
        """One-line summary: the target's docstring's first line."""
        doc = self.target.__doc__ or ""
        for line in doc.splitlines():
            line = line.strip()
            if line:
                return line.rstrip(".")
        return ""


#: Process-wide spec registry, populated by :func:`register`.
_REGISTRY: dict[str, BenchSpec] = {}


def register(spec: BenchSpec) -> BenchSpec:
    """Add a spec to the registry; duplicate names are an error."""
    if spec.name in _REGISTRY:
        raise BenchError(f"benchmark {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def load_suite() -> None:
    """Ensure the standard suite's specs are registered."""
    import repro.bench.suite  # noqa: F401  (importing registers the suite)


def get_spec(name: str) -> BenchSpec:
    """Look a registered spec up by name."""
    load_suite()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise BenchError(f"unknown benchmark {name!r}; registered: {known}") from None


def all_specs(tier: Optional[str] = None) -> list[BenchSpec]:
    """Registered specs in name order, optionally filtered by tier.

    ``tier="quick"`` selects the quick specs only; ``tier="full"`` (or
    ``None``) selects everything — full is a superset of quick, so a full
    run always covers the quick suite.
    """
    load_suite()
    if tier is not None and tier not in TIERS:
        raise BenchError(f"unknown tier {tier!r}; expected one of {', '.join(TIERS)}")
    specs = sorted(_REGISTRY.values(), key=lambda spec: spec.name)
    if tier == "quick":
        specs = [spec for spec in specs if spec.tier == "quick"]
    return specs
