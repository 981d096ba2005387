"""Paper artifact generator: Tables 2-6 and Figures 5-16 from the store.

Following the SimCash ``paper_generator`` pattern, every headline artifact
of the reproduction is regenerated from data rather than copied from test
output: each record of the experiment registry
(:data:`repro.sim.registry.EXPERIMENTS`) that has a chart names one paper
table/figure, the sweep spec and aggregate that produce its payload, the
:mod:`repro.analysis` tabulation that models it, and the chart extraction
for the SVG plot.  :func:`generate_paper_report` runs the experiments
through a shared (optionally store-backed)
:class:`~repro.sim.runner.ExperimentRunner`, so a **warm job-keyed
result store regenerates every artifact with zero simulations** — the
engine summary embedded in the report index proves it.

Per artifact the generator writes four files into the output directory:

* ``<name>.json`` — the canonical experiment payload (sorted keys),
* ``<name>.md``   — the markdown table(s),
* ``<name>.tex``  — a LaTeX-ready ``tabular`` block,
* ``<name>.svg``  — the plot.

Golden crosscheck: when the run's window and scale match the pinned
golden identity (the same reduced scale ``tests/golden/`` is generated
at), the freshly computed Table 2 summary and Figure 13 32 Gb row are
compared against the committed fixtures — a report that disagrees with
the pinned paper numbers fails loudly instead of silently publishing
drifted artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.model import Table
from repro.config.serialize import canonical
from repro.report.plot import render_chart
from repro.sim.experiments import ExperimentScale, default_scale
from repro.sim.registry import EXPERIMENTS, Experiment
from repro.sim.runner import ExperimentRunner

#: The golden fixtures' identity (see ``tests/test_golden_regression.py``:
#: the fixtures are regenerated under exactly this window and scale, so
#: the crosscheck only claims disagreement when it compares like with
#: like).
GOLDEN_CYCLES = 1200
GOLDEN_WARMUP = 200
GOLDEN_SCALE = ExperimentScale(
    workloads_per_category=1, sensitivity_workloads=1, densities=(8, 32)
)

#: Golden fixture file -> how to slice the artifact payloads for it.
GOLDEN_FIXTURES = {
    "table2_summary": ("table2", lambda payload: payload),
    "figure13_32gb_row": ("figure13", lambda payload: payload.get("32")),
}


class ReportError(ValueError):
    """A report request or input document is malformed."""


def golden_dir() -> Optional[Path]:
    """The repo's ``tests/golden`` directory, or ``None`` when not in a
    source checkout (installed packages cannot crosscheck)."""
    root = Path(__file__).resolve().parents[3]
    candidate = root / "tests" / "golden"
    if (root / "pyproject.toml").exists() and candidate.is_dir():
        return candidate
    return None


# -- generation --------------------------------------------------------------


@dataclass
class CrosscheckResult:
    """Verdict of one golden-fixture comparison."""

    fixture: str
    artifact: str
    status: str  # "ok" | "mismatch" | "skipped"
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "mismatch"


@dataclass
class PaperReport:
    """What :func:`generate_paper_report` produced."""

    out_dir: Path
    artifacts: list = field(default_factory=list)  # (name, [paths])
    crosschecks: list = field(default_factory=list)
    engine_summary: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not any(check.failed for check in self.crosschecks)


def _artifact_markdown(artifact: Experiment, blocks: list[Table]) -> str:
    lines = [f"## {artifact.title}", ""]
    for block in blocks:
        if block.title and block.title != artifact.title:
            lines.append(f"### {block.title}")
            lines.append("")
        lines.append(block.to_markdown())
        lines.append("")
    lines.append(f"![{artifact.name}]({artifact.name}.svg)")
    lines.append("")
    return "\n".join(lines)


def _crosscheck_applies(runner: ExperimentRunner, scale: ExperimentScale) -> bool:
    return (
        runner.cycles == GOLDEN_CYCLES
        and runner.warmup == GOLDEN_WARMUP
        and runner.seed == 0
        and runner.scheduler is None
        and runner.page_policy is None
        and scale == GOLDEN_SCALE
    )


def crosscheck_goldens(
    payloads: dict,
    runner: ExperimentRunner,
    scale: ExperimentScale,
) -> list[CrosscheckResult]:
    """Compare freshly computed payloads against the pinned golden numbers.

    Checks are strict equality on the canonical JSON form — exactly the
    comparison ``tests/test_golden_regression.py`` makes — but only when
    the run matches the golden identity (window, seed, scale, default
    policies); any other configuration legitimately produces different
    numbers and is reported as ``skipped``.
    """
    fixtures_dir = golden_dir()
    results = []
    for fixture, (artifact_name, slicer) in GOLDEN_FIXTURES.items():
        if artifact_name not in payloads:
            continue
        if not _crosscheck_applies(runner, scale):
            results.append(
                CrosscheckResult(
                    fixture, artifact_name, "skipped",
                    "run window/scale differs from the golden identity",
                )
            )
            continue
        if fixtures_dir is None or not (fixtures_dir / f"{fixture}.json").exists():
            results.append(
                CrosscheckResult(
                    fixture, artifact_name, "skipped",
                    "golden fixtures unavailable (not a source checkout)",
                )
            )
            continue
        golden = json.loads((fixtures_dir / f"{fixture}.json").read_text())
        computed = slicer(canonical(payloads[artifact_name]))
        if computed == golden:
            results.append(CrosscheckResult(fixture, artifact_name, "ok"))
        else:
            results.append(
                CrosscheckResult(
                    fixture, artifact_name, "mismatch",
                    f"regenerated {artifact_name} disagrees with the pinned "
                    f"tests/golden/{fixture}.json; the result store is stale "
                    f"or tampered, or behavior drifted — do not publish",
                )
            )
    return results


def _index_markdown(report: PaperReport, runner: ExperimentRunner,
                    scale: ExperimentScale) -> str:
    summary = report.engine_summary
    lines = [
        "# Paper artifacts",
        "",
        f"Regenerated from the result store: {summary.get('jobs', 0)} jobs "
        f"planned — {summary.get('simulated', 0)} simulated, "
        f"{summary.get('store_hits', 0)} store hits, "
        f"{summary.get('memory_hits', 0)} memory hits.",
        "",
        f"- window: cycles={runner.cycles} warmup={runner.warmup} "
        f"seed={runner.seed}",
        f"- scale: workloads_per_category={scale.workloads_per_category} "
        f"sensitivity_workloads={scale.sensitivity_workloads} "
        f"densities={list(scale.densities)}",
        "",
        "| artifact | files |",
        "|---|---|",
    ]
    for name, paths in report.artifacts:
        files = ", ".join(f"[{p.name}]({p.name})" for p in paths)
        lines.append(f"| {name} | {files} |")
    lines.append("")
    lines.append("## Golden crosscheck")
    lines.append("")
    if not report.crosschecks:
        lines.append("- not applicable (no golden-pinned artifact requested)")
    for check in report.crosschecks:
        status = "OK" if check.status == "ok" else check.status.upper()
        detail = f" — {check.detail}" if check.detail else ""
        lines.append(f"- {check.fixture}: **{status}**{detail}")
    lines.append("")
    return "\n".join(lines)


def generate_paper_report(
    out_dir: str | Path,
    runner: Optional[ExperimentRunner] = None,
    scale: Optional[ExperimentScale] = None,
    names: Optional[Sequence[str]] = None,
    crosscheck: bool = True,
) -> PaperReport:
    """Regenerate paper artifacts into ``out_dir``; returns the report.

    The artifacts are the registry's experiments that have a chart;
    ``names`` selects a subset of them (default: all).  Simulations run
    only for result-store misses; a warm store (or a memoized runner)
    regenerates everything without simulating.
    """
    runner = runner if runner is not None else ExperimentRunner()
    scale = scale if scale is not None else default_scale()
    artifacts = {
        name: experiment
        for name, experiment in EXPERIMENTS.items()
        if experiment.chart is not None
    }
    selected = list(names) if names else sorted(artifacts)
    unknown = [name for name in selected if name not in artifacts]
    if unknown:
        raise ReportError(
            f"unknown artifact(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(artifacts))}"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = PaperReport(out_dir=out)
    payloads: dict[str, object] = {}
    for name in selected:
        artifact = artifacts[name]
        payload = artifact.run(runner, scale)
        payloads[name] = payload
        blocks = artifact.tables(payload)
        paths = []
        json_path = out / f"{name}.json"
        json_path.write_text(
            json.dumps(canonical(payload), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        paths.append(json_path)
        md_path = out / f"{name}.md"
        md_path.write_text(_artifact_markdown(artifact, blocks), encoding="utf-8")
        paths.append(md_path)
        tex_path = out / f"{name}.tex"
        tex_path.write_text(
            "\n\n".join(block.to_latex() for block in blocks) + "\n",
            encoding="utf-8",
        )
        paths.append(tex_path)
        svg_path = out / f"{name}.svg"
        svg_path.write_text(render_chart(artifact.chart(payload)), encoding="utf-8")
        paths.append(svg_path)
        report.artifacts.append((name, paths))
    if crosscheck:
        report.crosschecks = crosscheck_goldens(payloads, runner, scale)
    report.engine_summary = runner.summary()
    (out / "index.md").write_text(
        _index_markdown(report, runner, scale), encoding="utf-8"
    )
    return report
