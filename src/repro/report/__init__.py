"""Report generation: paper artifacts, benchmark trends and run reports.

Three generators, all wired through ``repro report``:

* :mod:`repro.report.paper` — regenerate every Table 2-6 / Figure 5-16
  artifact (markdown, LaTeX, SVG, canonical JSON) from the
  fingerprint-keyed result store, crosschecked against the pinned golden
  fixtures;
* :mod:`repro.report.trend` — per-benchmark wall-clock and fidelity
  trajectories over the committed ``benchmarks/history/`` snapshots,
  drift-flagged by the compare gate;
* :mod:`repro.report.run` — one document stitching trace summaries,
  epoch IPC trajectories and profiler hot spots.

:mod:`repro.report.plot` renders all charts as dependency-free,
deterministic SVG (the target container has no plotting stack).
"""

from repro.report.paper import PaperReport, generate_paper_report
from repro.report.plot import render_chart, render_sparkline, unicode_sparkline
from repro.report.run import RunReport, build_run_report, write_run_report
from repro.report.trend import (
    DRIFT_MARKER,
    TrendReport,
    build_trend_report,
    write_trend_report,
)

__all__ = [
    "DRIFT_MARKER",
    "PaperReport",
    "RunReport",
    "TrendReport",
    "build_run_report",
    "build_trend_report",
    "generate_paper_report",
    "render_chart",
    "render_sparkline",
    "unicode_sparkline",
    "write_run_report",
    "write_trend_report",
]
