"""Tabular rendering of the paper's figure-level data series.

Each ``tabulate_figureN`` function accepts the corresponding experiment
function's return value (see :mod:`repro.sim.experiments`) and reduces the
same series the paper plots to one or more
:class:`~repro.analysis.model.Table` blocks; its ``chart_figureN``
sibling extracts the :class:`~repro.analysis.model.Chart` the report
plots.  The experiment registry (:mod:`repro.sim.registry`) pairs each
experiment with both, and every surface renders from them: fixed-width
text for the terminal and ``results/*.txt``, markdown, LaTeX and SVG for
the paper report.
"""

from __future__ import annotations

from repro.analysis.model import Chart, Table


def _density_table(result: dict, spec: str, title: str) -> Table:
    """``{density: {mechanism: value}}`` -> one row per density."""
    mechanisms = list(next(iter(result.values())).keys())
    rows = [
        [f"{density}Gb"] + [format(result[density][m], spec) for m in mechanisms]
        for density in sorted(result)
    ]
    return Table.build(["Density"] + mechanisms, rows, title=title)


def _density_series(result: dict, kind: str, title: str, y_label: str) -> Chart:
    """``{density: {mechanism: value}}`` -> one series per mechanism."""
    densities = sorted(result)
    mechanisms = list(next(iter(result.values())).keys())
    return Chart.build(
        title,
        [f"{d}Gb" for d in densities],
        {m: [result[d][m] for d in densities] for m in mechanisms},
        kind=kind,
        y_label=y_label,
    )


def tabulate_figure5(points) -> Table:
    """Figure 5: refresh latency (tRFCab) trend vs density."""
    rows = []
    for point in points:
        present = f"{point.present_ns:.0f}" if point.present_ns is not None else "-"
        rows.append(
            [
                point.density_gb,
                present,
                f"{point.projection1_ns:.0f}",
                f"{point.projection2_ns:.0f}",
            ]
        )
    return Table.build(
        ["Density (Gb)", "Present (ns)", "Projection 1 (ns)", "Projection 2 (ns)"],
        rows,
        title="Figure 5: refresh latency (tRFCab) trend",
    )


def chart_figure5(points) -> Chart:
    """Figure 5 chart: one line per tRFCab source (measured, projections)."""
    return Chart.build(
        "Figure 5: refresh latency (tRFCab) trend",
        [p.density_gb for p in points],
        {
            "present": [p.present_ns for p in points],
            "projection 1": [p.projection1_ns for p in points],
            "projection 2": [p.projection2_ns for p in points],
        },
        kind="line",
        y_label="tRFCab (ns)",
    )


def tabulate_figure6(result: dict) -> Table:
    """Figure 6: % performance loss of REFab vs the ideal, by category."""
    densities = sorted(next(iter(result.values())).keys())
    rows = []
    for category in sorted(k for k in result if k >= 0):
        rows.append(
            [f"{category}%"] + [f"{result[category][d]:.1f}" for d in densities]
        )
    rows.append(["Mean"] + [f"{result[-1][d]:.1f}" for d in densities])
    return Table.build(
        ["Intensive share"] + [f"{d}Gb loss (%)" for d in densities],
        rows,
        title="Figure 6: performance loss due to REFab",
    )


def chart_figure6(result: dict) -> Chart:
    """Figure 6 chart: REFab loss per intensity category, one bar per density."""
    densities = sorted(next(iter(result.values())).keys())
    categories = sorted(k for k in result if k >= 0)
    return Chart.build(
        "Figure 6: performance loss due to REFab",
        [f"{c}%" for c in categories],
        {f"{d}Gb": [result[c][d] for c in categories] for d in densities},
        kind="bar",
        y_label="WS loss (%)",
    )


def tabulate_figure7(result: dict) -> Table:
    """Figure 7: % performance loss of REFab and REFpb vs the ideal."""
    rows = []
    for density in sorted(result):
        rows.append(
            [
                f"{density}Gb",
                f"{result[density]['refab']:.1f}",
                f"{result[density]['refpb']:.1f}",
            ]
        )
    return Table.build(
        ["Density", "REFab loss (%)", "REFpb loss (%)"],
        rows,
        title="Figure 7: performance loss due to REFab and REFpb",
    )


def chart_figure7(result: dict) -> Chart:
    """Figure 7 chart: REFab and REFpb loss per density."""
    return _density_series(
        result,
        "bar",
        "Figure 7: performance loss due to REFab and REFpb",
        "WS loss (%)",
    )


def tabulate_figure12(sweep: dict) -> list[Table]:
    """Figure 12: per-workload WS normalized to REFab (one block per density)."""
    blocks = []
    for density in sorted(sweep):
        per_workload = sweep[density]
        mechanisms = sorted(next(iter(per_workload.values())).keys())
        rows = []
        for name in sorted(per_workload):
            rows.append(
                [name] + [f"{per_workload[name][m]:.3f}" for m in mechanisms]
            )
        blocks.append(
            Table.build(
                ["Workload"] + mechanisms,
                rows,
                title=f"Figure 12 ({density}Gb): WS normalized to REFab",
            )
        )
    return blocks


def chart_figure12(sweep: dict) -> Chart:
    """Figure 12 chart: one bar group per workload at the largest density.

    The largest density is the paper's headline panel; the per-density
    tables carry the full data.
    """
    density = max(sweep)
    per_workload = sweep[density]
    mechanisms = sorted(next(iter(per_workload.values())).keys())
    names = sorted(per_workload)
    return Chart.build(
        f"Figure 12 ({density}Gb): WS normalized to REFab",
        names,
        {m: [per_workload[w][m] for w in names] for m in mechanisms},
        kind="bar",
        y_label="normalized WS",
    )


def tabulate_figure13(result: dict) -> Table:
    """Figure 13: average WS improvement over REFab for all mechanisms."""
    return _density_table(
        result, "+.1f", "Figure 13: average WS improvement over REFab (%)"
    )


def chart_figure13(result: dict) -> Chart:
    """Figure 13 chart: WS improvement over REFab per density."""
    return _density_series(
        result,
        "bar",
        "Figure 13: average WS improvement over REFab (%)",
        "improvement (%)",
    )


def tabulate_figure14(result: dict) -> Table:
    """Figure 14: energy per access for all mechanisms."""
    return _density_table(result, ".1f", "Figure 14: energy per access (nJ)")


def chart_figure14(result: dict) -> Chart:
    """Figure 14 chart: energy per access per density."""
    return _density_series(
        result, "bar", "Figure 14: energy per access (nJ)", "nJ/access"
    )


def tabulate_figure15(result: dict) -> Table:
    """Figure 15: DSARP gains over REFab / REFpb by memory intensity."""
    categories = sorted(result)
    densities = sorted(next(iter(result.values())).keys())
    rows = []
    for category in categories:
        for density in densities:
            entry = result[category][density]
            rows.append(
                [
                    f"{category}%",
                    f"{density}Gb",
                    f"{entry['vs_refab']:+.1f}",
                    f"{entry['vs_refpb']:+.1f}",
                ]
            )
    return Table.build(
        ["Intensive share", "Density", "vs REFab (%)", "vs REFpb (%)"],
        rows,
        title="Figure 15: DSARP improvement by memory intensity",
    )


def chart_figure15(result: dict) -> Chart:
    """Figure 15 chart: DSARP gains per intensity category and density."""
    categories = sorted(result)
    densities = sorted(next(iter(result.values())).keys())
    series = {}
    for density in densities:
        series[f"vs REFab {density}Gb"] = [
            result[c][density]["vs_refab"] for c in categories
        ]
        series[f"vs REFpb {density}Gb"] = [
            result[c][density]["vs_refpb"] for c in categories
        ]
    return Chart.build(
        "Figure 15: DSARP improvement by memory intensity",
        [f"{c}%" for c in categories],
        series,
        kind="bar",
        y_label="improvement (%)",
    )


def tabulate_figure16(result: dict) -> Table:
    """Figure 16: WS normalized to REFab for FGR / AR / DSARP."""
    return _density_table(
        result, ".3f", "Figure 16: WS normalized to REFab (FGR / AR / DSARP)"
    )


def chart_figure16(result: dict) -> Chart:
    """Figure 16 chart: normalized WS of FGR / AR / DSARP per density."""
    return _density_series(
        result,
        "bar",
        "Figure 16: WS normalized to REFab (FGR / AR / DSARP)",
        "normalized WS",
    )
