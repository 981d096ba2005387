"""Tabular rendering of the paper's table-level experiment results.

Each ``tabulate_tableN`` function accepts the corresponding experiment
function's return value (see :mod:`repro.sim.experiments`) and reduces it
to the renderer-independent :class:`~repro.analysis.model.Table` with the
same rows/columns as the paper's table; its ``chart_tableN`` sibling
extracts the :class:`~repro.analysis.model.Chart` the paper report
plots.  The two Section 6.1.2 ablations have a ``tabulate_*`` but no
chart.  :func:`format_table` renders ad-hoc rows (the sweep summaries)
as fixed-width text.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.model import Chart, Table


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render a simple fixed-width text table."""
    return Table.build(headers, rows, title=title).to_text()


def tabulate_table2(summary: dict) -> Table:
    """Table 2: max / gmean WS improvement over REFpb and REFab."""
    rows = []
    for density in sorted(summary):
        for mechanism in ("darp", "sarppb", "dsarp"):
            entry = summary[density][mechanism]
            rows.append(
                [
                    f"{density}Gb",
                    mechanism.upper(),
                    f"{entry['max_refpb']:.1f}",
                    f"{entry['max_refab']:.1f}",
                    f"{entry['gmean_refpb']:.1f}",
                    f"{entry['gmean_refab']:.1f}",
                ]
            )
    return Table.build(
        ["Density", "Mechanism", "Max% vs REFpb", "Max% vs REFab",
         "Gmean% vs REFpb", "Gmean% vs REFab"],
        rows,
        title="Table 2: WS improvement of DARP/SARPpb/DSARP",
    )


def chart_table2(summary: dict) -> Chart:
    """Table 2 chart: gmean improvement over REFpb per density."""
    densities = sorted(summary)
    mechanisms = ("darp", "sarppb", "dsarp")
    return Chart.build(
        "Table 2: gmean WS improvement over REFpb (%)",
        [f"{d}Gb" for d in densities],
        {m: [summary[d][m]["gmean_refpb"] for d in densities] for m in mechanisms},
        kind="bar",
        y_label="gmean improvement (%)",
    )


def tabulate_table3(result: dict) -> Table:
    """Table 3: DSARP effect on multi-core system metrics."""
    rows = []
    for cores in sorted(result):
        entry = result[cores]
        rows.append(
            [
                cores,
                f"{entry['weighted_speedup_improvement']:.1f}",
                f"{entry['harmonic_speedup_improvement']:.1f}",
                f"{entry['maximum_slowdown_reduction']:.1f}",
                f"{entry['energy_per_access_reduction']:.1f}",
            ]
        )
    return Table.build(
        ["Cores", "WS improv. (%)", "HS improv. (%)",
         "Max-slowdown red. (%)", "Energy/access red. (%)"],
        rows,
        title="Table 3: DSARP vs REFab across core counts",
    )


def chart_table3(result: dict) -> Chart:
    """Table 3 chart: one line per DSARP metric across core counts."""
    cores = sorted(result)
    keys = (
        "weighted_speedup_improvement",
        "harmonic_speedup_improvement",
        "maximum_slowdown_reduction",
        "energy_per_access_reduction",
    )
    return Chart.build(
        "Table 3: DSARP vs REFab across core counts",
        [str(c) for c in cores],
        {key: [result[c][key] for c in cores] for key in keys},
        kind="line",
        y_label="improvement (%)",
    )


def tabulate_table4(result: dict) -> Table:
    """Table 4: SARPpb improvement over REFpb as tFAW/tRRD vary."""
    tfaws = sorted(result)
    rows = [
        ["tFAW/tRRD (cycles)"] + [f"{t}/{max(1, t // 5)}" for t in tfaws],
        ["WS improvement (%)"] + [f"{result[t]:.1f}" for t in tfaws],
    ]
    return Table.build(
        ["metric"] + [str(t) for t in tfaws],
        rows,
        title="Table 4: SARPpb over REFpb vs tFAW",
    )


def chart_table4(result: dict) -> Chart:
    """Table 4 chart: SARPpb improvement versus tFAW."""
    tfaws = sorted(result)
    return Chart.build(
        "Table 4: SARPpb over REFpb vs tFAW",
        [str(t) for t in tfaws],
        {"WS improvement": [result[t] for t in tfaws]},
        kind="line",
        y_label="improvement (%)",
    )


def tabulate_table5(result: dict) -> Table:
    """Table 5: SARPpb improvement over REFpb as subarrays per bank vary."""
    counts = sorted(result)
    rows = [["WS improvement (%)"] + [f"{result[c]:.1f}" for c in counts]]
    return Table.build(
        ["Subarrays-per-bank"] + [str(c) for c in counts],
        rows,
        title="Table 5: effect of subarrays per bank",
    )


def chart_table5(result: dict) -> Chart:
    """Table 5 chart: SARPpb improvement versus subarrays per bank."""
    counts = sorted(result)
    return Chart.build(
        "Table 5: effect of subarrays per bank",
        [str(c) for c in counts],
        {"WS improvement": [result[c] for c in counts]},
        kind="line",
        y_label="improvement (%)",
    )


def tabulate_table6(result: dict) -> Table:
    """Table 6: DSARP improvement at 64 ms retention."""
    rows = []
    for density in sorted(result):
        entry = result[density]
        rows.append(
            [
                f"{density}Gb",
                f"{entry['max_refpb']:.1f}",
                f"{entry['max_refab']:.1f}",
                f"{entry['gmean_refpb']:.1f}",
                f"{entry['gmean_refab']:.1f}",
            ]
        )
    return Table.build(
        ["Density", "Max% vs REFpb", "Max% vs REFab",
         "Gmean% vs REFpb", "Gmean% vs REFab"],
        rows,
        title="Table 6: DSARP improvement with 64 ms retention",
    )


def chart_table6(result: dict) -> Chart:
    """Table 6 chart: DSARP improvement at 64 ms retention per density."""
    densities = sorted(result)
    keys = ("gmean_refpb", "gmean_refab", "max_refpb", "max_refab")
    return Chart.build(
        "Table 6: DSARP improvement with 64 ms retention",
        [f"{d}Gb" for d in densities],
        {key: [result[d][key] for d in densities] for key in keys},
        kind="bar",
        y_label="improvement (%)",
    )


def tabulate_darp_components(result: dict) -> Table:
    """Section 6.1.2: out-of-order refresh alone versus full DARP."""
    rows = [
        [f"{density}Gb", f"{entry['out_of_order_only']:+.1f}", f"{entry['darp']:+.1f}"]
        for density, entry in sorted(result.items())
    ]
    return Table.build(
        ["Density", "Out-of-order only (% over REFab)", "Full DARP (% over REFab)"],
        rows,
        title="Section 6.1.2: DARP component breakdown",
    )


def tabulate_dsarp_additivity(result: dict) -> Table:
    """Ablation: DARP, SARPpb and DSARP improvement over REFab at 32 Gb."""
    return Table.build(
        ["Mechanism", "WS improvement over REFab (%)"],
        [[name, f"{value:+.2f}"] for name, value in result.items()],
        title="DSARP additivity ablation (32 Gb)",
    )
