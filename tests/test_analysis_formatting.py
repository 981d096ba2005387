"""Unit tests for result tabulation (analysis package) and projections.

Every table renders through ``tabulate_*(...).to_text()``, the same path
the text artifacts of ``repro bench run`` take.
"""

from repro.analysis.figures import (
    tabulate_figure12,
    tabulate_figure13,
    tabulate_figure14,
    tabulate_figure15,
    tabulate_figure16,
    tabulate_figure5,
    tabulate_figure6,
    tabulate_figure7,
)
from repro.analysis.tables import (
    format_table,
    tabulate_darp_components,
    tabulate_dsarp_additivity,
    tabulate_table2,
    tabulate_table3,
    tabulate_table4,
    tabulate_table5,
    tabulate_table6,
)
from repro.sim.projections import refresh_latency_trend


class TestGenericTable:
    def test_alignment_and_title(self):
        text = format_table(["a", "long_header"], [[1, 2], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long_header" in lines[1]
        assert len(lines) == 2 + 1 + 2  # title + header + separator + rows

    def test_without_title(self):
        text = format_table(["x"], [[1]])
        assert text.splitlines()[0].startswith("x")


class TestProjections:
    def test_trend_points(self):
        points = refresh_latency_trend((8, 32))
        assert points[0].present_ns == 350.0
        assert points[1].present_ns is None
        assert round(points[1].projection2_ns) == 890


class TestFigureFormatters:
    def test_figure5(self):
        text = tabulate_figure5(refresh_latency_trend((8, 32))).to_text()
        assert "Figure 5" in text and "890" in text

    def test_figure6(self):
        data = {0: {8: 1.0, 32: 2.0}, 25: {8: 1.5, 32: 3.0}, 50: {8: 2.0, 32: 4.0},
                75: {8: 2.5, 32: 5.0}, 100: {8: 3.0, 32: 6.0}, -1: {8: 2.0, 32: 4.0}}
        text = tabulate_figure6(data).to_text()
        assert "100%" in text and "Mean" in text

    def test_figure7(self):
        text = tabulate_figure7({8: {"refab": 5.0, "refpb": 2.0}}).to_text()
        assert "REFab loss" in text and "5.0" in text

    def test_figure12(self):
        sweep = {8: {"mix000_00": {"refab": 1.0, "dsarp": 1.05}}}
        (block,) = tabulate_figure12(sweep)
        text = block.to_text()
        assert "mix000_00" in text and "1.050" in text

    def test_figure13_14(self):
        data = {8: {"refab": 0.0, "dsarp": 5.0}}
        assert "dsarp" in tabulate_figure13(data).to_text()
        energy = {8: {"refab": 30.0, "dsarp": 28.0}}
        assert "dsarp" in tabulate_figure14(energy).to_text()

    def test_figure15(self):
        data = {0: {8: {"vs_refab": 1.0, "vs_refpb": 0.5}}}
        text = tabulate_figure15(data).to_text()
        assert "vs REFab" in text

    def test_figure16(self):
        text = tabulate_figure16({8: {"refab": 1.0, "fgr4x": 0.8}}).to_text()
        assert "fgr4x" in text and "0.800" in text


class TestTableFormatters:
    def test_table2(self):
        entry = {
            "max_refpb": 1.0,
            "gmean_refpb": 0.5,
            "max_refab": 2.0,
            "gmean_refab": 1.0,
        }
        summary = {8: {"darp": entry, "sarppb": entry, "dsarp": entry}}
        text = tabulate_table2(summary).to_text()
        assert "DSARP" in text and "Gmean% vs REFab" in text

    def test_table3(self):
        entry = {
            "weighted_speedup_improvement": 1.0,
            "harmonic_speedup_improvement": 1.0,
            "maximum_slowdown_reduction": 1.0,
            "energy_per_access_reduction": 1.0,
        }
        assert "Cores" in tabulate_table3({2: entry, 8: entry}).to_text()

    def test_table4_and_5(self):
        assert "tFAW" in tabulate_table4({5: 10.0, 20: 5.0}).to_text()
        assert "Subarrays" in tabulate_table5({1: 0.0, 8: 5.0}).to_text()

    def test_table6(self):
        entry = {
            "max_refpb": 1.0,
            "gmean_refpb": 0.5,
            "max_refab": 2.0,
            "gmean_refab": 1.0,
        }
        assert "64 ms" in tabulate_table6({8: entry}).to_text()

    def test_ablations(self):
        components = {8: {"out_of_order_only": 1.0, "darp": 2.5}}
        text = tabulate_darp_components(components).to_text()
        assert "Out-of-order only" in text and "+2.5" in text
        text = tabulate_dsarp_additivity({"darp": 1.0, "dsarp": 3.25}).to_text()
        assert "32 Gb" in text and "+3.25" in text
