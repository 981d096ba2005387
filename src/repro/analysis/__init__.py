"""Reduction of experiment results to paper-style tables and charts."""

from repro.analysis.model import Chart, Table
from repro.analysis.tables import format_table

__all__ = ["Chart", "Table", "format_table"]
