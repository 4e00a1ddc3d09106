"""Result containers, ASCII rendering, CSV export, experiment registry."""

from repro.reporting.figures import Figure, Series, ascii_plot
from repro.reporting.table import Report, Table, report_json, write_report

__all__ = ["Figure", "Report", "Series", "Table", "ascii_plot", "report_json",
           "write_report"]
