"""Analysis helpers: CDFs and result rendering."""

from .cdf import Cdf
from .report import Series, Table, format_value, render_all

__all__ = [
    "Cdf",
    "Series",
    "Table",
    "format_value",
    "render_all",
]
