"""Meters, curves, tables, and ASCII figure rendering."""

from .curves import Curve
from .meters import AverageMeter, EMAMeter
from .plots import ascii_plot
from .svg import render_svg, save_svg
from .tables import format_markdown_table, format_table

__all__ = [
    "AverageMeter",
    "EMAMeter",
    "Curve",
    "ascii_plot",
    "render_svg",
    "save_svg",
    "format_table",
    "format_markdown_table",
]
