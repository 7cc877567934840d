"""Objective quality metrics and reporting statistics."""

from .psnr import mse, psnr
from .temporal import FlickerReport, flicker_report
from .stats import Summary, summarize

__all__ = [
    "mse",
    "psnr",
    "FlickerReport",
    "flicker_report",
    "Summary",
    "summarize",
]
