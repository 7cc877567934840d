"""Image file writers: real PNG files and binary PPM, dependency-free."""

from .png_file import write_png
from .ppm import write_ppm

__all__ = ["write_png", "write_ppm"]
