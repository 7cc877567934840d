"""Fixed-point functional model of the CAU datapath (paper Sec. 4.2).

The synthesized CAU computes the color adjustment with fixed-point
arithmetic (DesignWare pipelined dividers and square roots), not the
float64 of the reference implementation.  This module answers the
question every RTL implementer asks first: **how many fractional bits
does the datapath need?**

The model runs the encoder's own kernel: :func:`adjust_tiles_fixed_point`
calls the three phases of :func:`repro.core.adjust.adjust_tiles` —
Compute Extrema, Compute Planes, Color Shift — with every value that
crosses a phase boundary rounded to a ``Q2.f`` fixed-point grid.  Those
values are RGB-domain quantities in ``[-2, 2)``: extrema displacements,
the channel's low/high, plane heights, targets, move steps and the
shifted colors.  Tests and the precision-sweep benchmark then measure,
against the float kernel:

* how far the output colors diverge (codes),
* whether the perceptual guarantee survives (Mahalanobis <= 1 + eps),
* what happens to the compressed size.

Finding (``benchmarks/test_ext_fixed_point.py``: 400 tiles of 16 pixels
in ``[0.2, 0.8]``, Blue axis, 25 degrees eccentricity):

=============== ======= ====== ====== ===== =====
fractional bits 8       10     12     16    20
max code error  2       1      1      1     0
max Mahalanobis 290.074 63.753 18.894 1.484 1.002
=============== ======= ====== ====== ===== =====

So 10-12 fractional bits keep outputs within one 8-bit *display code*
of the float kernel, and 20 bits are code-exact.  The strict
Mahalanobis guarantee is much more demanding — the published DKL
matrix is near-singular, so each ellipsoid has an oblique direction
only ~1e-5 wide, and any displacement rounding at coarser resolution
leaves that pancake even when the color change is far below a display
code.  An RTL implementation therefore either carries ~20 fractional
bits through the shift stage (still narrow for DesignWare operators)
or accepts that the guarantee holds at display precision rather than
in exact ellipsoid arithmetic.

The ``Q2.f`` rails saturate only when a channel's reachable high
``z + h`` (pixel value plus half-width) reaches ``2 - 2**-f``.  That
takes semi-axes about eight or more times the parametric law's, along
the Blue axis, whose half-width is the widest.  There the Color Shift
step divides by the saturated ``high - z``, not by the half-width
itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..core.adjust import AxisAdjustment, _adjust_phases, _checked

__all__ = ["FixedPointSpec", "quantize_fixed", "adjust_tiles_fixed_point"]


@dataclass(frozen=True)
class FixedPointSpec:
    """A ``Q2.f`` signed fixed-point format.

    Attributes
    ----------
    frac_bits:
        Fractional bits, an integer; resolution is ``2**-frac_bits``.
    total_range:
        Symmetric representable range, finite; values saturate at the
        rails, as hardware does.
    """

    frac_bits: int = 16
    total_range: float = 2.0

    def __post_init__(self):
        # Written so that NaN fails both checks.
        if not (float(self.frac_bits).is_integer() and 1 <= self.frac_bits <= 52):
            raise ValueError(f"frac_bits must be an integer in [1, 52], got {self.frac_bits}")
        if not 0 < self.total_range < math.inf:
            raise ValueError(
                f"total_range must be positive and finite, got {self.total_range}"
            )

    @property
    def resolution(self) -> float:
        return 2.0 ** -self.frac_bits


def quantize_fixed(values, spec: FixedPointSpec) -> np.ndarray:
    """Round to the fixed-point grid with saturating rails."""
    arr = np.asarray(values, dtype=np.float64)
    step = spec.resolution
    limit = spec.total_range - step
    return np.clip(np.round(arr / step) * step, -spec.total_range, limit)


def adjust_tiles_fixed_point(
    tiles_rgb, semi_axes, axis: int, spec: FixedPointSpec | None = None
) -> AxisAdjustment:
    """Run the Fig. 6 adjustment through a quantized datapath.

    The input colors are rounded to the grid and clipped to the unit
    cube; then :func:`repro.core.adjust.adjust_tiles`' phases run with
    :func:`quantize_fixed` at every phase boundary and the paper's
    ``"mid"`` case-2 plane.  HL, LH and the case flags come from
    comparator trees, which are exact on values already on the grid.

    The ellipsoid *inputs* are taken at full precision: the paper's PE
    receives them from the GPU's RBF evaluation, whose own precision is
    a separate (upstream) concern.
    """
    spec = spec or FixedPointSpec()
    tiles = np.clip(quantize_fixed(tiles_rgb, spec), 0.0, 1.0)
    tiles, semi_axes = _checked(tiles, semi_axes, (axis,), "mid")
    return _adjust_phases(tiles, semi_axes, axis, "mid", partial(quantize_fixed, spec=spec))
