"""Parametric eccentricity-dependent color-discrimination law.

The paper consumes a psychophysically fitted function ``Phi(kappa, e) ->
(a, b, c)`` mapping a color and a retinal eccentricity to the semi-axis
lengths of its discrimination ellipsoid in DKL space (its Eq. 3).  The
fitted weights from Duinkharjav et al. 2022 are not published, so this
module provides a *parametric law* calibrated to the qualitative facts
the paper states and shows:

* semi-axes grow monotonically with eccentricity (Fig. 2: ellipsoids at
  25 deg are larger than at 5 deg);
* the green axis of the *RGB-space image* of the ellipsoid is the
  shortest ("human visual perception is most sensitive to green") and
  most ellipsoids are elongated along Red or Blue (Sec. 3.2);
* thresholds scale with luminance (Weber-like behaviour; the paper's
  user study notes dark scenes behave worst for the model).

The law is expressed directly as DKL semi-axes.  Because the published
RGB->DKL matrix is nearly singular, its two chromatic columns map to
almost the same RGB direction; the resulting RGB-space ellipsoids are
intrinsically blue-elongated (half-width ratio B:G around 7:1 for equal
chromatic semi-axes), which is exactly the anisotropy the paper
exploits.  A color-dependent boost of the first DKL axis adds red
elongation for reddish colors so that the encoder's R-vs-B axis choice
is exercised.

The RBF network in :mod:`repro.perception.rbf` is fitted to *this* law,
mirroring the paper's pipeline in which an RBF network approximates the
psychophysical data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..color.utils import ensure_color_array, relative_luminance

__all__ = ["EllipsoidLawParameters", "ParametricEllipsoidLaw"]


@dataclass(frozen=True)
class EllipsoidLawParameters:
    """Tunable constants of the parametric discrimination law.

    Attributes
    ----------
    base_scale:
        Chromatic DKL semi-axis at zero eccentricity, mid luminance.
        Sized so the foveal green half-width is below one 8-bit code
        (perceptually safe), growing to several codes in the periphery.
    eccentricity_gain:
        Linear growth rate of thresholds per degree of eccentricity.
        0.045/deg roughly doubles thresholds between 0 and 22 deg,
        consistent with the Fig. 2 size difference between 5 and 25 deg.
    luminance_floor, luminance_gain:
        Thresholds scale with ``floor + gain * luminance`` (clipped to
        ``[floor, floor + gain]``), a Weber-like brightness dependence.
    red_axis_base, red_axis_gain:
        The first DKL semi-axis is ``(red_axis_base + red_axis_gain *
        redness) * chromatic_scale``; larger for reddish colors, which
        produces red-elongated RGB ellipsoids for them.
    max_eccentricity:
        Eccentricities are clamped here; beyond the display FoV the law
        has no psychophysical support.
    """

    base_scale: float = 1.0e-5
    eccentricity_gain: float = 0.045
    luminance_floor: float = 0.40
    luminance_gain: float = 1.20
    red_axis_base: float = 14.0
    red_axis_gain: float = 16.0
    max_eccentricity: float = 60.0


class ParametricEllipsoidLaw:
    """Closed-form implementation of ``Phi(kappa, e) -> (a, b, c)``.

    Instances are callable on batches: given ``(..., 3)`` linear-RGB
    colors and broadcast-compatible eccentricities in degrees, they
    return ``(..., 3)`` DKL semi-axes.  Semi-axes are strictly positive
    for strictly positive eccentricity scale; a zero floor is never
    returned (degenerate ellipsoids break the quadric algebra), instead
    a tiny epsilon keeps the geometry well conditioned.
    """

    #: Smallest semi-axis ever returned; keeps quadrics non-degenerate.
    MIN_SEMI_AXIS = 1e-9

    def __init__(self, params: EllipsoidLawParameters | None = None):
        self.params = params or EllipsoidLawParameters()

    def __call__(self, rgb, eccentricity_deg) -> np.ndarray:
        """Evaluate the law.

        Parameters
        ----------
        rgb:
            Linear-RGB colors, shape ``(..., 3)``; NaN and infinite
            channels are rejected.
        eccentricity_deg:
            Eccentricity in degrees, broadcastable against the leading
            shape of ``rgb``.  Negative and NaN values are rejected.

        Returns
        -------
        numpy.ndarray
            DKL semi-axes ``(a, b, c)`` with the same leading shape.
        """
        colors = ensure_color_array(rgb, "rgb")
        ecc = np.asarray(eccentricity_deg, dtype=np.float64)
        # Written so that NaN fails it: every comparison with NaN is False.
        if ecc.size and not ecc.min() >= 0:
            raise ValueError("eccentricity must be non-negative degrees, not NaN")
        # The channel sum in ``sum(axis=-1)``'s order.  A NaN or infinite
        # channel makes it NaN or infinite, which fails the check.
        total = (colors[..., 0] + colors[..., 1]) + colors[..., 2]
        if total.size and not (total.min() > -np.inf and total.max() < np.inf):
            raise ValueError("rgb colors must be finite")
        p = self.params
        ecc = np.clip(ecc, 0.0, p.max_eccentricity)

        lum = relative_luminance(colors)
        lum_factor = np.clip(
            p.luminance_floor + p.luminance_gain * lum,
            p.luminance_floor,
            p.luminance_floor + p.luminance_gain,
        )
        chromatic = p.base_scale * (1.0 + p.eccentricity_gain * ecc) * lum_factor

        redness = np.divide(
            colors[..., 0],
            total,
            out=np.full(total.shape, 1.0 / 3.0),
            where=total > 1e-12,
        )
        red_ratio = p.red_axis_base + p.red_axis_gain * redness

        axes = np.empty(colors.shape, dtype=np.float64)
        axes[..., 0] = np.maximum(red_ratio * chromatic, self.MIN_SEMI_AXIS)
        axes[..., 1] = axes[..., 2] = np.maximum(chromatic, self.MIN_SEMI_AXIS)
        return axes

    def training_samples(
        self, count: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw ``count`` random (color, eccentricity, semi-axes) samples.

        Used to fit the RBF approximation.  Colors are uniform in the
        unit RGB cube; eccentricities uniform in the supported range.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        colors = rng.uniform(0.0, 1.0, size=(count, 3))
        ecc = rng.uniform(0.0, self.params.max_eccentricity, size=count)
        return colors, ecc, self(colors, ecc)
