"""Ellipsoid geometry in linear-RGB space (paper Eq. 9-13).

Discrimination ellipsoids are axis-aligned in DKL space but become
general (rotated) ellipsoids after the linear map to RGB, so they must
be handled as quadric surfaces.  With ``T = RGB_TO_DKL`` (DKL = T @ RGB)
and DKL semi-axes ``(a, b, c)`` around DKL center ``kappa = T @ center``,
the RGB-space surface is

    (p - center)^T Q (p - center) = 1,      Q = T^T diag(1/a^2,..) T.

This module provides, fully vectorized over batches of pixels:

* the center-form matrix ``Q`` and the general quadric coefficients
  ``A..I`` of the paper's Eq. 9 (both the raw polynomial and the paper's
  Eq. 10 normalization with unit constant term);
* per-channel extrema of an ellipsoid — the highest and lowest point
  along R, G or B — via the closed form ``p = center +/- Q^{-1} e_k /
  sqrt(e_k^T Q^{-1} e_k)``, which the tests cross-check against the
  paper's own Eq. 11-13 recipe (cross product of tangent planes, then
  line-ellipsoid intersection in DKL).

Channel indices follow numpy order: 0 = R, 1 = G, 2 = B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..color.dkl import DKL_TO_RGB, RGB_TO_DKL

__all__ = [
    "ChannelExtrema",
    "quadric_matrix",
    "quadric_coefficients",
    "channel_halfwidth",
    "channel_extrema",
    "contains",
    "mahalanobis",
]

_CHANNELS = (0, 1, 2)


def _validate(centers, semi_axes):
    c = np.asarray(centers, dtype=np.float64)
    s = np.asarray(semi_axes, dtype=np.float64)
    if c.shape[-1] != 3 or s.shape[-1] != 3:
        raise ValueError(
            f"centers and semi_axes need trailing axis 3, got {c.shape} and {s.shape}"
        )
    if c.shape != s.shape:
        c, s = np.broadcast_arrays(c, s)
        c = np.ascontiguousarray(c, dtype=np.float64)
        s = np.ascontiguousarray(s, dtype=np.float64)
    _check_semi_axes(s)
    return c, s


def _check_semi_axes(s: np.ndarray) -> None:
    # Written so that NaN fails it: every comparison with NaN is False.
    if s.size and not (s.min() > 0.0 and s.max() < np.inf):
        raise ValueError("semi-axes must be finite and strictly positive")


@dataclass(frozen=True)
class ChannelExtrema:
    """Extrema of ellipsoids along one RGB channel.

    Attributes
    ----------
    low, high:
        The lowest / highest surface points, shape ``(..., 3)``.  Both
        are full RGB points; ``high[..., axis] - low[..., axis]`` is
        twice the channel half-width.
    displacement:
        ``high - center`` — the "extrema vector" of the paper's Fig. 6
        along which colors are moved.  ``low = center - displacement``
        by central symmetry.
    axis:
        The channel that was extremized (0=R, 1=G, 2=B).
    """

    low: np.ndarray
    high: np.ndarray
    displacement: np.ndarray
    axis: int


def quadric_matrix(semi_axes) -> np.ndarray:
    """Center-form quadric matrix ``Q`` in RGB space, batched.

    ``Q`` depends only on the semi-axes (the center merely translates
    the surface).  Returns shape ``(..., 3, 3)``.
    """
    s = np.asarray(semi_axes, dtype=np.float64)
    if s.shape[-1] != 3:
        raise ValueError(f"semi_axes needs trailing axis 3, got {s.shape}")
    _check_semi_axes(s)
    inv_sq = 1.0 / np.square(s)
    # Q = T^T diag(inv_sq) T, batched over leading dims.
    scaled = inv_sq[..., :, None] * RGB_TO_DKL
    return np.swapaxes(np.broadcast_to(RGB_TO_DKL, scaled.shape), -1, -2) @ scaled


def quadric_coefficients(centers, semi_axes) -> dict[str, np.ndarray]:
    """Raw polynomial coefficients of the RGB-space quadric.

    Expanding ``(p - c)^T Q (p - c) = 1`` gives

        A x^2 + B y^2 + C z^2 + G xy + H yz + I zx
        + D x + E y + F z + c0 = 0,

    with ``c0 = c^T Q c - 1``.  Keys mirror the paper's Eq. 9 letters
    plus ``"c0"``; each value has the batch's leading shape.  Unlike the
    paper's normalized form this representation is valid even when the
    ellipsoid contains the RGB origin.
    """
    c, s = _validate(centers, semi_axes)
    q = quadric_matrix(s)
    linear = -2.0 * np.einsum("...ij,...j->...i", q, c)
    c0 = np.einsum("...i,...ij,...j->...", c, q, c) - 1.0
    return {
        "A": q[..., 0, 0],
        "B": q[..., 1, 1],
        "C": q[..., 2, 2],
        "G": 2.0 * q[..., 0, 1],
        "H": 2.0 * q[..., 1, 2],
        "I": 2.0 * q[..., 0, 2],
        "D": linear[..., 0],
        "E": linear[..., 1],
        "F": linear[..., 2],
        "c0": c0,
    }


def _paper_normalized_coefficients(centers, semi_axes) -> dict[str, np.ndarray]:
    """Eq. 10 form of the quadric: coefficients scaled to a ``+1`` constant.

    The paper divides the polynomial by ``-t`` with ``t = 1 - kappa^T S
    kappa`` so the constant term is exactly 1.  That normalization is
    undefined when the ellipsoid surface passes through the RGB origin
    (``c0 == 0``); practical discrimination ellipsoids are tiny and far
    from the origin so ``c0 > 0`` always holds, but we raise explicitly
    rather than divide by ~0.
    """
    coeffs = quadric_coefficients(centers, semi_axes)
    c0 = coeffs.pop("c0")
    if np.any(np.abs(c0) < 1e-12):
        raise ValueError(
            "quadric constant term vanishes; the paper's Eq. 10 normalization "
            "is undefined for ellipsoids through the RGB origin"
        )
    return {key: value / c0 for key, value in coeffs.items()}


def channel_halfwidth(semi_axes, axis: int) -> np.ndarray:
    """Half-width of the ellipsoid along one RGB channel.

    Closed form: ``h_k = sqrt(sum_i s_i^2 * B[k, i]^2)`` with
    ``B = DKL_TO_RGB``, since ``e_k^T Q^{-1} e_k = (B^T e_k)^T
    diag(s^2) (B^T e_k)``.
    """
    if axis not in _CHANNELS:
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
    s = np.asarray(semi_axes, dtype=np.float64)
    if s.shape[-1] != 3:
        raise ValueError(f"semi_axes needs trailing axis 3, got {s.shape}")
    _check_semi_axes(s)
    row = DKL_TO_RGB[axis]
    return np.sqrt(np.square(s) @ np.square(row))


def _extrema_vectors(centers, semi_axes, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Validated centers and the extrema vector of each ellipsoid along ``axis``.

    The extrema vector runs from the center to the highest point along
    the channel (the lowest is its mirror image).  The color adjustment
    needs it in full but only the ``axis`` component of the extrema, so
    it builds on this rather than on :func:`channel_extrema`.
    """
    if axis not in _CHANNELS:
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
    c, s = _validate(centers, semi_axes)
    row = DKL_TO_RGB[axis]
    weighted = np.square(s)
    weighted *= row  # diag(s^2) B^T e_k, batched
    halfwidth = np.sqrt(weighted @ row)
    displacement = weighted @ DKL_TO_RGB.T  # B @ weighted per pixel
    displacement /= halfwidth[..., None]
    return c, displacement


def channel_extrema(centers, semi_axes, axis: int) -> ChannelExtrema:
    """Highest and lowest ellipsoid points along an RGB channel.

    Uses the Lagrange closed form ``displacement = Q^{-1} e_k /
    sqrt(e_k^T Q^{-1} e_k)``; with ``Q^{-1} = B diag(s^2) B^T`` this
    costs one scaled matmul per batch — no per-pixel solves.  The
    displacement's own ``axis`` component equals the channel half-width
    exactly, a property the unit tests rely on.
    """
    c, displacement = _extrema_vectors(centers, semi_axes, axis)
    return ChannelExtrema(
        low=c - displacement, high=c + displacement, displacement=displacement, axis=axis
    )


def mahalanobis(points, centers, semi_axes) -> np.ndarray:
    """Ellipsoid-normalized distance of RGB points from ellipsoid centers.

    Values ``<= 1`` mean the point is perceptually indistinguishable
    from the center under the model.  This is the quantity the encoder
    guarantees to keep at most 1 and the simulated observers threshold.
    """
    p = np.asarray(points, dtype=np.float64)
    c, s = _validate(centers, semi_axes)
    delta_dkl = (p - c) @ RGB_TO_DKL.T
    return np.sqrt(np.sum(np.square(delta_dkl / s), axis=-1))


def contains(points, centers, semi_axes, tolerance: float = 1e-9) -> np.ndarray:
    """Boolean mask: is each point inside (or on) its ellipsoid?"""
    return mahalanobis(points, centers, semi_axes) <= 1.0 + tolerance
