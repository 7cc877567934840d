"""The paper's own ellipsoid-extrema recipe (Eq. 11-13), a test oracle.

:func:`repro.perception.geometry.channel_extrema` uses a Lagrange closed
form; this module keeps the paper's construction — cross product of
tangent planes, then line-ellipsoid intersection in DKL — as an
independent cross-check the geometry tests compare against, with the
quadric matrix of Eq. 9-10 it starts from.
"""

from __future__ import annotations

import numpy as np

from repro.color.dkl import DKL_TO_RGB, RGB_TO_DKL
from repro.perception.geometry import ChannelExtrema


def quadric_matrix(semi_axes) -> np.ndarray:
    """Center-form quadric matrix ``Q`` in RGB space, batched.

    ``Q = T^T diag(1/s^2) T`` with ``T = RGB_TO_DKL``; it depends only
    on the semi-axes (the center merely translates the surface).
    Returns shape ``(..., 3, 3)``.
    """
    s = np.asarray(semi_axes, dtype=np.float64)
    if s.shape[-1] != 3:
        raise ValueError(f"semi_axes needs trailing axis 3, got {s.shape}")
    # Written so that NaN fails it: every comparison with NaN is False.
    if s.size and not (s.min() > 0.0 and s.max() < np.inf):
        raise ValueError("semi-axes must be finite and strictly positive")
    scaled = (1.0 / np.square(s))[..., :, None] * RGB_TO_DKL
    return np.swapaxes(np.broadcast_to(RGB_TO_DKL, scaled.shape), -1, -2) @ scaled


def channel_extrema_paper(centers, semi_axes, axis: int) -> ChannelExtrema:
    """The paper's Eq. 11-13 extrema recipe.

    Steps: build the quadric (Eq. 9-10 without normalization — the
    direction is scale invariant), intersect the two tangent-condition
    planes to get the extrema direction ``v`` (Eq. 12 generalized to any
    channel), convert ``v`` to DKL, scale it onto the ellipsoid (Eq.
    13b) and map the two surface points back to RGB (Eq. 13c).
    """
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
    c = np.asarray(centers, dtype=np.float64)
    s = np.asarray(semi_axes, dtype=np.float64)
    q = quadric_matrix(s)
    others = [j for j in (0, 1, 2) if j != axis]
    # Tangent-condition planes: rows `others` of 2M p + L = 0; their
    # normals are rows of 2Q.  The constant offsets do not affect the
    # direction of the intersection line.
    n1 = 2.0 * q[..., others[0], :]
    n2 = 2.0 * q[..., others[1], :]
    v = np.cross(n1, n2)
    # Eq. 13a: express the direction in DKL.
    x = v @ RGB_TO_DKL.T
    # Eq. 13b: scale so kappa +/- x*t lies on the axis-aligned ellipsoid.
    t = 1.0 / np.sqrt(np.sum(np.square(x / s), axis=-1))
    kappa = c @ RGB_TO_DKL.T
    step = x * t[..., None]
    high = (kappa + step) @ DKL_TO_RGB.T
    low = (kappa - step) @ DKL_TO_RGB.T
    # Orient so `high` really is the channel maximum (the cross product's
    # sign is arbitrary).
    flip = high[..., axis] < low[..., axis]
    high_fixed = np.where(flip[..., None], low, high)
    low_fixed = np.where(flip[..., None], high, low)
    return ChannelExtrema(
        low=low_fixed, high=high_fixed, displacement=high_fixed - c, axis=axis
    )
