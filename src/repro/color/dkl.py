"""RGB <-> DKL color-space transform (paper Eq. 2).

Psychophysical color-discrimination data is expressed in the DKL
(Derrington-Krauskopf-Lennie) opponent color space, which is a *linear*
transform away from linear RGB.  The paper publishes the constant matrix

    M_RGB2DKL = [[ 0.14,  0.17,  0.00],
                 [-0.21, -0.71, -0.07],
                 [ 0.21,  0.72,  0.07]]

(the same coefficients as Duinkharjav et al. 2022).  The paper's Eq. 2
prints ``RGB = M @ DKL`` but every downstream use (Eq. 10 builds the
quadric from ``T`` directly; Eq. 13a converts an RGB-space vector to DKL
by left-multiplying with ``M_RGB2DKL``; Eq. 13c converts back with the
inverse) requires the direction implied by the *name*:

    DKL = M_RGB2DKL @ RGB            RGB = M_RGB2DKL^{-1} @ DKL

We adopt that convention throughout and note the Eq. 2 typo here once.

The matrix is nearly singular (determinant ~= 9.8e-5) because the G and
B rows are almost parallel — a property of the underlying cone
fundamentals — so its inverse has large entries.  The inverse is
precomputed once, so every conversion back to RGB multiplies by the
same matrix and stays bit-reproducible.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RGB_TO_DKL", "DKL_TO_RGB"]

#: Constant linear map from linear RGB to DKL (paper Sec. 2.1).
RGB_TO_DKL = np.array(
    [
        [0.14, 0.17, 0.00],
        [-0.21, -0.71, -0.07],
        [0.21, 0.72, 0.07],
    ],
    dtype=np.float64,
)

#: Precomputed inverse map from DKL back to linear RGB.
DKL_TO_RGB = np.linalg.inv(RGB_TO_DKL)
