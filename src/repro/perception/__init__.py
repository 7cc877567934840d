"""Human color-discrimination model (paper Sec. 2.1, Eq. 3-4, 9-13).

Provides the eccentricity-dependent discrimination-ellipsoid function
``Phi(color, eccentricity) -> DKL semi-axes`` (parametric law and the
paper-faithful RBF network), the DKL-ellipsoid -> RGB-quadric geometry,
and per-user calibration.
"""
