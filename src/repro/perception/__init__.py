"""Human color-discrimination model (paper Sec. 2.1, Eq. 3-4, 9-13).

Provides the eccentricity-dependent discrimination-ellipsoid function
``Phi(color, eccentricity) -> DKL semi-axes`` (parametric law and the
paper-faithful RBF network), the DKL-ellipsoid -> RGB-quadric geometry,
and per-user calibration.
"""

from .adaptation import DarkAdaptedModel
from .calibration import ObserverProfile, calibrated_model, sample_population
from .geometry import (
    ChannelExtrema,
    channel_extrema,
    channel_halfwidth,
    contains,
    mahalanobis,
    quadric_coefficients,
    quadric_matrix,
)
from .law import EllipsoidLawParameters, ParametricEllipsoidLaw
from .model import (
    DiscriminationModel,
    ParametricModel,
    RBFModel,
    ScaledModel,
    default_model,
)
from .rbf import RBFNetwork

__all__ = [
    "DarkAdaptedModel",
    "ObserverProfile",
    "calibrated_model",
    "sample_population",
    "ChannelExtrema",
    "channel_extrema",
    "channel_halfwidth",
    "contains",
    "mahalanobis",
    "quadric_coefficients",
    "quadric_matrix",
    "EllipsoidLawParameters",
    "ParametricEllipsoidLaw",
    "DiscriminationModel",
    "ParametricModel",
    "RBFModel",
    "ScaledModel",
    "default_model",
    "RBFNetwork",
]
