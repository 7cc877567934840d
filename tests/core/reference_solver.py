"""Iterative reference solver for the unrelaxed problem (paper Eq. 7).

The paper's exact formulation — minimize the summed ``log2`` delta
widths over all three channels in the *sRGB* domain, subject to every
pixel staying inside its discrimination ellipsoid — is non-convex and
needs an iterative solver ("popular solvers in Matlab spend hours",
Sec. 3.2).  This module implements a small-scale version of that solver
so the analytical solution can be validated against it:

* pixels are parameterized as ``p_i = c_i + d_i`` with the ellipsoid
  constraint expressed as a smooth inequality on the DKL-normalized
  displacement, handled by SLSQP;
* the objective uses the continuous sRGB transfer (no floor) and a
  softmax/softmin smoothing so gradients exist, annealed toward the
  true max/min.

It is *not* part of the real-time path: it is the test oracle the
analytical solution is checked against, on single tiles, and it lives
with the tests because it needs scipy, which the package does not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import logsumexp

from repro.color.dkl import RGB_TO_DKL
from repro.color.srgb import linear_to_srgb

__all__ = ["ReferenceSolution", "solve_tile_reference", "true_objective_bits"]


def true_objective_bits(tile_rgb: np.ndarray) -> float:
    """The unrelaxed objective of Eq. 7a for one tile, in bits.

    ``sum_C log2(max(f(p_C)) - min(f(p_C)) + 1)`` with values expressed
    on the 0..255 sRGB code scale (continuous, no floor/quantization).
    """
    codes = linear_to_srgb(tile_rgb) * 255.0
    spans = codes.max(axis=0) - codes.min(axis=0)
    return float(np.sum(np.log2(spans + 1.0)))


def _smooth_objective(flat_deltas, tile, smoothing):
    deltas = flat_deltas.reshape(tile.shape)
    codes = linear_to_srgb(np.clip(tile + deltas, 0.0, 1.0)) * 255.0
    total = 0.0
    for channel in range(3):
        values = codes[:, channel]
        # Stable log-sum-exp keeps the softmax finite for code-scale
        # values (up to 255 / smoothing in the exponent).
        soft_max = smoothing * logsumexp(values / smoothing)
        soft_min = -smoothing * logsumexp(-values / smoothing)
        total += np.log2(max(soft_max - soft_min, 0.0) + 1.0)
    return total


@dataclass(frozen=True)
class ReferenceSolution:
    """Output of the iterative solver on one tile."""

    adjusted: np.ndarray
    objective_bits: float
    initial_bits: float
    converged: bool


def solve_tile_reference(
    tile_rgb,
    semi_axes,
    maxiter: int = 200,
    smoothing_schedule: tuple[float, ...] = (4.0, 1.0, 0.25),
) -> ReferenceSolution:
    """Iteratively minimize Eq. 7 for a single tile.

    Parameters
    ----------
    tile_rgb:
        ``(pixels, 3)`` linear-RGB tile.
    semi_axes:
        ``(pixels, 3)`` DKL semi-axes of each pixel's ellipsoid.
    maxiter:
        SLSQP iteration budget per smoothing stage.
    smoothing_schedule:
        Decreasing softmax temperatures; each stage warm-starts the
        next, annealing toward the true max/min objective.
    """
    tile = np.asarray(tile_rgb, dtype=np.float64)
    axes = np.asarray(semi_axes, dtype=np.float64)
    if tile.ndim != 2 or tile.shape[1] != 3:
        raise ValueError(f"tile_rgb must be (pixels, 3), got {tile.shape}")
    if axes.shape != tile.shape:
        raise ValueError(f"semi_axes {axes.shape} must match tile {tile.shape}")

    def constraint_values(flat_deltas):
        deltas = flat_deltas.reshape(tile.shape)
        dkl = deltas @ RGB_TO_DKL.T
        # >= 0 when inside the ellipsoid.
        return 1.0 - np.sum(np.square(dkl / axes), axis=1)

    constraints = [{"type": "ineq", "fun": constraint_values}]
    current = np.zeros(tile.size)
    converged = True
    for smoothing in smoothing_schedule:
        result = minimize(
            _smooth_objective,
            current,
            args=(tile, smoothing),
            method="SLSQP",
            constraints=constraints,
            options={"maxiter": maxiter, "ftol": 1e-10},
        )
        current = result.x
        converged = converged and bool(result.success)

    deltas = current.reshape(tile.shape)
    # Project any small constraint violation back onto the ellipsoids.
    dkl = deltas @ RGB_TO_DKL.T
    norms = np.sqrt(np.sum(np.square(dkl / axes), axis=1))
    scale = np.where(norms > 1.0, 1.0 / norms, 1.0)
    adjusted = np.clip(tile + deltas * scale[:, None], 0.0, 1.0)

    return ReferenceSolution(
        adjusted=adjusted,
        objective_bits=true_objective_bits(adjusted),
        initial_bits=true_objective_bits(tile),
        converged=converged,
    )
