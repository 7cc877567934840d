"""The fixed-point CAU model equals its old fork wherever the rails stay clear.

``adjust_tiles_fixed_point`` runs ``adjust_tiles``' own phases with
``quantize_fixed`` at their boundaries; ``datapath_reference.py`` keeps
the stage-by-stage fork it replaced.  The two take the same rounding
steps, so every ``AxisAdjustment`` field must match in dtype, shape and
bytes.  They part only where a Compute-Extrema value saturates at a
``Q2.f`` rail: the fork's Color Shift then divides by the unsaturated
half-width, the kernel by ``high - z`` after ``high`` has saturated.
"""

from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import datapath_reference as oracle
from repro.core.adjust import AxisAdjustment
from repro.hardware.datapath import FixedPointSpec, adjust_tiles_fixed_point, quantize_fixed
from repro.perception.geometry import channel_extrema
from repro.perception.model import ParametricModel

MODEL = ParametricModel()


def _tiles(content: str, n_tiles: int, pixels: int, rng) -> np.ndarray:
    shape = (n_tiles, pixels, 3)
    if content == "uniform":
        return rng.uniform(0.0, 1.0, shape)
    if content == "narrow":
        base = rng.uniform(0.05, 0.95, (n_tiles, 1, 3))
        return np.clip(base + rng.normal(0.0, 2e-3, shape), 0.0, 1.0)
    # Edge of gamut: every channel within 3% of a face of the unit cube.
    near = rng.uniform(0.0, 0.03, shape)
    return np.where(rng.random(shape) < 0.5, near, 1.0 - near)


def _reaches_rails(tiles, semi_axes, axis: int, spec: FixedPointSpec) -> bool:
    """Does a quantized Compute-Extrema value sit on a ``Q2.f`` rail?"""
    quantized = np.clip(quantize_fixed(tiles, spec), 0.0, 1.0)
    displacement = quantize_fixed(
        channel_extrema(quantized, semi_axes, axis).displacement, spec
    )
    z = quantized[..., axis]
    low = quantize_fixed(z - displacement[..., axis], spec)
    high = quantize_fixed(z + displacement[..., axis], spec)
    rails = [-spec.total_range, spec.total_range - spec.resolution]
    return any(np.isin(v, rails).any() for v in (displacement, low, high))


def _assert_same_adjustment(ours: AxisAdjustment, theirs: AxisAdjustment):
    for field in fields(AxisAdjustment):
        a, b = getattr(ours, field.name), getattr(theirs, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


@settings(max_examples=300, deadline=None)
@given(
    frac_bits=st.integers(1, 52),
    axis=st.integers(0, 2),
    scale=st.floats(0.1, 30.0),
    eccentricity=st.floats(0.0, 60.0),
    content=st.sampled_from(["uniform", "narrow", "edge"]),
    n_tiles=st.integers(1, 6),
    pixels=st.integers(1, 64),
    seed=st.integers(0, 2**16),
)
def test_fixed_point_model_matches_the_fork(
    frac_bits, axis, scale, eccentricity, content, n_tiles, pixels, seed
):
    rng = np.random.default_rng(seed)
    tiles = _tiles(content, n_tiles, pixels, rng)
    semi_axes = scale * MODEL.semi_axes(tiles, np.full((n_tiles, pixels), eccentricity))
    spec = FixedPointSpec(frac_bits=frac_bits)

    ours = adjust_tiles_fixed_point(tiles, semi_axes, axis, spec)
    theirs = oracle.adjust_tiles_fixed_point(tiles, semi_axes, axis, spec)
    if not _reaches_rails(tiles, semi_axes, axis, spec):
        _assert_same_adjustment(ours, theirs)
    else:
        # At the rails the two divide by different half-widths; both
        # still classify the tiles alike and stay in the unit cube.
        assert np.array_equal(ours.case2, theirs.case2)
        assert 0.0 <= ours.adjusted.min() and ours.adjusted.max() <= 1.0
