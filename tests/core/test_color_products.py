"""The flat color products equal the stacked ones they replaced, byte for byte.

``repro.color.utils._color_product`` multiplies ``(..., 3)`` colors as
flat ``(rows, 3)`` products over slices of at most ``_PRODUCT_ROWS``
rows, where NumPy ran a stacked ``(tiles, pixels, 3)`` product as one
BLAS call per tile.  ``kernel_reference.py`` keeps the stacked extrema
vectors, Mahalanobis distance and luminance; every array here must match
them in dtype, shape and bytes, over tile sizes from 1 to 256 pixels and
row counts on both sides of the slice bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_reference as oracle
from repro.codecs.context import FrameContext
from repro.codecs.wrappers import PerceptualCodec
from repro.color.utils import _PRODUCT_ROWS, _color_product, relative_luminance
from repro.perception.geometry import _extrema_vectors, mahalanobis
from repro.perception.law import ParametricEllipsoidLaw
from repro.scenes.display import QUEST2_DISPLAY
from repro.scenes.library import render_scene

PIXELS = (1, 2, 3, 4, 9, 16, 64, 256)

#: ``(tiles, pixels)`` stacks whose rows straddle the slice bound.
ROW_SHAPES = {16_383: (5461, 3), 16_384: (1024, 16), 16_385: (3277, 5), 49_153: (3781, 13)}


def _assert_same_array(ours, theirs, name):
    assert isinstance(ours, np.ndarray), name
    assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, name
    assert ours.tobytes() == theirs.tobytes(), name


def _colors(shape, seed):
    """Tiles, nearby points and semi-axes of a typical law's size, some pinned."""
    rng = np.random.default_rng(seed)
    tiles = rng.uniform(0.0, 1.0, (*shape, 3))
    points = np.clip(tiles + rng.normal(0.0, 1e-3, tiles.shape), 0.0, 1.0)
    semi_axes = rng.uniform([2e-4, 1e-5, 1e-5], [1.2e-3, 6e-5, 6e-5], tiles.shape)
    semi_axes[rng.random(shape) < 0.2] = ParametricEllipsoidLaw.MIN_SEMI_AXIS
    return tiles, points, semi_axes


def _assert_products_equal_stacked(tiles, points, semi_axes):
    for axis in range(3):
        _assert_same_array(
            _extrema_vectors(semi_axes, axis),
            oracle._extrema_vectors(tiles, semi_axes, axis)[1],
            f"extrema vectors, axis {axis}",
        )
    _assert_same_array(
        mahalanobis(points, tiles, semi_axes),
        oracle.mahalanobis(points, tiles, semi_axes),
        "mahalanobis",
    )
    _assert_same_array(relative_luminance(tiles), oracle.relative_luminance(tiles), "luminance")


@settings(max_examples=60, deadline=None)
@given(pixels=st.sampled_from(PIXELS), n_tiles=st.integers(1, 200), seed=st.integers(0, 2**16))
def test_stacks_equal_stacked_products(pixels, n_tiles, seed):
    _assert_products_equal_stacked(*_colors((n_tiles, pixels), seed))


@settings(max_examples=12, deadline=None)
@given(rows=st.sampled_from(sorted(ROW_SHAPES)), seed=st.integers(0, 2**16))
def test_row_counts_across_the_slice_bound(rows, seed):
    """As stacks and as plain ``(rows, 3)`` arrays, whose oracle is one product."""
    tiles, points, semi_axes = _colors(ROW_SHAPES[rows], seed)
    _assert_products_equal_stacked(tiles, points, semi_axes)
    _assert_products_equal_stacked(*(a.reshape(rows, 3) for a in (tiles, points, semi_axes)))


@pytest.fixture
def products(monkeypatch):
    """Every ``np.matmul`` call's first operand shape."""
    shapes = []
    matmul = np.matmul

    def recording(a, b, *args, **kwargs):
        shapes.append(np.shape(a))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    return shapes


@pytest.mark.parametrize("rows", [1, 2, 16_384, 16_385, 49_153, 262_144])
def test_slices_hold_at_most_the_bound_and_never_one_row(products, rows):
    colors = np.random.default_rng(rows).uniform(0.0, 1.0, (rows, 3))
    _color_product(colors, np.eye(3))
    sizes = [shape[0] for shape in products]
    assert sum(sizes) == rows
    assert max(sizes) <= _PRODUCT_ROWS
    assert rows == 1 or min(sizes) >= 2


def test_no_product_in_a_512_eye_encode_exceeds_the_bound(products):
    """One eye at 512², tile size 4: 262,144 rows per product.

    The law's luminance, each candidate axis's half-widths and extrema
    vectors, and the audit each take 16 flat slices, and no product
    runs stacked.
    """
    frame = render_scene("fortnite", 512, 512, frame=7)
    ecc = QUEST2_DISPLAY.eccentricity_map(512, 512, fixation=(0.4, 0.6))
    PerceptualCodec().encode(FrameContext(frame, eccentricity=ecc))
    assert all(len(shape) == 2 and shape[0] <= _PRODUCT_ROWS for shape in products)
    assert len(products) == (1 + 2 * 2 + 1) * 512 * 512 // _PRODUCT_ROWS
