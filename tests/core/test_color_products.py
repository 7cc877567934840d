"""The flat color products equal the stacked ones they replaced, byte for byte.

``repro.color.utils._color_product`` multiplies ``(..., 3)`` colors as
flat ``(rows, 3)`` products over slices of at most ``_PRODUCT_ROWS``
rows, where NumPy ran a stacked ``(tiles, pixels, 3)`` product as one
BLAS call per tile; slices of two or more rows take a C-ordered copy of
the matrix.  ``kernel_reference.py`` keeps the stacked extrema vectors,
Mahalanobis distance and luminance; every array here must match them in
dtype, shape and bytes, over tile sizes from 1 to 256 pixels and row
counts from one to both sides of the slice bound.

The same holds for the per-pixel forms around those products: the law's
channel sum and minimum, the perceptual codec's foveal pin and the
audit's channel sum run as per-channel passes, and each must equal the
``kernel_reference.py`` form it replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_reference as oracle
from repro.codecs.context import FrameContext
from repro.codecs.wrappers import PerceptualCodec
from repro.color.dkl import DKL_TO_RGB, RGB_TO_DKL
from repro.color.utils import _PRODUCT_ROWS, _color_product, relative_luminance
from repro.encoding.tiling import tile_scalar_field
from repro.perception.geometry import _extrema_vectors, _squared_mahalanobis, mahalanobis
from repro.perception.law import EllipsoidLawParameters, ParametricEllipsoidLaw
from repro.scenes.display import QUEST2_DISPLAY
from repro.scenes.library import render_scene

PIXELS = (1, 2, 3, 4, 9, 16, 64, 256)

#: ``(tiles, pixels)`` stacks of one to three rows, and stacks whose rows
#: straddle the slice bound.
ROW_SHAPES = {
    1: (1, 1),
    2: (1, 2),
    3: (3, 1),
    16_383: (5461, 3),
    16_384: (1024, 16),
    16_385: (3277, 5),
    49_153: (3781, 13),
}


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
    _assert_same_array(
        _squared_mahalanobis(points, tiles, semi_axes),
        oracle._squared_mahalanobis(points, tiles, semi_axes),
        "squared mahalanobis",
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


@settings(max_examples=40, deadline=None)
@given(rows=st.sampled_from([1, 2, 3, 17, 16_384, 16_385]), seed=st.integers(0, 2**16))
def test_flat_products_against_either_matrix_order(rows, seed):
    """The C-ordered copy changes no byte of a flat product of two or more rows.

    A single row keeps the matrix as given: there the copy would change
    the bytes, so the oracle for it is the product with the same operand.
    """
    colors = np.random.default_rng(seed).normal(0.0, 1e-3, (rows, 3))
    for matrix in (DKL_TO_RGB.T, RGB_TO_DKL.T, DKL_TO_RGB, RGB_TO_DKL):
        _assert_same_array(_color_product(colors, matrix), colors @ matrix, "product")


def _law_inputs(shape, seed, ecc_kind):
    """Colors in and around the unit cube, with dark, black and signed-zero pixels."""
    rng = np.random.default_rng(seed)
    colors = rng.uniform(0.0, 1.0, (*shape, 3))
    kind = rng.integers(0, 6, shape)
    colors[kind == 0] = 0.0
    colors[kind == 1] = -0.0
    colors[kind == 2] *= 1e-13  # channel sums at or below the redness floor
    colors[kind == 3] = rng.uniform(-0.5, 1.5, colors[kind == 3].shape)
    if ecc_kind == "scalar":
        return colors, float(rng.uniform(0.0, 90.0))
    ecc = rng.uniform(0.0, 90.0, shape)
    ecc[rng.random(shape) < 0.1] = np.inf
    return colors, ecc


@settings(max_examples=80, deadline=None)
@given(
    shape=st.sampled_from([(), (1,), (7,), (1, 1), (5, 1), (40, 16), (9, 64)]),
    ecc_kind=st.sampled_from(["scalar", "map"]),
    base_scale=st.sampled_from([1.0e-5, 1.0e-12, 3.0e-3]),
    seed=st.integers(0, 2**16),
)
def test_law_equals_its_summed_form(shape, ecc_kind, base_scale, seed):
    """Per-channel sum and minimum, byte-equal to ``sum(axis=-1)`` and ``np.maximum``.

    A base scale of 1e-12 puts every chromatic axis under the minimum
    semi-axis, 3e-3 none of them.
    """
    colors, ecc = _law_inputs(shape, seed, ecc_kind)
    params = EllipsoidLawParameters(base_scale=base_scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        _assert_same_array(
            ParametricEllipsoidLaw(params)(colors, ecc),
            oracle.law(params, colors, ecc),
            "semi-axes",
        )


class _KeptAxes:
    """A model that hands out the same array every call, as a cache would."""

    def __init__(self, dtype):
        self.dtype = dtype
        self.kept = None

    def semi_axes(self, rgb, eccentricity_deg):
        if self.kept is None:
            law = ParametricEllipsoidLaw()(rgb, eccentricity_deg)
            self.kept = law.astype(self.dtype)
            self.kept.setflags(write=False)
        return self.kept


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("radius", [0.0, 15.0, 30.0, 90.0])
def test_foveal_pin_equals_where(monkeypatch, dtype, radius):
    """The codec's pin copies the model's array and pins it in place.

    Its semi-axes reach ``optimize_tiles`` byte-equal (and of the same
    dtype) to the ``np.where`` pin's, and the model's own array, here
    read-only, is left as it was.
    """
    import repro.codecs.wrappers as wrappers

    received = []
    optimize = wrappers.optimize_tiles

    def recording(tiles, semi_axes, **kwargs):
        received.append(semi_axes)
        return optimize(tiles, semi_axes, **kwargs)

    monkeypatch.setattr(wrappers, "optimize_tiles", recording)
    frame = render_scene("office", 40, 48, frame=2)
    ecc = QUEST2_DISPLAY.eccentricity_map(40, 48, fixation=(0.3, 0.6))
    model = _KeptAxes(dtype)
    ctx = FrameContext(frame, eccentricity=ecc)
    PerceptualCodec(model=model, foveal_radius_deg=radius).encode(ctx)
    tiles, _ = ctx._linear_tiles(4)
    ecc_tiles, _ = tile_scalar_field(ecc, 4)
    expected = oracle.foveal_pin(model.kept, ecc_tiles < radius)
    _assert_same_array(received[0], expected, "pinned semi-axes")
    assert received[0] is not model.kept
    _assert_same_array(model.kept, ParametricEllipsoidLaw()(tiles, ecc_tiles).astype(dtype), "kept")


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
