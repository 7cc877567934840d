"""The perceptual codec equals the standalone encoder it replaced.

``pipeline_reference.PerceptualEncoder`` is the frame pipeline as it
stood before :class:`~repro.codecs.wrappers.PerceptualCodec` owned it.
The codec takes the unadjusted sRGB frame and tiles from its context and
audits against the semi-axes it already computed; every ``FrameResult``
field must still equal the oracle's.

The one exception is the audit value ``max_mahalanobis``.  The oracle
evaluates the model a second time, on the moved pixels as one
``(n, 3)`` array; the codec takes the distance over the whole
``(tiles, pixels, 3)`` stack with the semi-axes the optimizer used and
maximizes it under the moved mask.  NumPy's matmul may round those two
shapes differently (the parametric law's luminance at tile size 1, the
RBF network everywhere), so the audit must agree to 1e-12 relative, not
bit for bit.

The oracle's optimizer and Base+Delta accounting are the pre-rewrite
kernels of ``kernel_reference.py``, so this also holds the rewritten
kernels to the old ones over whole frames.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from pipeline_reference import PerceptualEncoder

import kernel_reference
from repro import FrameContext, FrameResult, PerceptualCodec, render_scene
from repro.core.adjust import CASE2_PLACEMENTS
from repro.encoding.tiling import tile_frame, tile_scalar_field
from repro.perception.law import ParametricEllipsoidLaw
from repro.perception.model import ParametricModel, RBFModel, ScaledModel
from repro.scenes.display import QUEST2_DISPLAY

AXES = ((2, 0), (0, 2), (1,), (0, 1, 2))

MODELS = {
    "parametric": ParametricModel(),
    "scaled-0.5": ScaledModel(ParametricModel(), 0.5),
    "scaled-3": ScaledModel(ParametricModel(), 3.0),
}


def _frame(kind: str, height: int, width: int, seed: int) -> np.ndarray:
    if kind == "noise":
        return np.random.default_rng(seed).uniform(0.0, 1.0, (height, width, 3))
    return render_scene(kind, height, width, frame=seed % 3)


def _eccentricity(kind: str, height: int, width: int, fixation, scalar: float):
    if kind == "scalar":
        return scalar
    return QUEST2_DISPLAY.eccentricity_map(height, width, fixation=fixation)


def _radius(kind: str, ecc, inside: float) -> float:
    lo, hi = float(np.min(ecc)), float(np.max(ecc))
    if kind == "zero":
        return 0.0
    if kind == "inside":
        return lo + inside * (hi - lo)
    return hi + 1.0


def _assert_equal(ours: FrameResult, oracle: FrameResult):
    """Every field equal: arrays byte for byte, the rest with ``==``.

    ``max_mahalanobis`` only to rounding (see the module docstring).
    """
    for field in fields(FrameResult):
        a, b = getattr(ours, field.name), getattr(oracle, field.name)
        if field.name == "max_mahalanobis":
            assert a == pytest.approx(b, rel=1e-12, abs=0.0), (field.name, a, b)
        elif isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), field.name
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, (field.name, a, b)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    height=st.integers(8, 40),
    width=st.integers(8, 40),
    content=st.sampled_from(["noise", "office", "fortnite", "monkey"]),
    seed=st.integers(0, 2**16),
    tile_size=st.integers(1, 8),
    radius_kind=st.sampled_from(["zero", "inside", "beyond"]),
    inside=st.floats(0.05, 0.95),
    axes=st.sampled_from(AXES),
    placement=st.sampled_from(CASE2_PLACEMENTS),
    ecc_kind=st.sampled_from(["map", "scalar"]),
    fixation=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    scalar=st.floats(0.0, 60.0),
    model_name=st.sampled_from(sorted(MODELS)),
)
def test_codec_equals_oracle(
    height, width, content, seed, tile_size, radius_kind, inside, axes, placement,
    ecc_kind, fixation, scalar, model_name,
):
    frame = _frame(content, height, width, seed)
    ecc = _eccentricity(ecc_kind, height, width, fixation, scalar)
    params = dict(
        model=MODELS[model_name],
        tile_size=tile_size,
        foveal_radius_deg=_radius(radius_kind, ecc, inside),
        axes=axes,
        case2_placement=placement,
    )
    oracle = PerceptualEncoder(**params).encode_frame(frame, ecc)
    ours = PerceptualCodec(**params).encode(FrameContext(frame, eccentricity=ecc))
    _assert_equal(ours, oracle)


@pytest.mark.parametrize("tile_size,radius", [(4, 10.0), (3, 0.0), (8, 25.0)])
def test_rbf_codec_equals_oracle_but_for_audit_rounding(tile_size, radius):
    """The RBF network rounds differently over the moved subset in BLAS."""
    model = RBFModel(n_train=500)
    frame = render_scene("office", 37, 45, frame=1)
    ecc = QUEST2_DISPLAY.eccentricity_map(37, 45, fixation=(0.3, 0.6))
    params = dict(model=model, tile_size=tile_size, foveal_radius_deg=radius)
    oracle = PerceptualEncoder(**params).encode_frame(frame, ecc)
    ours = PerceptualCodec(**params).encode(FrameContext(frame, eccentricity=ecc))
    _assert_equal(ours, oracle)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    tiles_down=st.integers(2, 10),
    tiles_across=st.integers(2, 10),
    content=st.sampled_from(["noise", "office", "fortnite", "monkey"]),
    seed=st.integers(0, 2**16),
    tile_size=st.integers(1, 8),
    fixation=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    radius=st.sampled_from([0.0, 10.0, 25.0]),
)
def test_audit_is_the_stacked_masked_maximum_bit_for_bit(
    tiles_down, tiles_across, content, seed, tile_size, fixation, radius
):
    """The audit zeroes foveal squares and takes one root of their maximum.

    It must equal, bit for bit, the distance the codec used to take: the
    stacked ``mahalanobis`` of every pixel, maximized under the moved
    mask.  Whole tiles only, so the adjusted frame tiles back exactly,
    and at least 8 pixels a side, as scenes render.
    """
    height, width = ((n + 8 // tile_size) * tile_size for n in (tiles_down, tiles_across))
    frame = _frame(content, height, width, seed)
    ecc = QUEST2_DISPLAY.eccentricity_map(height, width, fixation=fixation)
    codec = PerceptualCodec(tile_size=tile_size, foveal_radius_deg=radius)
    result = codec.encode(FrameContext(frame, eccentricity=ecc))

    tiles, _ = tile_frame(frame, tile_size)
    ecc_tiles, _ = tile_scalar_field(ecc, tile_size)
    foveal = ecc_tiles < radius
    semi_axes = np.where(
        foveal[..., None],
        ParametricEllipsoidLaw.MIN_SEMI_AXIS,
        codec.model.semi_axes(tiles, ecc_tiles),
    )
    adjusted, _ = tile_frame(result.adjusted_frame, tile_size)
    distances = kernel_reference.mahalanobis(adjusted, tiles, semi_axes)
    expected = float(distances.max(where=~foveal, initial=0.0))
    assert result.max_mahalanobis.hex() == expected.hex()
