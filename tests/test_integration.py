"""End-to-end integration tests across subsystems.

These exercise the full paper pipeline exactly as Fig. 7 draws it:
scene -> eccentricity -> discrimination model -> color adjustment ->
sRGB -> Base+Delta bitstream -> decode -> display, plus the quality
audits around it.
"""

import numpy as np
import pytest

from repro import QUEST2_DISPLAY, FrameContext, PerceptualCodec, render_scene
from repro.encoding.bd import BDCodec
from repro.metrics.psnr import psnr
from repro.perception.geometry import mahalanobis
from repro.perception.model import RBFModel, default_model
from repro.scenes.library import get_scene


@pytest.fixture(scope="module")
def pipeline_setup():
    frame = render_scene("office", 96, 96, eye="left")
    ecc = QUEST2_DISPLAY.eccentricity_map(96, 96)
    encoder = PerceptualCodec()
    return frame, ecc, encoder, encoder.encode(FrameContext(frame, eccentricity=ecc))


class TestFullPipeline:
    def test_bd_bitstream_round_trips_adjusted_frame(self, pipeline_setup):
        _, _, _, result = pipeline_setup
        codec = BDCodec(tile_size=4)
        encoded = codec.encode(result.adjusted_srgb)
        assert np.array_equal(codec.decode(encoded), result.adjusted_srgb)

    def test_bitstream_size_matches_accounting(self, pipeline_setup):
        _, _, _, result = pipeline_setup
        encoded = BDCodec(tile_size=4).encode(result.adjusted_srgb)
        assert encoded.breakdown.total_bits == result.breakdown.total_bits

    def test_compression_chain_improves_on_bd(self, pipeline_setup):
        _, _, _, result = pipeline_setup
        assert 0.0 < result.bandwidth_reduction_vs_bd < 0.5
        assert 0.4 < result.bandwidth_reduction_vs_uncompressed < 0.9

    def test_visible_difference_on_desktop_but_within_ellipsoids(self, pipeline_setup):
        """The paper's Fig. 9 point: the adjusted frame differs
        numerically (visible when foveated on a desktop) yet every shift
        is inside its discrimination ellipsoid."""
        frame, ecc, encoder, result = pipeline_setup
        assert not np.array_equal(result.adjusted_srgb, result.original_srgb)
        quality = psnr(result.original_srgb, result.adjusted_srgb)
        assert 30.0 < quality < 60.0  # numerically lossy
        axes = encoder.model.semi_axes(frame, ecc)
        periphery = ecc >= encoder.foveal_radius_deg
        distances = mahalanobis(
            result.adjusted_frame[periphery], frame[periphery], axes[periphery]
        )
        assert distances.max() <= 1.0 + 1e-9

    def test_rbf_model_slots_into_pipeline(self, pipeline_setup):
        frame, ecc, _, parametric_result = pipeline_setup
        rbf_encoder = PerceptualCodec(model=RBFModel(n_train=2000))
        rbf_result = rbf_encoder.encode(FrameContext(frame, eccentricity=ecc))
        # Different model realization, same ballpark of savings.
        assert rbf_result.bandwidth_reduction_vs_bd > 0.0
        ratio = (
            rbf_result.breakdown.total_bits
            / parametric_result.breakdown.total_bits
        )
        assert 0.8 < ratio < 1.25


class TestStereoPipeline:
    def test_both_eyes_compress_similarly(self):
        scene = get_scene("fortnite")
        left, right = scene.render_stereo(64, 64)
        ecc = QUEST2_DISPLAY.eccentricity_map(64, 64)
        encoder = PerceptualCodec()
        left_result = encoder.encode(FrameContext(left, eccentricity=ecc))
        right_result = encoder.encode(FrameContext(right, eccentricity=ecc))
        ratio = left_result.breakdown.total_bits / right_result.breakdown.total_bits
        assert 0.95 < ratio < 1.05


class TestGazeContingency:
    def test_moving_fixation_changes_encoding(self):
        frame = render_scene("skyline", 64, 64)
        encoder = PerceptualCodec()
        center = encoder.encode(FrameContext(
            frame, eccentricity=QUEST2_DISPLAY.eccentricity_map(64, 64, fixation=(0.5, 0.5))
        ))
        corner = encoder.encode(FrameContext(
            frame, eccentricity=QUEST2_DISPLAY.eccentricity_map(64, 64, fixation=(0.05, 0.05))
        ))
        assert not np.array_equal(center.adjusted_srgb, corner.adjusted_srgb)

    def test_peripheral_gaze_compresses_smooth_region_harder(self):
        """Fixating a corner pushes the (smooth, blue) sky deep into the
        periphery where ellipsoids are largest."""
        frame = render_scene("skyline", 64, 64)
        encoder = PerceptualCodec(foveal_radius_deg=5.0)
        near = encoder.encode(FrameContext(frame, eccentricity=12.0))
        far = encoder.encode(FrameContext(frame, eccentricity=45.0))
        assert far.breakdown.total_bits <= near.breakdown.total_bits


class TestDefaultModelSingleton:
    def test_shared_across_encoders(self):
        a = PerceptualCodec()
        b = PerceptualCodec()
        assert a.model is b.model is default_model()
