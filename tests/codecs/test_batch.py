"""Tests for batch encoding and its shared-context amortization."""

import multiprocessing
import os

import numpy as np
import pytest

from repro import FrameResult
from repro.codecs.batch import encode_batch
from repro.codecs.context import FrameContext
from repro.codecs.registry import get_codec
from repro.scenes.library import render_scene


@pytest.fixture(scope="module")
def frames():
    return [render_scene("office", 32, 32, frame=i) for i in range(8)]


class TestAmortization:
    def test_eight_frames_quantize_and_tile_once_each(self, frames):
        """The acceptance criterion: sweeping several codecs over 8
        frames derives each frame's shared context at most once."""
        ctxs = [FrameContext(frame) for frame in frames]
        results = encode_batch(
            ctxs=ctxs, codecs=("nocom", "bd", "png", "variable-bd", "temporal-bd")
        )
        assert all(len(per_frame) == 8 for per_frame in results.values())
        for ctx in ctxs:
            assert ctx.stats["quantize"] <= 1
            # bd, variable-bd and temporal-bd all share one 4x4 pass.
            assert ctx.stats["tile"] <= 1
            assert ctx.stats["eccentricity"] == 0  # nobody needed gaze

    def test_contexts_reusable_across_calls(self, frames):
        ctxs = [FrameContext(frame) for frame in frames[:2]]
        encode_batch(ctxs=ctxs, codecs=("bd",))
        encode_batch(ctxs=ctxs, codecs=("variable-bd",))
        for ctx in ctxs:
            assert ctx.stats["tile"] == 1

    def test_eccentricity_shared_when_passed(self, frames):
        ecc = np.full((32, 32), 20.0)
        ctxs = [FrameContext(frame, eccentricity=ecc) for frame in frames[:2]]
        for ctx in ctxs:
            assert ctx.eccentricity is ecc


class TestSemantics:
    def test_results_keyed_by_canonical_name(self, frames):
        results = encode_batch(frames[:2], codecs=("raw", "BD"))
        assert set(results) == {"nocom", "bd"}

    def test_codec_options_routed(self, frames):
        """A codec is configured by its constructor: a configured
        instance runs with its options, a name at its defaults."""
        fine = encode_batch(frames[:1], codecs=("BD",))
        coarse = encode_batch(frames[:1], codecs=(get_codec("bd", tile_size=16),))
        assert fine["bd"][0].metadata["tile_size"] == 4
        assert coarse["bd"][0].metadata["tile_size"] == 16
        assert fine["bd"][0].total_bits != coarse["bd"][0].total_bits

    def test_codec_options_keyword_is_gone(self, frames):
        with pytest.raises(TypeError, match="codec_options"):
            encode_batch(
                frames[:1], codecs=("bd",), codec_options={"bd": {"tile_size": 16}}
            )

    def test_codec_instances_accepted(self, frames):
        codec = get_codec("bd", tile_size=8)
        results = encode_batch(frames[:2], codecs=(codec,))
        assert set(results) == {"bd"}

    def test_duplicate_codec_rejected(self, frames):
        with pytest.raises(ValueError, match="twice"):
            encode_batch(frames[:1], codecs=("bd", "BD"))

    def test_needs_frames_or_ctxs(self):
        with pytest.raises(ValueError, match="frames or ctxs"):
            encode_batch()

    def test_context_kwargs_conflict_with_prebuilt_ctxs(self, frames):
        ctxs = [FrameContext(frames[0])]
        with pytest.raises(ValueError, match="no effect"):
            encode_batch(ctxs=ctxs, codecs=("bd",), fixation=(0.2, 0.2))

    def test_perceptual_batch_returns_frame_results(self, frames):
        ecc = np.full((32, 32), 25.0)
        results = encode_batch(frames[:2], codecs=("perceptual",), eccentricity=ecc)
        for result in results["perceptual"]:
            assert isinstance(result, FrameResult)
            assert result.total_bits == result.breakdown.total_bits


class TestParallel:
    def test_bit_identical_to_serial(self, frames):
        codecs = ("nocom", "bd", "png", "variable-bd")
        serial = encode_batch(frames, codecs=codecs)
        parallel = encode_batch(frames, codecs=codecs, n_jobs=3)
        for name in serial:
            assert [r.total_bits for r in serial[name]] == [
                r.total_bits for r in parallel[name]
            ]

    def test_perceptual_parallel_identical(self, frames):
        ecc = np.full((32, 32), 25.0)
        serial = encode_batch(frames[:4], codecs=("perceptual",), eccentricity=ecc)
        parallel = encode_batch(
            frames[:4], codecs=("perceptual",), eccentricity=ecc, n_jobs=2
        )
        for a, b in zip(serial["perceptual"], parallel["perceptual"]):
            assert a.total_bits == b.total_bits
            assert np.array_equal(a.reconstruction, b.reconstruction)

    def test_stateful_codec_stays_serial_and_identical(self, frames):
        serial = encode_batch(frames, codecs=("temporal-bd",))
        parallel = encode_batch(frames, codecs=("temporal-bd",), n_jobs=4)
        assert [r.total_bits for r in serial["temporal-bd"]] == [
            r.total_bits for r in parallel["temporal-bd"]
        ]

    def test_more_jobs_than_frames(self, frames):
        results = encode_batch(frames[:2], codecs=("bd",), n_jobs=8)
        assert len(results["bd"]) == 2

    def test_rejects_bad_n_jobs(self, frames):
        with pytest.raises(ValueError, match="n_jobs"):
            encode_batch(frames[:1], codecs=("bd",), n_jobs=0)
        with pytest.raises(ValueError, match="n_jobs"):
            encode_batch(frames[:1], codecs=("bd",), n_jobs=1.5)
        with pytest.raises(ValueError, match="n_jobs"):
            encode_batch(ctxs=[], codecs=("bd",), n_jobs=0)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_empty_batch_encodes_nothing(self, n_jobs):
        results = encode_batch(ctxs=[], codecs=("bd", "temporal-bd"), n_jobs=n_jobs)
        assert results == {"bd": [], "temporal-bd": []}

    @pytest.mark.slow
    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 4,
        reason="parallel speedup needs multiple cores",
    )
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="spawn start-up costs dwarf a 16-frame batch",
    )
    def test_parallel_faster_on_16_frame_batch(self):
        """Acceptance: n_jobs > 1 beats serial on a 16-frame batch.

        A 256px workload keeps the compute-to-pool-overhead ratio high
        (expected speedup ~3x on 4 cores), and both sides take their
        best of two runs so one noisy-neighbor hiccup on a shared CI
        runner cannot flake the suite.
        """
        import time

        big = [render_scene("thai", 256, 256, frame=i) for i in range(16)]
        ecc = np.full((256, 256), 25.0)
        encode_batch(big[:1], codecs=("perceptual",), eccentricity=ecc)  # warm caches

        def best_of_two(**kwargs):
            best = float("inf")
            for _ in range(2):
                start = time.perf_counter()
                encode_batch(big, codecs=("perceptual",), eccentricity=ecc, **kwargs)
                best = min(best, time.perf_counter() - start)
            return best

        assert best_of_two(n_jobs=4) < best_of_two()


class TestNonTileMultipleFrames:
    def test_190x190_parallel_matches_serial(self):
        ragged = [render_scene("office", 190, 190, frame=i) for i in range(2)]
        codecs = ("bd", "variable-bd")
        serial = encode_batch(ragged, codecs=codecs)
        parallel = encode_batch(ragged, codecs=codecs, n_jobs=2)
        for name in codecs:
            assert [r.total_bits for r in serial[name]] == [
                r.total_bits for r in parallel[name]
            ]
            # Billed per source pixel (190x190), not the padded grid.
            assert all(r.n_pixels == 190 * 190 for r in serial[name])

    def test_190x190_perceptual_reconstruction_cropped(self):
        # The untile path must crop the pad back off: the decoder
        # displays exactly the source-size frame.
        ragged = [render_scene("office", 190, 190)]
        ecc = np.full((190, 190), 25.0)
        result = encode_batch(ragged, codecs=("perceptual",), eccentricity=ecc)
        frame = result["perceptual"][0]
        assert frame.reconstruction.shape == (190, 190, 3)
        assert frame.n_pixels == 190 * 190


class TestTemporalState:
    def test_temporal_bd_exploits_still_frames(self, frames):
        still = [frames[0], frames[0], frames[0]]
        results = encode_batch(still, codecs=("temporal-bd", "bd"))
        temporal = [r.total_bits for r in results["temporal-bd"]]
        spatial = [r.total_bits for r in results["bd"]]
        # First frame has no reference; later identical frames are
        # far cheaper than spatial BD.
        assert temporal[1] < spatial[1]
        assert temporal[2] < spatial[2]

    def test_batches_do_not_leak_state(self, frames):
        codec = get_codec("temporal-bd")
        runs = []
        for _ in range(2):
            codec.reset()
            runs.append([codec.encode(FrameContext(frame)) for frame in frames[:2]])
        # reset() starts a clean sequence: the second run's first frame
        # is fully spatial again, not temporal against the first run.
        assert [r.total_bits for r in runs[0]] == [r.total_bits for r in runs[1]]
        batch = encode_batch(frames[:2], codecs=(codec,))["temporal-bd"]
        assert [r.total_bits for r in batch] == [r.total_bits for r in runs[0]]
