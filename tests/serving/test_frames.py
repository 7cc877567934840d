"""FrameBank tests: sizes match the simulators, bytes match the sizes."""

import hashlib
import json

import pytest

from repro.codecs.ladder import QualityLadder, QualityRung, encode_rung_streams
from repro.scenes.library import get_scene
from repro.scenes.display import QUEST2_DISPLAY
from repro.serving.frames import FrameBank, filler_payload


#: A ladder with a stateful rung: temporal BD prices each frame
#: against the one before it.
TEMPORAL_LADDER = QualityLadder(
    (QualityRung("bd", "bd", 1.0), QualityRung("temporal-bd", "temporal-bd", 0.9))
)

#: SHA-256 of office banks on the default ladder, keyed by
#: ``(n_frames, size)``: the JSON of ``rung_streams``, then every
#: ``payload(f, r)`` in frame-major order (perfbench's ``bank_digest``).
#: ``(4, 96)`` is the ``repro serve`` default bank.  Recorded on an
#: earlier tree: changes to how a bank renders and encodes its frames
#: must leave these bytes identical.
PINNED_BANKS = {
    (2, 32): "b9d43a2428f43441c4b2d94a4a8dcf46f1a499fea0818bf00befc0e67d5b14f2",
    (4, 96): "69a7eef68866b6ba49d781c10b37ed753e4685171be2ccf95de7a41b0efa2f4f",
}


def _sub_ladder(n: int) -> QualityLadder:
    return QualityLadder(rungs=QualityLadder.default().rungs[:n])


def bank_digest(bank: FrameBank) -> str:
    digest = hashlib.sha256(json.dumps(bank.rung_streams).encode())
    for frame in range(bank.n_unique_frames):
        for rung in range(len(bank.ladder)):
            digest.update(bank.payload(frame, rung))
    return digest.hexdigest()


class TestFillerPayload:
    def test_length_is_byte_ceiling_of_bits(self):
        for bits, expected in [(0, 0), (1, 1), (8, 1), (9, 2), (12_000, 1500)]:
            assert len(filler_payload(bits, 0, 0)) == expected

    def test_deterministic_and_distinguishable(self):
        assert filler_payload(256, 3, 1) == filler_payload(256, 3, 1)
        assert filler_payload(256, 3, 1) != filler_payload(256, 3, 2)
        assert filler_payload(256, 3, 1) != filler_payload(256, 4, 1)

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError, match="payload_bits"):
            filler_payload(-1, 0, 0)


class TestFromRungStreams:
    def test_payload_bytes_carry_exactly_the_priced_bits(self):
        streams = [(80_000, 40_000, 16_000), (64_000, 32_000, 8_000)]
        ladder = _sub_ladder(3)
        bank = FrameBank.from_rung_streams(streams, ladder=ladder)
        for frame in range(2):
            for rung in range(3):
                payload = bank.payload(frame, rung)
                assert 8 * len(payload) == streams[frame][rung]

    def test_cycles_like_precomputed_source(self):
        streams = [(100, 50), (200, 80), (300, 90)]
        ladder = _sub_ladder(2)
        bank = FrameBank.from_rung_streams(streams, ladder=ladder)
        assert bank.n_unique_frames == 3
        assert bank.rung_bits(4) == bank.rung_bits(1)
        assert bank.payload(4, 0) == bank.payload(1, 0)

    def test_rung_streams_round_trip(self):
        streams = [(100, 50), (200, 80)]
        ladder = _sub_ladder(2)
        bank = FrameBank.from_rung_streams(streams, ladder=ladder)
        assert bank.rung_streams == [tuple(s) for s in streams]

    def test_rung_index_bounds_checked(self):
        bank = FrameBank.from_rung_streams(
            [(100, 50)], ladder=_sub_ladder(2)
        )
        with pytest.raises(IndexError):
            bank.payload(0, 2)

    def test_validation(self):
        ladder = _sub_ladder(2)
        with pytest.raises(ValueError, match="at least one frame"):
            FrameBank.from_rung_streams([], ladder=ladder)
        with pytest.raises(ValueError, match="one entry per rung"):
            FrameBank.from_rung_streams([(100,)], ladder=ladder)
        with pytest.raises(ValueError, match="encode_time_s"):
            FrameBank.from_rung_streams(
                [(100, 50)], ladder=ladder, encode_time_s=-1.0
            )


class TestFromScene:
    @pytest.fixture(scope="class")
    def bank(self):
        return FrameBank.from_scene("office", n_frames=2, height=32, width=32)

    @pytest.mark.parametrize(
        "ladder",
        [QualityLadder.default(), TEMPORAL_LADDER],
        ids=["default", "temporal-bd"],
    )
    def test_sizes_match_the_simulator_encode_path(self, ladder):
        # The bank must price frames exactly like the ladder encode the
        # simulators run, or the twin contract is void at the source.
        # A stateful rung must see the frames in order, as in a stream.
        bank = FrameBank.from_scene(
            "office", ladder=ladder, n_frames=4, height=32, width=32
        )
        codecs = [rung.build() for rung in ladder]
        expected = encode_rung_streams(
            get_scene("office"), codecs, 4, 32, 32, QUEST2_DISPLAY
        )
        assert bank.rung_streams == expected

    @pytest.mark.parametrize("n_frames, size", sorted(PINNED_BANKS))
    def test_bank_bytes_are_pinned(self, n_frames, size):
        bank = FrameBank.from_scene(
            "office", n_frames=n_frames, height=size, width=size
        )
        assert bank_digest(bank) == PINNED_BANKS[n_frames, size]

    def test_shared_ladder_codecs_stay_bits_only(self):
        # The bank turns on bitstreams in codecs of its own; the
        # ladder's cached instances, which simulators share, keep
        # pricing without building bytes.
        ladder = _sub_ladder(4)
        shared = [ladder.build_codec(index) for index in range(len(ladder))]
        FrameBank.from_scene("office", ladder=ladder, n_frames=1, height=16, width=16)
        for codec in shared:
            assert getattr(codec, "payload", False) is False

    def test_bitstream_rungs_carry_real_bytes(self, bank):
        # BD-family rungs emit actual packed bitstreams (distinct from
        # the deterministic filler pattern) at the priced bits' byte
        # ceiling.
        ladder = QualityLadder.default()
        names = [rung.name for rung in ladder]
        for rung_name in ("bd", "variable-bd"):
            rung_index = names.index(rung_name)
            bits = bank.rung_bits(0)[rung_index]
            payload = bank.payload(0, rung_index)
            assert len(payload) == (bits + 7) // 8
            assert payload != filler_payload(bits, 0, rung_index)

    def test_filler_rungs_carry_the_byte_ceiling(self, bank):
        ladder = QualityLadder.default()
        for rung_index in range(len(ladder)):
            bits = bank.rung_bits(0)[rung_index]
            assert len(bank.payload(0, rung_index)) == (bits + 7) // 8

    def test_encode_time_uses_the_simulator_formula(self, bank):
        assert bank.encode_time_s == pytest.approx(2 * 32 * 32 / 500e6)

    def test_repr_mentions_scene_and_shape(self, bank):
        assert "office" in repr(bank)
        assert "2 frames" in repr(bank)
