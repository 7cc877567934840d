"""Frame banks: pre-encoded ladder payloads the server streams from.

A live server cannot afford to render and ladder-encode on the frame
clock of every connection, and it does not need to: clients streaming
the same scene at the same resolution share content.  A
:class:`FrameBank` encodes a scene once, through
:func:`repro.codecs.ladder.encode_rung_streams` — the loop every
simulator prices its streams with — and serves two queries forever
after: *how many bits is frame k at rung r* and *give me those bytes*.

The bank is the engine's
:class:`~repro.streaming.engine.PrecomputedSource` plus payload bytes,
so the **same object** answers the simulator (which only needs sizes)
and the socket (which needs bytes).  That shared source is the
digital-twin contract: when `tests/test_serving_twin.py` runs one bank
through :func:`~repro.streaming.adaptive.simulate_adaptive_session`
and through a loopback server, any divergence is in the transport, not
the content.

Payload bytes are real bitstreams where the codec writes one (the BD
family emits its packed stream as ``metadata["payload"]``) and
deterministic filler at the codec-reported size everywhere else —
either way, the bytes on the wire occupy exactly the bits the
simulator accounts for.
"""

from __future__ import annotations

from typing import Sequence

from ..codecs.ladder import QualityLadder, encode_rung_streams
from ..scenes.display import QUEST2_DISPLAY, DisplayGeometry
from ..scenes.library import Scene, get_scene
from ..streaming.engine import PrecomputedSource, modeled_encode_time_s

__all__ = ["FrameBank", "filler_payload"]


def filler_payload(payload_bits: int, frame_index: int, rung_index: int) -> bytes:
    """Deterministic stand-in bytes for a codec without a bitstream.

    The pattern varies with ``(frame_index, rung_index)`` so payloads
    are distinguishable on the wire, and the length is the exact byte
    ceiling of ``payload_bits`` — the transport carries what the
    simulator priced, nothing more.
    """
    if payload_bits < 0:
        raise ValueError(f"payload_bits must be >= 0, got {payload_bits}")
    n_bytes = (payload_bits + 7) // 8
    if n_bytes == 0:
        return b""
    seed = bytes([(frame_index * 31 + rung_index * 7 + k) % 251 for k in range(64)])
    return (seed * (n_bytes // len(seed) + 1))[:n_bytes]


def _bank_payloads(rung_streams, streams) -> list[tuple[bytes, ...]]:
    """Each rung's own bitstream, or filler of its priced length where it has none."""
    return [
        tuple(
            stream or filler_payload(bits, frame_index, rung_index)
            for rung_index, (bits, stream) in enumerate(zip(frame_bits, frame_streams))
        )
        for frame_index, (frame_bits, frame_streams) in enumerate(zip(rung_streams, streams))
    ]


class FrameBank(PrecomputedSource):
    """Per-frame ladder sizes plus the payload bytes that carry them.

    Construct with :meth:`from_scene` (render + encode a scene) or
    :meth:`from_rung_streams` (synthetic sizes — the twin test's entry
    point).  Frame sizes, cycling and validation are the engine's
    :class:`~repro.streaming.engine.PrecomputedSource`; the bank adds
    one payload per ``(frame, rung)``.

    Parameters
    ----------
    ladder:
        The quality ladder the payloads were encoded against.
    rung_streams:
        One tuple of payload bits per frame, best rung first.
    payloads:
        Matching payload bytes, one tuple of ``bytes`` per frame.
    encode_time_s:
        Modeled per-frame encode latency the server charges (see
        :func:`~repro.streaming.engine.modeled_encode_time_s`).
    scene_name, height, width:
        Provenance, echoed into reports.
    """

    def __init__(
        self,
        ladder: QualityLadder,
        rung_streams: Sequence[Sequence[int]],
        payloads: Sequence[Sequence[bytes]],
        encode_time_s: float = 0.0,
        scene_name: str = "",
        height: int = 0,
        width: int = 0,
    ):
        super().__init__(rung_streams)
        payloads = [tuple(bytes(p) for p in frame) for frame in payloads]
        widths = {len(self._frames[0])} | {len(frame) for frame in payloads}
        if len(payloads) != len(self._frames) or widths != {len(ladder)}:
            raise ValueError(
                f"rung_streams and payloads must list the same frames, each "
                f"with one entry per rung ({len(ladder)} rungs)"
            )
        if encode_time_s < 0:
            raise ValueError(f"encode_time_s must be >= 0, got {encode_time_s}")
        self.ladder = ladder
        self.encode_time_s = encode_time_s
        self.scene_name = scene_name
        self.height = height
        self.width = width
        self._payloads = payloads

    # -- construction ---------------------------------------------------

    @classmethod
    def from_scene(
        cls,
        scene: str | Scene,
        ladder: QualityLadder | None = None,
        n_frames: int = 8,
        height: int = 192,
        width: int = 192,
        display: DisplayGeometry = QUEST2_DISPLAY,
        encode_throughput_mpixels_s: float = 500.0,
    ) -> "FrameBank":
        """Render and ladder-encode ``n_frames`` of a scene.

        Frames go through :func:`~repro.codecs.ladder.encode_rung_streams`
        in display order, so the bank prices every rung — stateful ones
        included — exactly as the simulators do.  Each rung's codec is
        built fresh, with its bitstream switched on where it has one;
        the ladder's cached codecs, which simulators share, are never
        touched.

        Parameters
        ----------
        scene:
            Scene instance or library name.
        ladder:
            Quality ladder; defaults to
            :meth:`~repro.codecs.ladder.QualityLadder.default`.
        n_frames:
            Unique frames to encode (streams cycle over them).
        height, width:
            Per-eye render resolution.
        display:
            Headset geometry for the eccentricity map.
        encode_throughput_mpixels_s:
            Modeled server-side encoder rate; sets the bank's
            ``encode_time_s`` with the same formula the simulators use.
        """
        if n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {n_frames}")
        scene = get_scene(scene) if isinstance(scene, str) else scene
        ladder = ladder if ladder is not None else QualityLadder.default()
        codecs = [rung.build() for rung in ladder]
        for codec in codecs:
            if hasattr(codec, "payload"):
                codec.payload = True
        streams: list[tuple[bytes | None, ...]] = []
        rung_streams = encode_rung_streams(
            scene, codecs, n_frames, height, width, display, payloads=streams
        )
        return cls(
            ladder=ladder,
            rung_streams=rung_streams,
            payloads=_bank_payloads(rung_streams, streams),
            encode_time_s=modeled_encode_time_s(height, width, encode_throughput_mpixels_s),
            scene_name=scene.name,
            height=height,
            width=width,
        )

    @classmethod
    def from_rung_streams(
        cls,
        rung_streams: Sequence[Sequence[int]],
        ladder: QualityLadder | None = None,
        encode_time_s: float = 0.0,
        scene_name: str = "synthetic",
    ) -> "FrameBank":
        """Wrap precomputed sizes with synthesized payload bytes.

        The twin test's constructor: the exact ``rung_streams`` handed
        to :func:`~repro.streaming.adaptive.simulate_adaptive_session`
        become a servable bank, so simulator and server stream
        byte-for-bit the same ladder sizes.
        """
        rung_streams = [tuple(int(b) for b in frame) for frame in rung_streams]
        return cls(
            ladder=ladder if ladder is not None else QualityLadder.default(),
            rung_streams=rung_streams,
            payloads=_bank_payloads(
                rung_streams, [[None] * len(frame) for frame in rung_streams]
            ),
            encode_time_s=encode_time_s,
            scene_name=scene_name,
        )

    # -- queries --------------------------------------------------------

    @property
    def n_unique_frames(self) -> int:
        """Frames actually encoded (streams cycle over them)."""
        return len(self._frames)

    @property
    def rung_streams(self) -> list[tuple[int, ...]]:
        """Per-frame ladder sizes, in ``simulate_adaptive_session`` form."""
        return list(self._frames)

    def payload(self, frame_index: int, rung_index: int) -> bytes:
        """The wire bytes of one frame at one rung."""
        frame_payloads = self._payloads[frame_index % len(self._payloads)]
        if not 0 <= rung_index < len(frame_payloads):
            raise IndexError(
                f"rung {rung_index} outside ladder of {len(frame_payloads)} rungs"
            )
        return frame_payloads[rung_index]

    def total_bytes(self) -> int:
        """Bank footprint: summed payload bytes across frames and rungs."""
        return sum(len(p) for frame in self._payloads for p in frame)

    def __repr__(self) -> str:
        mib = self.total_bytes() / 2**20
        return (
            f"FrameBank({self.scene_name!r}, {self.n_unique_frames} frames x "
            f"{len(self.ladder)} rungs, {mib:.1f} MiB)"
        )

