"""Frame banks: pre-encoded ladder payloads the server streams from.

A live server cannot afford to render and ladder-encode on the frame
clock of every connection, and it does not need to: clients streaming
the same scene at the same resolution share content.  A
:class:`FrameBank` renders a scene once, encodes every frame at every
ladder rung — fanned out across a :func:`repro.parallel.worker_pool`
when asked — and serves two queries forever after: *how many bits is
frame k at rung r* and *give me those bytes*.

The bank subclasses the engine's
:class:`~repro.streaming.engine.FrameSource`, so the **same object**
answers the simulator (which only needs sizes) and the socket (which
needs bytes).  That shared source is the digital-twin contract: when
`tests/test_serving_twin.py` runs one bank through
:func:`~repro.streaming.adaptive.simulate_adaptive_session` and
through a loopback server, any divergence is in the transport, not the
content.

Payload bytes are real bitstreams where the codec produces them (the
BD family emits its packed stream as ``metadata["payload"]``) and
deterministic filler at the codec-reported size everywhere else —
either way, the bytes on the wire occupy exactly the bits the
simulator accounts for.
"""

from __future__ import annotations

from typing import Sequence

from ..codecs.context import FrameContext
from ..codecs.ladder import QualityLadder
from ..parallel import pool_map, worker_pool
from ..scenes.display import QUEST2_DISPLAY, DisplayGeometry
from ..scenes.library import Scene, get_scene
from ..streaming.engine import FrameSource

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


def _encode_frame(
    scene: Scene,
    ladder: QualityLadder,
    height: int,
    width: int,
    display: DisplayGeometry,
    frame_index: int,
) -> tuple[tuple[int, ...], tuple[bytes, ...]]:
    """Render one frame and encode every rung, collecting bytes.

    Mirrors :func:`repro.codecs.ladder.encode_stereo_bits` — one
    :class:`~repro.codecs.context.FrameContext` per eye shared across
    rungs — but builds each rung's codec fresh with ``payload=True``
    where the codec supports it, so the ladder's shared codec cache is
    never mutated and real bitstreams come out where available.
    """
    eyes = scene.render_stereo(height, width, frame=frame_index)
    eccentricity = display.eccentricity_map(height, width)
    ctxs = [
        FrameContext(eye, eccentricity=eccentricity, display=display) for eye in eyes
    ]
    bits: list[int] = []
    payloads: list[bytes] = []
    for rung_index, rung in enumerate(ladder):
        codec = rung.build()
        if hasattr(codec, "payload"):
            codec.payload = True
        total_bits = 0
        stream = bytearray()
        have_stream = True
        for ctx in ctxs:
            encoded = codec.encode(ctx)
            total_bits += encoded.total_bits
            eye_payload = encoded.metadata.get("payload")
            if isinstance(eye_payload, (bytes, bytearray)):
                stream.extend(eye_payload)
            else:
                have_stream = False
        bits.append(int(total_bits))
        payloads.append(
            bytes(stream)
            if have_stream and stream
            else filler_payload(int(total_bits), frame_index, rung_index)
        )
    return tuple(bits), tuple(payloads)


def _encode_frame_by_name(
    scene_name: str,
    ladder: QualityLadder,
    height: int,
    width: int,
    display: DisplayGeometry,
    frame_index: int,
) -> tuple[tuple[int, ...], tuple[bytes, ...]]:
    """Process-pool entry point: rebuild the scene from its name.

    Scenes rebuild cheaply, so workers receive the scene's name instead
    of the live object; each rung's codec is built fresh in the worker.
    """
    return _encode_frame(
        get_scene(scene_name), ladder, height, width, display, frame_index
    )


class FrameBank(FrameSource):
    """Pre-encoded per-frame ladder payloads for one scene setup.

    Construct with :meth:`from_scene` (render + encode, optionally on a
    process pool) or :meth:`from_rung_streams` (synthetic sizes — the
    twin test's entry point).  Shorter banks cycle over the stream
    timeline, exactly like the engine's
    :class:`~repro.streaming.engine.PrecomputedSource`.

    Parameters
    ----------
    ladder:
        The quality ladder the payloads were encoded against.
    rung_streams:
        One tuple of payload bits per frame, best rung first.
    payloads:
        Matching payload bytes, one tuple of ``bytes`` per frame.
    encode_time_s:
        Modeled per-frame encode latency the server charges (mirrors
        the simulators' ``encode_throughput_mpixels_s`` accounting).
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
        rung_streams = [tuple(int(b) for b in frame) for frame in rung_streams]
        payloads = [tuple(bytes(p) for p in frame) for frame in payloads]
        if not rung_streams:
            raise ValueError("a frame bank needs at least one frame")
        if len(rung_streams) != len(payloads):
            raise ValueError(
                f"rung_streams and payloads disagree on frame count: "
                f"{len(rung_streams)} vs {len(payloads)}"
            )
        for index, (frame_bits, frame_payloads) in enumerate(
            zip(rung_streams, payloads)
        ):
            if len(frame_bits) != len(ladder) or len(frame_payloads) != len(ladder):
                raise ValueError(
                    f"frame {index} must carry one entry per rung "
                    f"({len(ladder)} rungs)"
                )
        if encode_time_s < 0:
            raise ValueError(f"encode_time_s must be >= 0, got {encode_time_s}")
        self.ladder = ladder
        self.encode_time_s = encode_time_s
        self.scene_name = scene_name
        self.height = height
        self.width = width
        self._rung_streams = rung_streams
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
        n_jobs: int = 1,
    ) -> "FrameBank":
        """Render and ladder-encode ``n_frames`` of a scene.

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
        n_jobs:
            Frames encode in parallel on a
            :func:`repro.parallel.worker_pool` of this width; ``1``
            stays in-process.  Results are identical for any value.
        """
        if n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {n_frames}")
        if n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
        if isinstance(scene, str):
            scene_name, scene_obj = scene, get_scene(scene)
        else:
            scene_name, scene_obj = scene.name, scene
        ladder = ladder if ladder is not None else QualityLadder.default()
        encode_time_s = 2 * height * width / (encode_throughput_mpixels_s * 1e6)

        if n_jobs == 1 or n_frames == 1:
            results = [
                _encode_frame(scene_obj, ladder, height, width, display, index)
                for index in range(n_frames)
            ]
        else:
            with worker_pool(min(n_jobs, n_frames)) as pool:
                results = pool_map(
                    pool,
                    _encode_frame_by_name,
                    [scene_name] * n_frames,
                    [ladder] * n_frames,
                    [height] * n_frames,
                    [width] * n_frames,
                    [display] * n_frames,
                    range(n_frames),
                )
        return cls(
            ladder=ladder,
            rung_streams=[bits for bits, _ in results],
            payloads=[payloads for _, payloads in results],
            encode_time_s=encode_time_s,
            scene_name=scene_name,
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
        ladder = ladder if ladder is not None else QualityLadder.default()
        rung_streams = [tuple(int(b) for b in frame) for frame in rung_streams]
        payloads = [
            tuple(
                filler_payload(bits, frame_index, rung_index)
                for rung_index, bits in enumerate(frame_bits)
            )
            for frame_index, frame_bits in enumerate(rung_streams)
        ]
        return cls(
            ladder=ladder,
            rung_streams=rung_streams,
            payloads=payloads,
            encode_time_s=encode_time_s,
            scene_name=scene_name,
        )

    # -- queries --------------------------------------------------------

    @property
    def n_unique_frames(self) -> int:
        """Frames actually encoded (streams cycle over them)."""
        return len(self._rung_streams)

    @property
    def rung_streams(self) -> list[tuple[int, ...]]:
        """Per-frame ladder sizes, in ``simulate_adaptive_session`` form."""
        return list(self._rung_streams)

    def rung_bits(self, frame_index: int) -> tuple[int, ...]:
        """Payload bits of frame ``frame_index`` at every rung."""
        return self._rung_streams[frame_index % len(self._rung_streams)]

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

