"""Frame-by-frame remote-rendering session simulator (paper Sec. 2.2).

Models the client-cloud split the paper situates itself next to
(Furion, EVR, and friends): a server renders each stereo frame,
compresses it, and ships it over a wireless link; the headset decodes
and displays.  The perceptual encoder slots in exactly where it does
on-device — in front of BD — and the simulator measures what that buys
end to end:

* per-frame payload and motion-to-photon latency,
* the frame rate the link can sustain,
* whether a target refresh rate is met.

Video codecs are out of scope by the paper's own argument (they buffer
frame sequences, violating the per-frame latency requirement), so the
comparison set is the registry's per-frame codecs: raw, BD, variable
BD, and perceptual+BD.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..codecs.ladder import QualityLadder, encode_rung_streams
from ..codecs.registry import streaming_codec_names
from ..scenes.display import QUEST2_DISPLAY, DisplayGeometry
from ..scenes.library import Scene
from .engine import (
    FrameTiming,
    PrecomputedSource,
    StreamingEngine,
    StreamSpec,
    modeled_encode_time_s,
)
from .link import WirelessLink
from .loss import LossStats
from .reports import OMIT_DEFAULT, Report
from .validation import validate_stream_timing

__all__ = [
    "SessionReport",
    "simulate_session",
    "ENCODER_CHOICES",
]

#: Valid per-frame encoder choices for a session, derived from the
#: codec registry (every codec registered with a ``streaming`` name).
ENCODER_CHOICES = streaming_codec_names()


@dataclass(frozen=True)
class SessionReport(Report):
    """Aggregate outcome of a simulated streaming session.

    ``loss`` carries the per-stream
    :class:`~repro.streaming.loss.LossStats` — resync counts, recovery
    latency, goodput versus delivered quality — and stays ``None`` on
    lossless links, so lossless reports serialize exactly as before.
    """

    encoder: str
    target_fps: float
    frames: list[FrameTiming]
    loss: LossStats | None = field(default=None, metadata=OMIT_DEFAULT)

    @property
    def mean_payload_bits(self) -> float:
        """Mean encoded payload per stereo frame, in bits."""
        return float(np.mean([f.payload_bits for f in self.frames]))

    @property
    def mean_latency_s(self) -> float:
        """Mean per-frame motion-to-photon contribution, in seconds."""
        return float(np.mean([f.motion_to_photon_s for f in self.frames]))

    @property
    def mean_encode_time_s(self) -> float:
        """Mean server-side encode time per frame, in seconds."""
        return float(np.mean([f.encode_time_s for f in self.frames]))

    @property
    def mean_serialization_time_s(self) -> float:
        """Mean link airtime per frame, in seconds."""
        return float(np.mean([f.serialization_time_s for f in self.frames]))

    @property
    def sustainable_fps(self) -> float:
        """Rate limited by the slower pipeline stage: encode or link.

        Propagation delay pipelines away across frames, so the
        recurring per-frame costs are the time the encoder spends on a
        frame and the time its payload occupies the air.  The two
        stages overlap across frames, so the throughput bound is the
        *slower* of the two — a raw codec on a fat link is encode-bound
        and cannot exceed the encoder's frame rate.
        """
        bottleneck = max(self.mean_serialization_time_s, self.mean_encode_time_s)
        return 1.0 / bottleneck if bottleneck > 0 else float("inf")

    @property
    def meets_target(self) -> bool:
        """Whether the sustainable rate reaches the target refresh rate."""
        return self.sustainable_fps >= self.target_fps


def simulate_session(
    scene: Scene,
    link: WirelessLink,
    encoder: str = "perceptual",
    n_frames: int = 4,
    height: int = 192,
    width: int = 192,
    target_fps: float = 72.0,
    display: DisplayGeometry = QUEST2_DISPLAY,
    encode_throughput_mpixels_s: float = 500.0,
    seed: int = 0,
    recovery=None,
) -> SessionReport:
    """Stream ``n_frames`` stereo frames of a scene over a link.

    ``encode_throughput_mpixels_s`` models the server-side encoder
    rate (a hardware CAU + BD block easily exceeds this; the value only
    matters relative to transmission).  Gaze is centered; per-eye
    sub-frames are encoded independently and share one transmission.

    The session dispatches through the
    :class:`~repro.streaming.engine.StreamingEngine` as a fleet of one:
    frames queue behind the stream's own transmit backlog (an
    oversubscribed link shows up as growing queue wait in
    ``transmit_time_s``, not as silently overlapping transmissions),
    and the jitter RNG is the stream's spawned child of ``seed`` — the
    same draws a one-client fleet sees.

    Parameters
    ----------
    scene:
        The scene to render.
    link:
        The wireless link; attach a
        :class:`~repro.streaming.traces.BandwidthTrace` for a fading
        channel (each frame then serializes at its own send time).
    encoder:
        Streaming codec name (one of :data:`ENCODER_CHOICES`).  For
        per-frame rate control over a quality ladder, use
        :func:`~repro.streaming.adaptive.simulate_adaptive_session`.
    n_frames, height, width, target_fps, display:
        Stream length, per-eye resolution, refresh target, and headset
        geometry.
    encode_throughput_mpixels_s:
        Server-side encoder rate in megapixels per second.
    seed:
        Seed for the link-jitter stream.
    recovery:
        Loss recovery policy (name from
        :data:`~repro.streaming.loss.RECOVERY_CHOICES` or a
        :class:`~repro.streaming.loss.RecoveryPolicy`); only valid
        when ``link`` carries a loss trace.

    Returns
    -------
    SessionReport
        Per-frame timings and aggregate rates.
    """
    validate_stream_timing(
        n_frames=n_frames,
        target_fps=target_fps,
        encode_throughput_mpixels_s=encode_throughput_mpixels_s,
    )
    if encoder not in ENCODER_CHOICES:
        raise ValueError(f"unknown encoder {encoder!r}; expected one of {ENCODER_CHOICES}")
    engine = StreamingEngine(link, recovery=recovery)
    ladder = QualityLadder.default()
    codec = ladder.build_codec(ladder.index_of(encoder))

    # A solo session is a fleet of one: a single engine stream under
    # backlog pricing (frames queue behind the stream's own transmit
    # backlog; on a traced link each payload drains through the trace
    # from its actual send time).
    spec = StreamSpec(
        name="session",
        source=PrecomputedSource(
            encode_rung_streams(scene, [codec], n_frames, height, width, display)
        ),
        n_frames=n_frames,
        target_fps=target_fps,
        encode_time_s=modeled_encode_time_s(height, width, encode_throughput_mpixels_s),
    )
    outcome = engine.run([spec], seed=seed)[0]
    return SessionReport(
        encoder=encoder,
        frames=outcome.frames,
        target_fps=target_fps,
        loss=outcome.loss,
    )
