"""Adaptive rate control: pick each frame's codec rung from feedback.

The session and fleet simulators historically pinned every client to
one codec for its whole stream.  Real streaming stacks (DASH and its
descendants) instead adapt: they watch what the network delivers and
pick the next chunk's representation accordingly.  This module closes
that loop at frame granularity:

* a :class:`RateController` is a *pure policy*: given this frame's
  per-rung encoded sizes and the measured link state, it returns the
  index of the rung to transmit.  Built-ins: ``fixed`` (today's
  pinned-codec behavior), ``buffer`` (queue-occupancy driven), and
  ``throughput`` (EWMA of measured goodput, clamped by the MAC's
  reported instantaneous PHY rate);
* an :class:`~repro.streaming.engine.AdaptationState` carries the
  per-client feedback loop — transmit backlog, goodput EWMA, rung
  dwell times, stalls — and is shared by the single-session and fleet
  simulators (both dispatch through
  :class:`~repro.streaming.engine.StreamingEngine`), so both use the
  same controller inputs and report the same metrics: the fleet
  queues each client's payloads behind that client's own backlog
  exactly as the solo session does;
* :func:`simulate_adaptive_session` streams one client over a (usually
  time-varying) link and reports rung switches, time-in-rung, stall
  time, and delivered perceptual quality on top of the usual
  :class:`~repro.streaming.session.SessionReport` numbers.

The server encodes **every** ladder rung for each frame and transmits
one — exactly what a real ladder encoder does — so controllers may use
the current frame's actual rung sizes when choosing, not stale
estimates.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

from ..codecs.ladder import QualityLadder, encode_rung_streams
from ..scenes.display import QUEST2_DISPLAY, DisplayGeometry
from ..scenes.library import Scene
from .engine import (
    AdaptationState,
    AdaptiveStats,
    ControllerContext,
    PrecomputedSource,
    StreamingEngine,
    StreamSpec,
    modeled_encode_time_s,
)
from .link import WirelessLink
from .session import SessionReport
from .validation import validate_stream_timing

__all__ = [
    "RateController",
    "FixedController",
    "BufferController",
    "ThroughputController",
    "CONTROLLER_CHOICES",
    "get_controller",
    "AdaptiveSessionReport",
    "simulate_adaptive_session",
]


class RateController(abc.ABC):
    """Policy choosing the next frame's ladder rung.

    Controllers are **stateless**: every signal they may react to
    arrives in the :class:`~repro.streaming.engine.ControllerContext`,
    and all feedback state (backlog, goodput EWMA) lives in the
    per-client :class:`~repro.streaming.engine.AdaptationState`.  One
    controller instance can therefore drive any number of clients.
    """

    #: Registry name (the CLI's ``--controller`` spelling).
    name: str = ""

    #: Weight of the newest sample in the goodput EWMA that
    #: :class:`~repro.streaming.engine.AdaptationState` maintains on this controller's behalf
    #: (and feeds back via ``ControllerContext.goodput_bps``).
    #: Controllers that react to goodput may override it.
    ewma_alpha: float = 0.3

    @abc.abstractmethod
    def select_rung(self, ladder: QualityLadder, ctx: ControllerContext) -> int:
        """Return the ladder index to transmit for this frame.

        Parameters
        ----------
        ladder:
            The quality ladder rungs are drawn from.
        ctx:
            The frame's sizes and measured link state.

        Returns
        -------
        int
            A rung index; the caller clamps it into range.
        """


class FixedController(RateController):
    """Always the same rung — the pre-adaptive pinned-codec behavior.

    Parameters
    ----------
    rung:
        Ladder index or rung/codec name to pin.  ``None`` (default)
        keeps whatever rung the client started on — for fleet clients
        that is the rung matching their configured codec, which makes
        ``fixed`` reproduce the non-adaptive simulation bit for bit.
    """

    name = "fixed"

    def __init__(self, rung: int | str | None = None):
        self.rung = rung

    def pinned_index(self, ladder: QualityLadder) -> int | None:
        """The ladder index this controller pins, or ``None`` to hold.

        Raises
        ------
        ValueError
            If the pinned index lies outside ``ladder``.
        KeyError
            If no rung carries the pinned name.
        """
        if self.rung is None:
            return None
        index = ladder.index_of(self.rung) if isinstance(self.rung, str) else int(self.rung)
        if not 0 <= index < len(ladder):
            raise ValueError(
                f"fixed rung {self.rung!r} outside ladder of {len(ladder)} rungs"
            )
        return index

    def select_rung(self, ladder: QualityLadder, ctx: ControllerContext) -> int:
        """Return the pinned rung (or hold the client's current one)."""
        pinned = self.pinned_index(ladder)
        return ctx.current_rung if pinned is None else pinned


class BufferController(RateController):
    """Queue-occupancy-driven adaptation (BBA-style).

    Watches the transmit backlog — how many seconds of encoded frames
    are waiting for air time — and steps one rung down when it exceeds
    :attr:`high_s`, one rung up when it falls below :attr:`low_s`,
    holding in between.  The one-rung-at-a-time rule keeps switching
    smooth, at the price of reacting over several frames.
    """

    name = "buffer"

    #: Backlog (seconds) above which the controller steps down to a
    #: cheaper rung.
    high_s = 0.01
    #: Backlog below which it steps back up toward quality.
    low_s = 0.002

    def select_rung(self, ladder: QualityLadder, ctx: ControllerContext) -> int:
        """Step down on high backlog, up on low, else hold."""
        if ctx.backlog_s > self.high_s:
            return ctx.current_rung + 1
        if ctx.backlog_s < self.low_s:
            return ctx.current_rung - 1
        return ctx.current_rung


class ThroughputController(RateController):
    """Goodput-driven adaptation with a PHY-rate clamp.

    Estimates deliverable bits per frame interval as :attr:`safety`
    times the smaller of (a) the EWMA of measured goodput — what this
    client actually achieved, which under contention is its *share* —
    and (b) the MAC's instantaneous PHY rate, which reacts to fades
    within the same frame.  It then transmits the best rung whose exact encoded
    size fits that budget; when none does, it sends the smallest
    payload on offer (per-frame bitrates are content-dependent, so the
    smallest rung is not always the last one).  The goodput EWMA uses
    the base class's :attr:`~RateController.ewma_alpha`.
    """

    name = "throughput"

    #: Fraction of the estimated capacity to actually spend; headroom
    #: against estimation error.
    safety = 0.8

    def select_rung(self, ladder: QualityLadder, ctx: ControllerContext) -> int:
        """Best rung whose exact size fits the estimated capacity."""
        estimate_bps = ctx.link_bps
        if ctx.goodput_bps is not None:
            estimate_bps = min(estimate_bps, ctx.goodput_bps)
        budget_bits = self.safety * estimate_bps * ctx.interval_s
        for index, bits in enumerate(ctx.rung_bits):
            if bits <= budget_bits:
                return index
        # Nothing fits: shed as much load as possible (ties break
        # toward the higher-quality rung).
        return min(range(len(ctx.rung_bits)), key=lambda i: (ctx.rung_bits[i], i))


_CONTROLLERS: dict[str, type[RateController]] = {
    cls.name: cls for cls in (FixedController, BufferController, ThroughputController)
}

#: Valid ``--controller`` spellings.
CONTROLLER_CHOICES = tuple(_CONTROLLERS)


def get_controller(controller: str | RateController) -> RateController:
    """Resolve a controller name (or pass an instance through).

    Only :class:`FixedController` takes a constructor argument (the
    rung to pin); the other controllers' tuning is class constants.

    Parameters
    ----------
    controller:
        A name from :data:`CONTROLLER_CHOICES` or a ready
        :class:`RateController` instance.

    Raises
    ------
    ValueError
        For unknown names.
    """
    if isinstance(controller, RateController):
        return controller
    try:
        factory = _CONTROLLERS[controller]
    except KeyError:
        raise ValueError(
            f"unknown controller {controller!r}; expected one of {CONTROLLER_CHOICES}"
        ) from None
    return factory()


@dataclass(frozen=True)
class AdaptiveSessionReport(SessionReport):
    """A :class:`~repro.streaming.session.SessionReport` plus adaptation.

    All aggregate properties of the base report apply unchanged; the
    ``adaptive`` field adds the rate-control telemetry and ``ladder``
    names the rungs that were available.
    """

    adaptive: AdaptiveStats | None = None
    ladder: tuple[str, ...] = ()


def simulate_adaptive_session(
    scene: Scene,
    link: WirelessLink,
    controller: str | RateController = "throughput",
    n_frames: int = 8,
    height: int = 192,
    width: int = 192,
    target_fps: float = 72.0,
    display: DisplayGeometry = QUEST2_DISPLAY,
    encode_throughput_mpixels_s: float = 500.0,
    seed: int = 0,
    start_rung: str | int | None = None,
    rung_streams: Sequence[tuple[int, ...]] | None = None,
    recovery=None,
) -> AdaptiveSessionReport:
    """Stream one client with per-frame rate control over a link.

    Each frame interval the server renders a stereo frame, encodes it
    at **every** ladder rung (precomputed through
    :func:`~repro.codecs.ladder.encode_rung_streams`), asks the
    controller which rung to transmit, and ships that payload over the
    (possibly time-varying) link.  Transmissions queue behind any
    backlog from earlier frames, so sustained over-subscription shows up
    as stall time rather than silently overlapping transmissions.

    Parameters
    ----------
    scene:
        The scene to render.
    link:
        The wireless link; attach a trace for a fading channel.
    controller:
        Rate-control policy (name or instance); it picks rungs of
        :meth:`~repro.codecs.ladder.QualityLadder.default`.
    n_frames:
        Frames to stream.
    height, width:
        Per-eye render resolution.
    target_fps:
        Display refresh rate; sets the frame interval.
    display:
        Headset geometry for the eccentricity map.
    encode_throughput_mpixels_s:
        Server-side encoder rate (as in
        :func:`~repro.streaming.session.simulate_session`).
    seed:
        Seed for the link-jitter stream.
    start_rung:
        Rung (index or name) in effect before the first frame;
        defaults to the best rung.
    rung_streams:
        Precomputed per-frame ladder sizes (one tuple of payload bits
        per frame, best rung first), e.g. from
        :func:`~repro.codecs.ladder.encode_rung_streams` over the same
        scene and ladder.  Skips rendering and encoding entirely; a
        stream shorter than ``n_frames`` cycles over the timeline,
        decoupling simulated duration from encode cost.  Callers
        sweeping several policies over identical content pass one
        shared stream to pay the ladder-encode cost once.
    recovery:
        Loss recovery policy (name from
        :data:`~repro.streaming.loss.RECOVERY_CHOICES` or a
        :class:`~repro.streaming.loss.RecoveryPolicy`); only valid
        when ``link`` carries a loss trace.

    Returns
    -------
    AdaptiveSessionReport
        Per-frame timings plus :class:`~repro.streaming.engine.AdaptiveStats`.
    """
    validate_stream_timing(
        n_frames=n_frames,
        target_fps=target_fps,
        encode_throughput_mpixels_s=encode_throughput_mpixels_s,
    )

    engine = StreamingEngine(link, recovery=recovery)
    policy = get_controller(controller)
    ladder = QualityLadder.default()
    interval_s = 1.0 / target_fps
    if start_rung is None:
        initial = 0
    elif isinstance(start_rung, str):
        initial = ladder.index_of(start_rung)
    else:
        initial = int(start_rung)
    state = AdaptationState(policy, ladder, initial, interval_s)

    if rung_streams is not None:
        rung_streams = [tuple(frame_bits) for frame_bits in rung_streams]
        if not rung_streams:
            raise ValueError("rung_streams must hold at least one frame")
        if any(len(frame_bits) != len(ladder) for frame_bits in rung_streams):
            raise ValueError(
                f"rung_streams entries must have one size per rung "
                f"({len(ladder)} rungs)"
            )
    else:
        rung_streams = encode_rung_streams(
            scene,
            [ladder.build_codec(i) for i in range(len(ladder))],
            n_frames,
            height,
            width,
            display,
        )

    # One adaptive stream through the shared kernel, under the same
    # backlog pricing the fleet uses: payloads queue behind the
    # stream's own transmit backlog.
    spec = StreamSpec(
        name="session",
        source=PrecomputedSource(rung_streams),
        n_frames=n_frames,
        target_fps=target_fps,
        encode_time_s=modeled_encode_time_s(height, width, encode_throughput_mpixels_s),
        adaptation=state,
    )
    outcome = engine.run([spec], seed=seed)[0]
    return AdaptiveSessionReport(
        encoder=f"adaptive:{policy.name}",
        frames=outcome.frames,
        target_fps=target_fps,
        loss=outcome.loss,
        adaptive=outcome.adaptive,
        ladder=ladder.names,
    )
