"""One discrete-event streaming kernel behind every simulator.

The repository grew three hand-rolled frame loops — the solo session,
the adaptive session, and the multi-client fleet — each re-implementing
render → encode → schedule → transmit with subtly different timing
semantics.  This module replaces all three with a single
ns-3-style discrete-event core:

* an **event queue** keyed on simulated time carries three event
  kinds — :data:`FRAME_READY` (a stream's next stereo frame finished
  encoding), :data:`TRANSMIT_START` (its payload reaches the air), and
  :data:`TRANSMIT_DONE` (its last bit drains);
* **pluggable components**: a :class:`PrecomputedSource` replays
  per-frame payload sizes (precomputed by
  :func:`~repro.codecs.ladder.encode_rung_streams`), a rate controller
  (:mod:`repro.streaming.adaptive`) picks each frame's quality-ladder
  rung, a :class:`LinkScheduler` divides the air among concurrent
  transmissions, and a (possibly traced)
  :class:`~repro.streaming.link.WirelessLink` prices them;
* **backlog pricing**: every stream runs on its own display clock and
  queues payloads behind its own transmit backlog, with cross-stream
  contention resolved event by event in the scheduler's fluid limit.

The public simulators are now thin wrappers: a solo session is a fleet
of one, a pinned codec is a non-adaptive stream, and the fleet simply
runs many streams.  Per-stream jitter RNGs are spawned from one
``numpy.random.SeedSequence``, so adding a client never perturbs
another client's jitter draws, and per-stream clocks admit staggered
start times and mixed refresh rates without a fastest-client hack.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .link import WirelessLink
from .loss import LossRuntime, LossStats, get_recovery_policy
from .validation import validate_finite, validate_stream_timing, validate_stream_window

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..codecs.ladder import QualityLadder

__all__ = [
    "FRAME_READY",
    "TRANSMIT_START",
    "TRANSMIT_DONE",
    "Event",
    "FrameTiming",
    "LinkScheduler",
    "FairShareScheduler",
    "PriorityScheduler",
    "SCHEDULER_CHOICES",
    "get_scheduler",
    "ControllerContext",
    "AdaptiveStats",
    "AdaptationState",
    "PrecomputedSource",
    "frames_within_window",
    "modeled_encode_time_s",
    "StreamSpec",
    "StreamOutcome",
    "StreamingEngine",
]

#: Payload remainders below this many bits count as fully drained
#: (guards the fluid scheduler against float round-off).
_DRAIN_EPSILON_BITS = 1e-6

# -- events -------------------------------------------------------------

#: A stream's next stereo frame finished encoding and wants air time.
FRAME_READY = "frame-ready"
#: A queued payload reaches the air and starts occupying the link.
TRANSMIT_START = "transmit-start"
#: A payload's last bit leaves the air.
TRANSMIT_DONE = "transmit-done"

#: Tie-break order for heap events at the same simulated time.  The
#: kernel's pending completion, kept beside the heap, lands before both
#: (freeing the link and recording feedback); then newly ready frames
#: (controllers see that feedback), then queued payloads reaching the air.
_EVENT_ORDER = {FRAME_READY: 1, TRANSMIT_START: 2}


@dataclass(frozen=True)
class Event:
    """One kernel event, as recorded in the engine's event log.

    Attributes
    ----------
    time_s:
        Simulated time the event fires.
    kind:
        :data:`FRAME_READY`, :data:`TRANSMIT_START`, or
        :data:`TRANSMIT_DONE`.
    stream:
        Name of the stream the event belongs to.
    frame_index:
        Zero-based frame number within that stream.
    """

    time_s: float
    kind: str
    stream: str
    frame_index: int


# -- per-frame timing ---------------------------------------------------


@dataclass(frozen=True)
class FrameTiming:
    """Timing of one stereo frame through the remote pipeline.

    Attributes
    ----------
    frame_index:
        Zero-based frame number within the stream.
    payload_bits:
        Encoded size of the transmitted stereo pair.
    encode_time_s:
        Server-side encode time for the frame.
    serialization_time_s:
        Airtime of the payload (contended drain time inside a fleet).
    transmit_time_s:
        Serialization plus queue wait and propagation/jitter overhead.
    rung:
        Quality-ladder rung this frame was transmitted at; empty for
        non-adaptive streams.
    """

    frame_index: int
    payload_bits: int
    encode_time_s: float
    serialization_time_s: float
    transmit_time_s: float
    rung: str = ""

    @property
    def motion_to_photon_s(self) -> float:
        """Render-to-display latency contribution of encode + link.

        (Server render time and display scan-out are common to all
        encoders and excluded, as the comparison is between encoders.)
        """
        return self.encode_time_s + self.transmit_time_s


# -- link schedulers ----------------------------------------------------


def _check_weights(weights: Sequence[float]) -> None:
    """Reject a weight that is not positive and finite; NaN fails too."""
    for weight in weights:
        if not 0.0 < weight < math.inf:
            raise ValueError(
                f"scheduler weights must be positive and finite, got {weight!r}"
            )


class LinkScheduler:
    """Divides one link's capacity among concurrently backlogged flows.

    The default discipline is generalized processor sharing (capacity
    in proportion to weight); subclasses with different preemption
    rules override :meth:`instantaneous_shares`.
    """

    #: Registry name (the CLI's ``--scheduler`` spelling).
    name: str = ""

    def instantaneous_shares(self, weights: Sequence[float]) -> list[float]:
        """Fraction of link capacity each backlogged flow gets *now*.

        The event kernel calls this whenever the set of in-flight
        transmissions changes and lets each flow drain at its share of
        the (possibly traced) link rate until the next event.

        Parameters
        ----------
        weights:
            Positive scheduling weights of the currently backlogged
            flows, in stream order.

        Returns
        -------
        list of float
            One share per flow, non-negative, summing to at most 1.

        Raises
        ------
        ValueError
            If a weight is not positive and finite (NaN included), or
            if the weights' sum overflows to infinity.
        """
        _check_weights(weights)
        total = sum(weights)
        if total == math.inf:
            raise ValueError(
                f"scheduler weights must have a finite sum, got {list(weights)!r}"
            )
        return [w / total for w in weights]


class FairShareScheduler(LinkScheduler):
    """Weighted fair queueing in the fluid (GPS) limit.

    Every backlogged client receives capacity in proportion to its
    weight; when one drains, its share redistributes among the rest.
    Equal weights give the classic per-client ``1/n`` fair share.
    """

    name = "fair"


class PriorityScheduler(LinkScheduler):
    """Strict priority: heavier clients transmit first, then the rest.

    Ties break in client order.  The heaviest backlogged client sees a
    dedicated link — useful to model one latency-critical headset
    among best-effort peers.  On a traced link fades land on whoever
    is on the air.
    """

    name = "priority"

    def instantaneous_shares(self, weights):
        """All capacity to the heaviest backlogged flow (ties: first)."""
        _check_weights(weights)
        top = min(range(len(weights)), key=lambda i: (-weights[i], i))
        return [1.0 if i == top else 0.0 for i in range(len(weights))]


_SCHEDULERS = {cls.name: cls for cls in (FairShareScheduler, PriorityScheduler)}

#: Valid ``--scheduler`` spellings.
SCHEDULER_CHOICES = tuple(_SCHEDULERS)


def get_scheduler(scheduler: str | LinkScheduler) -> LinkScheduler:
    """Resolve a scheduler name (or pass an instance through).

    Parameters
    ----------
    scheduler:
        A name from :data:`SCHEDULER_CHOICES` or a ready
        :class:`LinkScheduler` instance.

    Raises
    ------
    ValueError
        For unknown names.
    """
    if isinstance(scheduler, LinkScheduler):
        return scheduler
    try:
        return _SCHEDULERS[scheduler]()
    except KeyError:
        raise ValueError(
            f"unknown scheduler {scheduler!r}; expected one of {SCHEDULER_CHOICES}"
        ) from None


# -- adaptation state ---------------------------------------------------


@dataclass(frozen=True)
class ControllerContext:
    """Everything a rate controller may look at when picking a rung.

    Attributes
    ----------
    frame_index:
        Zero-based index of the frame about to be transmitted.
    time_s:
        Session time at the start of this frame interval.
    interval_s:
        Frame interval (``1 / target_fps``) in seconds.
    rung_bits:
        This frame's encoded payload per ladder rung, best rung first —
        the server encodes the whole ladder, so these are exact sizes,
        not estimates.
    backlog_s:
        Transmit-queue occupancy in seconds: how far behind the
        display clock the client's transmissions are running.
    goodput_bps:
        EWMA of measured delivered goodput in bits/second, or ``None``
        before the first frame completes.
    link_bps:
        The MAC's reported instantaneous PHY rate in bits/second — the
        cross-layer hint real Wi-Fi rate adaptation exposes.  Under
        contention the achievable share is lower; ``goodput_bps``
        captures that.
    current_rung:
        The rung index used for the previous frame (or the starting
        rung on frame 0).
    """

    frame_index: int
    time_s: float
    interval_s: float
    rung_bits: tuple[int, ...]
    backlog_s: float
    goodput_bps: float | None
    link_bps: float
    current_rung: int


@dataclass(frozen=True)
class AdaptiveStats:
    """Adaptation outcome of one client's stream.

    Attributes
    ----------
    controller:
        Name of the policy that drove the stream.
    rungs:
        Rung name transmitted for each frame, in order.
    rung_switches:
        How many frames used a different rung than their predecessor.
    time_in_rung:
        Display time (seconds) attributed to each rung name.
    stall_time_s:
        Total time playback fell *further* behind the display clock —
        the rebuffering metric of the streaming literature at frame
        granularity.  Counted as transmit-backlog growth, so a
        constant pipeline delay is charged once, not every frame.
    mean_quality:
        Mean of the transmitted rungs' nominal quality scores.
    """

    controller: str
    rungs: tuple[str, ...]
    rung_switches: int
    time_in_rung: dict[str, float]
    stall_time_s: float
    mean_quality: float


class AdaptationState:
    """Per-stream feedback loop shared by every engine-backed simulator.

    Owns everything the controller reads (backlog, goodput EWMA,
    current rung) and everything the reports show (switch counts, rung
    dwell times, stall time, delivered quality).  The engine drives it
    with two calls per frame: :meth:`choose` when the frame is ready,
    :meth:`record` once the transmission has been priced.

    Parameters
    ----------
    controller:
        The (stateless) :class:`~repro.streaming.adaptive.RateController`
        policy instance.
    ladder:
        The quality ladder rungs are drawn from.
    start_rung:
        Rung index in effect before the first frame.
    interval_s:
        Frame interval (``1 / target_fps``) in seconds.
    """

    def __init__(
        self,
        controller,
        ladder: "QualityLadder",
        start_rung: int,
        interval_s: float,
    ):
        if not 0 <= start_rung < len(ladder):
            raise ValueError(
                f"start_rung {start_rung} outside ladder of {len(ladder)} rungs"
            )
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.controller = controller
        self.ladder = ladder
        self.interval_s = interval_s
        self.rung = start_rung
        self.backlog_s = 0.0
        self.goodput_bps: float | None = None
        self.rung_names: list[str] = []
        self.rung_switches = 0
        self.time_in_rung: dict[str, float] = {}
        self.stall_time_s = 0.0
        self._quality_sum = 0.0

    def choose(
        self,
        frame_index: int,
        time_s: float,
        rung_bits: tuple[int, ...],
        link_bps: float,
    ) -> int:
        """Pick (and commit to) the rung for this frame.

        Parameters
        ----------
        frame_index:
            Zero-based frame number.
        time_s:
            Session time at the interval start.
        rung_bits:
            Exact encoded size of this frame at every rung.
        link_bps:
            Instantaneous PHY rate at ``time_s`` in bits/second.

        Returns
        -------
        int
            The chosen rung index (clamped into the ladder).
        """
        ctx = ControllerContext(
            frame_index=frame_index,
            time_s=time_s,
            interval_s=self.interval_s,
            rung_bits=tuple(rung_bits),
            backlog_s=self.backlog_s,
            goodput_bps=self.goodput_bps,
            link_bps=link_bps,
            current_rung=self.rung,
        )
        chosen = int(self.controller.select_rung(self.ladder, ctx))
        chosen = max(0, min(chosen, len(self.ladder) - 1))
        if self.rung_names and chosen != self.rung:
            self.rung_switches += 1
        self.rung = chosen
        return chosen

    def record(
        self, payload_bits: int, drain_s: float, rung: int | None = None
    ) -> None:
        """Fold one transmitted frame's timing back into the loop.

        Updates the goodput EWMA with this frame's delivered rate, adds
        any deadline overrun to the stall total, and rolls the backlog
        forward: a frame whose transmission (queued behind the backlog)
        completes after the next display refresh leaves the excess
        queued.

        Stall is a *throughput* metric: it accrues only while the
        transmit backlog is **growing** — each frame contributes how
        much further behind the display clock its transmission left
        the stream, so a persistent one-interval pipeline delay is
        charged once, not once per frame.  Fixed propagation and
        jitter overhead pipeline across frames — they shift latency,
        not sustainable rate — so they are excluded too, mirroring the
        serialization-vs-encode bound of
        :attr:`~repro.streaming.session.SessionReport.sustainable_fps`.

        Parameters
        ----------
        payload_bits:
            Bits actually transmitted (the chosen rung's size).
        drain_s:
            Scheduler-assigned time for this payload to leave the air
            (contended time under a fleet scheduler).
        rung:
            Ladder index the frame was actually transmitted at.
            Defaults to the current rung — correct for the simulators,
            whose ``choose``/``record`` calls interleave strictly.  A
            real server's transport acknowledgements can arrive *after*
            the next frame's ``choose`` has already moved the current
            rung, so it passes the frame's rung explicitly.
        """
        rung = self.ladder[self.rung if rung is None else rung]
        self.rung_names.append(rung.name)
        self._quality_sum += rung.quality
        self.time_in_rung[rung.name] = (
            self.time_in_rung.get(rung.name, 0.0) + self.interval_s
        )
        new_backlog_s = max(0.0, self.backlog_s + drain_s - self.interval_s)
        self.stall_time_s += max(0.0, new_backlog_s - self.backlog_s)
        if drain_s > 0 and payload_bits > 0:
            sample = payload_bits / drain_s
            if self.goodput_bps is None:
                self.goodput_bps = sample
            else:
                self.goodput_bps += self.controller.ewma_alpha * (
                    sample - self.goodput_bps
                )
        self.backlog_s = new_backlog_s

    def stats(self) -> AdaptiveStats:
        """Freeze the accumulated telemetry into an :class:`AdaptiveStats`."""
        n_frames = len(self.rung_names)
        return AdaptiveStats(
            controller=self.controller.name,
            rungs=tuple(self.rung_names),
            rung_switches=self.rung_switches,
            time_in_rung=dict(self.time_in_rung),
            stall_time_s=self.stall_time_s,
            mean_quality=self._quality_sum / n_frames if n_frames else 0.0,
        )


# -- frame sources ------------------------------------------------------


class PrecomputedSource:
    """Replays precomputed per-frame ladder sizes, cycling if short.

    The engine asks its source one question — "how many bits is frame
    *k* at every available quality rung" — in display order.  A
    :class:`~repro.serving.frames.FrameBank` is a source that also
    holds each rung's payload bytes.

    Parameters
    ----------
    frames:
        One tuple of payload bits per frame (best rung first); shorter
        streams cycle over the timeline, decoupling simulated duration
        from encode cost.
    """

    def __init__(self, frames: Sequence[Sequence[int]]):
        frames = [tuple(int(bits) for bits in frame) for frame in frames]
        if not frames:
            raise ValueError("rung_streams must hold at least one frame")
        widths = {len(frame) for frame in frames}
        if len(widths) != 1:
            raise ValueError(
                f"every frame must list the same number of rungs, got {sorted(widths)}"
            )
        self._frames = frames

    def rung_bits(self, frame_index: int) -> tuple[int, ...]:
        """Frame sizes, cycling over the precomputed stream."""
        return self._frames[frame_index % len(self._frames)]


# -- stream specification and outcome -----------------------------------


def frames_within_window(
    n_frames: int,
    target_fps: float,
    start_s: float = 0.0,
    stop_s: float | None = None,
) -> int:
    """Frames a stream produces before departing at ``stop_s``.

    Frame ``k`` is ready at ``start_s + k / target_fps`` and is
    streamed only while its stream is present (ready time strictly
    before ``stop_s``).  ``None`` means no departure.  A valid window
    (``stop_s > start_s``) always admits frame 0.  Shared by
    :attr:`StreamSpec.frames_to_stream` and the fleet's per-client
    encode planning, so the encoder never renders frames the engine
    would drop.
    """
    if stop_s is None:
        return n_frames
    by_departure = math.ceil((stop_s - start_s) * target_fps - 1e-9)
    return max(1, min(n_frames, by_departure))


def modeled_encode_time_s(height: int, width: int, encode_throughput_mpixels_s: float) -> float:
    """Modeled server-side encode time of one stereo frame (both eyes)."""
    return 2 * height * width / (encode_throughput_mpixels_s * 1e6)


@dataclass
class StreamSpec:
    """One stream (client) as the engine sees it.

    Attributes
    ----------
    name:
        Unique stream label.
    source:
        Where the stream's per-frame payload sizes come from.
    n_frames:
        Frames to stream.
    target_fps:
        The stream's own display refresh rate; sets its frame interval
        and its clock.
    encode_time_s:
        Server-side encode time charged to every frame.
    weight:
        Scheduling weight under contention.
    start_s:
        Session time the stream joins; models late joiners.
    stop_s:
        Session time the stream departs, or ``None`` to stream all
        ``n_frames``.  Frames whose ready time falls at or after
        ``stop_s`` are never produced — the engine's model of a client
        leaving the fleet mid-session.
    adaptation:
        Optional per-stream :class:`AdaptationState` (controller +
        telemetry); ``None`` pins the source's first rung.
    rung_map:
        Ladder indices available in ``source``, in source order, one per
        source rung; lets a pinned fleet encode only the rung it
        transmits.  ``None`` means the identity map.
    """

    name: str
    source: PrecomputedSource
    n_frames: int
    target_fps: float
    encode_time_s: float = 0.0
    weight: float = 1.0
    start_s: float = 0.0
    stop_s: float | None = None
    adaptation: AdaptationState | None = None
    rung_map: tuple[int, ...] | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("stream name must be non-empty")
        validate_stream_timing(n_frames=self.n_frames, target_fps=self.target_fps)
        if self.encode_time_s < 0:
            raise ValueError(f"encode_time_s must be >= 0, got {self.encode_time_s}")
        validate_finite(self.encode_time_s, "encode_time_s", self.name)
        if self.weight <= 0:
            raise ValueError(f"stream {self.name!r}: weight must be positive")
        validate_finite(self.weight, "weight", self.name)
        validate_stream_window(self.start_s, self.stop_s, name=self.name)
        n_rungs = len(self.source.rung_bits(0))
        if self.rung_map is not None and len(self.rung_map) != n_rungs:
            raise ValueError(
                f"stream {self.name!r}: rung_map lists {len(self.rung_map)} rungs "
                f"but the source holds {n_rungs}"
            )

    @property
    def interval_s(self) -> float:
        """The stream's own frame interval in seconds."""
        return 1.0 / self.target_fps

    @property
    def frames_to_stream(self) -> int:
        """Frames actually produced, after any ``stop_s`` departure.

        Frame ``k`` is ready at ``start_s + k * interval_s`` and is
        streamed only while the stream is present (ready time strictly
        before ``stop_s``).  A valid window always admits frame 0.
        """
        return frames_within_window(
            self.n_frames, self.target_fps, self.start_s, self.stop_s
        )


@dataclass(frozen=True)
class StreamOutcome:
    """What one stream experienced: per-frame timings plus telemetry.

    Attributes
    ----------
    name:
        The stream's label.
    frames:
        One :class:`FrameTiming` per streamed frame, in display order.
    adaptive:
        Frozen adaptation telemetry, or ``None`` for pinned streams.
    loss:
        Frozen loss/recovery telemetry, or ``None`` on lossless links.
    """

    name: str
    frames: list[FrameTiming]
    adaptive: AdaptiveStats | None = None
    loss: LossStats | None = None


# -- kernel runtime state -----------------------------------------------


class _Flow:
    """An in-flight transmission inside the fluid event kernel."""

    __slots__ = (
        "frame_index",
        "payload_bits",
        "wire_bits",
        "rung_name",
        "nominal_s",
        "send_start_s",
        "remaining_bits",
        "share",
    )

    def __init__(
        self, frame_index, payload_bits, wire_bits, rung_name, nominal_s, send_start_s
    ):
        self.frame_index = frame_index
        self.payload_bits = payload_bits
        self.wire_bits = wire_bits
        self.rung_name = rung_name
        self.nominal_s = nominal_s
        self.send_start_s = send_start_s
        self.remaining_bits = float(wire_bits)
        self.share = 0.0


class _StreamRuntime:
    """Mutable per-stream bookkeeping for one engine run."""

    __slots__ = ("spec", "rng", "queue", "flow", "pending_start", "timings", "loss")

    def __init__(self, spec: StreamSpec, rng: np.random.Generator, loss: LossRuntime | None):
        self.spec = spec
        self.rng = rng
        self.queue: deque = deque()
        self.flow: _Flow | None = None
        self.pending_start = False
        self.timings: list[FrameTiming] = []
        self.loss = loss


# -- the engine ---------------------------------------------------------


class StreamingEngine:
    """Discrete-event simulation core shared by every streaming path.

    Parameters
    ----------
    link:
        The (possibly traced) wireless link all streams share.
    scheduler:
        Link scheduling discipline (name or :class:`LinkScheduler`).
    recovery:
        Loss recovery policy — a name from
        :data:`~repro.streaming.loss.RECOVERY_CHOICES`, a
        :class:`~repro.streaming.loss.RecoveryPolicy` instance, or
        ``None`` for the default (ARQ) when the link carries a
        :class:`~repro.streaming.loss.LossTrace`.  Naming a policy on
        a lossless link is an error: there is nothing to recover from.

    Notes
    -----
    Each stream runs on its own display clock (``start_s`` + multiples
    of its frame interval) and queues payloads behind its own transmit
    backlog.  Concurrent transmissions share the link in the fluid
    limit of the scheduler's :meth:`~LinkScheduler.instantaneous_shares`,
    integrated exactly through a traced link's capacity profile.

    A single-stream run is priced analytically —
    the event timeline of a lone stream is deterministic, so each
    frame resolves at its :data:`FRAME_READY` event exactly as the
    historical session loops did (controller feedback included), which
    keeps solo reports bit-for-bit stable.  That path is public as
    :meth:`solo_trajectory` plus :meth:`price_trajectory`, which the
    cohort engine prices its members with.  Multi-stream runs resolve
    contention event by event, so a controller sees a frame's feedback
    when its transmission actually completes.
    """

    def __init__(
        self,
        link: WirelessLink,
        scheduler: str | LinkScheduler = "fair",
        recovery=None,
    ):
        self.link = link
        self.scheduler = get_scheduler(scheduler)
        if link.loss is not None:
            self.recovery = get_recovery_policy(recovery)
        elif recovery is not None:
            raise ValueError(
                "a recovery policy needs a lossy link; "
                "set WirelessLink.loss (e.g. LossTrace.bernoulli(0.01)) "
                "or drop the recovery argument"
            )
        else:
            self.recovery = None
        self.last_events: tuple[Event, ...] = ()

    # -- public entry ---------------------------------------------------

    def run(self, streams: Sequence[StreamSpec], seed: int = 0) -> list[StreamOutcome]:
        """Simulate the streams to completion.

        Parameters
        ----------
        streams:
            The stream specifications; names must be unique.
        seed:
            Master seed.  Per-stream jitter RNGs are spawned from
            ``numpy.random.SeedSequence(seed)``, one child per stream
            in order — adding a stream never perturbs the jitter draws
            of the streams before it.

        Returns
        -------
        list of StreamOutcome
            One outcome per stream, in input order.  The kernel's
            event log (in processing order) is kept on
            :attr:`last_events`.
        """
        streams = list(streams)
        if not streams:
            raise ValueError("the engine needs at least one stream")
        names = [spec.name for spec in streams]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate stream names: {duplicates}")
        rngs = [
            np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(len(streams))
        ]
        runtimes = [
            _StreamRuntime(spec, rng, self.loss_runtime(spec))
            for spec, rng in zip(streams, rngs)
        ]
        self._events: list[Event] = []
        if len(runtimes) == 1:
            self._run_solo(runtimes[0])
        else:
            self._run_event_kernel(runtimes)
        self.last_events = tuple(self._events)
        return [
            StreamOutcome(
                name=rt.spec.name,
                frames=rt.timings,
                adaptive=(
                    rt.spec.adaptation.stats()
                    if rt.spec.adaptation is not None
                    else None
                ),
                loss=rt.loss.stats() if rt.loss is not None else None,
            )
            for rt in runtimes
        ]

    def loss_runtime(self, spec: StreamSpec) -> LossRuntime | None:
        """A fresh loss state machine for one stream, ``None`` if lossless."""
        if self.link.loss is None:
            return None
        return LossRuntime(self.link.loss, self.recovery, spec.interval_s, self.link.rtt_s)

    # -- shared helpers -------------------------------------------------

    def _wire_bits(self, payload: int) -> float:
        """Bits the link carries for a payload (FEC-inflated when lossy)."""
        if self.recovery is None:
            return payload
        return self.recovery.wire_bits(payload, self.link.loss.packet_bits)

    def _choose_payload(
        self, spec: StreamSpec, frame_index: int, time_s: float
    ) -> tuple[int, str]:
        """Ask the stream's controller (if any) for this frame's rung.

        Returns the payload bits and the rung name ("" when pinned);
        raises ``ValueError`` if the controller picks a rung the
        stream's source does not hold.
        """
        bits = spec.source.rung_bits(frame_index)
        state = spec.adaptation
        if state is None:
            return bits[0], ""
        chosen = state.choose(frame_index, time_s, bits, self.link.at(time_s) * 1e6)
        rung_map = (
            spec.rung_map if spec.rung_map is not None else tuple(range(len(bits)))
        )
        if chosen not in rung_map:
            raise ValueError(
                f"stream {spec.name!r}: frame {frame_index} chose rung {chosen} "
                f"({state.ladder[chosen].name}), which its rung_map "
                f"{tuple(rung_map)} does not hold"
            )
        return bits[rung_map.index(chosen)], state.ladder[chosen].name

    def _log(self, time_s: float, kind: str, stream: str, frame_index: int) -> None:
        self._events.append(Event(time_s, kind, stream, frame_index))

    # -- solo path (deterministic timeline) -----------------------------

    def solo_trajectory(self, spec: StreamSpec) -> list[tuple[int, int, str, float, float]]:
        """The draw-free recurrence of a stream alone on the link.

        Each frame queues behind the stream's backlog, serializes its
        wire bits from its send time, and feeds ``spec.adaptation`` (a
        pinned stream rolls its own backlog).  Loss and jitter never
        feed back, so streams with equal specs on one link share the
        trajectory; :meth:`price_trajectory` adds each one's draws.
        Returns one ``(frame_index, payload_bits, rung, queue_wait_s,
        serialization_s)`` row per streamed frame.
        """
        state = spec.adaptation
        interval_s = spec.interval_s
        backlog_s = 0.0  # pinned streams track their own
        rows = []
        for frame_index in range(spec.frames_to_stream):
            time_s = spec.start_s + frame_index * interval_s
            payload, rung_name = self._choose_payload(spec, frame_index, time_s)
            # The payload queues behind the existing backlog before it
            # can start serializing; the wait is part of this frame's
            # latency (transmit time) but not of its airtime
            # (serialization).
            queue_wait_s = state.backlog_s if state is not None else backlog_s
            serialization_s = self.link.serialization_time_s(
                self._wire_bits(payload), start_s=time_s + queue_wait_s
            )
            if state is not None:
                state.record(payload, serialization_s)
            else:
                backlog_s = max(0.0, backlog_s + serialization_s - interval_s)
            rows.append((frame_index, payload, rung_name, queue_wait_s, serialization_s))
        return rows

    def price_trajectory(
        self,
        spec: StreamSpec,
        rows: Sequence[tuple[int, int, str, float, float]],
        rng: np.random.Generator | None,
        loss: LossRuntime | None,
    ) -> list[FrameTiming]:
        """Price :meth:`solo_trajectory` rows with one stream's draws.

        Per frame, ``loss`` (from :meth:`loss_runtime`) draws first,
        then one jitter draw, both from ``rng``: the solo path's fixed
        draw order.  ``rng=None`` prices jitter-free on a lossless link.
        """
        timings = []
        for frame_index, payload, rung_name, queue_wait_s, serialization_s in rows:
            time_s = spec.start_s + frame_index * spec.interval_s
            recovery_s = (
                loss.on_frame(rng, payload, serialization_s, time_s)
                if loss is not None
                else 0.0
            )
            overhead_s = self.link.overhead_time_s(rng)
            timings.append(
                FrameTiming(
                    frame_index=frame_index,
                    payload_bits=payload,
                    encode_time_s=spec.encode_time_s,
                    serialization_time_s=serialization_s,
                    transmit_time_s=queue_wait_s + serialization_s + overhead_s
                    + recovery_s,
                    rung=rung_name,
                )
            )
        return timings

    def _run_solo(self, rt: _StreamRuntime) -> None:
        """A lone stream: its trajectory, its draws, then its event log."""
        spec = rt.spec
        rows = self.solo_trajectory(spec)
        rt.timings = self.price_trajectory(spec, rows, rt.rng, rt.loss)
        for frame_index, _, _, queue_wait_s, serialization_s in rows:
            time_s = spec.start_s + frame_index * spec.interval_s
            send_start_s = time_s + queue_wait_s
            self._log(time_s, FRAME_READY, spec.name, frame_index)
            self._log(send_start_s, TRANSMIT_START, spec.name, frame_index)
            self._log(
                send_start_s + serialization_s, TRANSMIT_DONE, spec.name, frame_index
            )

    # -- the event kernel (fluid contention) ----------------------------

    def _run_event_kernel(self, runtimes: list[_StreamRuntime]) -> None:
        """Event-driven backlog pricing for contending streams.

        The heap holds FRAME_READY and TRANSMIT_START events.  The one
        completion that can land before the next reschedule is kept
        beside it as ``(finish_s, stream_index)``: between reschedules
        every flow drains at a fixed share of the same link, so the
        flow with the least ``remaining_bits / share`` finishes first.

        The in-flight streams' indices, flows and weights sit in three
        aligned lists in ascending stream order, updated when a
        transmission starts or finishes.  So an event drains and prices
        only in-flight flows, and the scheduler still sees the weights
        in stream order: its sum and its tie-break depend on that order.
        """
        heap: list[tuple] = []
        seq = 0

        def push(time_s, kind, stream_index, frame_index=-1):
            nonlocal seq
            heapq.heappush(
                heap, (time_s, _EVENT_ORDER[kind], seq, kind, stream_index, frame_index)
            )
            seq += 1

        for index, rt in enumerate(runtimes):
            interval_s = rt.spec.interval_s
            for frame_index in range(rt.spec.frames_to_stream):
                push(
                    rt.spec.start_s + frame_index * interval_s,
                    FRAME_READY,
                    index,
                    frame_index,
                )

        clock = 0.0
        completion: tuple[float, int] | None = None
        in_flight: list[int] = []
        flows: list[_Flow] = []
        weights: list[float] = []
        if self.link.trace is None:
            rate_lo = rate_hi = self.link.bandwidth_mbps * 1e6
        else:
            rates_mbps = self.link.trace.rates_mbps
            rate_lo, rate_hi = min(rates_mbps) * 1e6, max(rates_mbps) * 1e6

        def advance(now: float) -> None:
            """Drain every in-flight flow at its share up to ``now``."""
            nonlocal clock
            if now <= clock:
                return
            capacity = self.link.capacity_bits(clock, now)
            for flow in flows:
                share = flow.share
                if share > 0.0:
                    remaining = flow.remaining_bits - share * capacity
                    # max(0.0, remaining) without the call: NaN and -0.0
                    # give 0.0 either way.
                    flow.remaining_bits = remaining if remaining > 0.0 else 0.0
            clock = now

        def finish_s(now: float, key: float) -> float:
            """When a flow with ``key`` bits per unit share drains."""
            if key == 0.0:  # drained to round-off
                return now
            return now + self.link.serialization_time_s(key, start_s=now)

        def reschedule(now: float) -> None:
            """Re-divide the link and price the next completion."""
            nonlocal completion
            completion = None
            if not flows:
                return
            # A copy: a scheduler may keep or reorder its input.
            shares = self.scheduler.instantaneous_shares(weights[:])
            keyed = []
            least = math.inf
            for i, flow, share in zip(in_flight, flows, shares):
                flow.share = share
                if share <= 0.0:
                    continue  # re-priced when the active set next changes
                remaining = flow.remaining_bits
                key = 0.0 if remaining <= _DRAIN_EPSILON_BITS else remaining / share
                keyed.append((key, i))
                if key < least:
                    least = key
            if not keyed:
                return
            # Price the least key, then every key within a rounding margin
            # of it.  A key k prices as F(k) = now + serialization_time_s(k),
            # or `now` when drained (k = 0).  Exactly, F grows by at least
            # g / rate_hi when k grows by g bits.  One computed F errs by at
            # most e = 4 ulp(T) / rate_lo + 4 ulp(F), with T <= rate_hi * F
            # the target's cumulative bits: the cumulative bits at `now`,
            # the target sum, the residual and a crossed segment boundary
            # each round within an ulp or two of T; the division, the
            # interpolation, `finish - now` and `now + ...` within half an
            # ulp of F each.  Evaluating e at twice the least finish and
            # allowing it to double for keys further out, a key more than
            # 4 e rate_hi above the least finishes strictly later, given
            # rates within 10^7 of each other and segments longer than the
            # rounding.  So only keys within the margin can tie or beat the
            # least; ties go to the lower stream index, the order in which
            # same-time completions used to leave the event heap.
            first = finish_s(now, least)
            scale = 2.0 * abs(first)
            margin = 16.0 * rate_hi * (
                math.ulp(rate_hi * scale) / rate_lo + math.ulp(scale)
            )
            bound = least + margin
            priced = {least: first}
            for key, i in keyed:
                if key > bound:
                    continue
                finish = priced.get(key)
                if finish is None:
                    finish = priced[key] = finish_s(now, key)
                if completion is None or (finish, i) < completion:
                    completion = (finish, i)

        while heap or completion is not None:
            if completion is not None and (not heap or completion[0] <= heap[0][0]):
                # Completions sort first among same-time events.
                time_s, index = completion
                kind = TRANSMIT_DONE
            else:
                time_s, _, _, kind, index, frame_index = heapq.heappop(heap)
            rt = runtimes[index]
            spec = rt.spec
            if kind == FRAME_READY:
                self._log(time_s, FRAME_READY, spec.name, frame_index)
                payload, rung_name = self._choose_payload(spec, frame_index, time_s)
                wire = self._wire_bits(payload)
                rt.queue.append((frame_index, payload, wire, rung_name, time_s))
                if rt.flow is None and not rt.pending_start:
                    rt.pending_start = True
                    push(time_s, TRANSMIT_START, index)
            elif kind == TRANSMIT_START:
                rt.pending_start = False
                frame_index, payload, wire, rung_name, nominal_s = rt.queue.popleft()
                self._log(time_s, TRANSMIT_START, spec.name, frame_index)
                advance(time_s)
                rt.flow = _Flow(frame_index, payload, wire, rung_name, nominal_s, time_s)
                slot = bisect_left(in_flight, index)
                in_flight.insert(slot, index)
                flows.insert(slot, rt.flow)
                weights.insert(slot, spec.weight)
                reschedule(time_s)
            else:  # TRANSMIT_DONE
                flow = rt.flow
                self._log(time_s, TRANSMIT_DONE, spec.name, flow.frame_index)
                advance(time_s)
                serialization = time_s - flow.send_start_s
                queue_wait_s = flow.send_start_s - flow.nominal_s
                recovery_s = (
                    rt.loss.on_frame(
                        rt.rng, flow.payload_bits, serialization, flow.nominal_s
                    )
                    if rt.loss is not None
                    else 0.0
                )
                overhead = self.link.overhead_time_s(rt.rng)
                if spec.adaptation is not None:
                    spec.adaptation.record(flow.payload_bits, serialization)
                rt.timings.append(
                    FrameTiming(
                        frame_index=flow.frame_index,
                        payload_bits=flow.payload_bits,
                        encode_time_s=spec.encode_time_s,
                        serialization_time_s=serialization,
                        transmit_time_s=queue_wait_s + serialization + overhead
                        + recovery_s,
                        rung=flow.rung_name,
                    )
                )
                rt.flow = None
                slot = bisect_left(in_flight, index)
                del in_flight[slot], flows[slot], weights[slot]
                if rt.queue and not rt.pending_start:
                    rt.pending_start = True
                    push(time_s, TRANSMIT_START, index)
                reschedule(time_s)
        for rt in runtimes:
            rt.timings.sort(key=lambda timing: timing.frame_index)
