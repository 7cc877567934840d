"""Multi-client streaming engine: N headsets, one shared link.

The single-session simulator answers "what does this encoder buy one
client on a dedicated link".  Real deployments of the paper's system —
the remote-rendering scenario of Sec. 2.2 — put several headsets behind
one access point, so what matters is how encoders behave under
*contention*: per-client frames compete for the same air time, and the
scheduler decides who waits.

This module simulates exactly that, as a thin wrapper over the
discrete-event kernel in :mod:`repro.streaming.engine`:

* each :class:`ClientConfig` carries its own scene, gaze trace,
  resolution, target refresh rate, codec choice, scheduling weight,
  and (optionally staggered) start time;
* encoded payloads contend for one
  :class:`~repro.streaming.link.WirelessLink` under a
  :class:`~repro.streaming.engine.LinkScheduler` — weighted fair share
  in the fluid (GPS) limit, or strict priority.  Every client runs on
  its own display clock and queues its payloads behind its own
  transmit backlog (so mixed refresh rates and late joiners need no
  fastest-client hack);
* per-client :class:`ClientReport`\\ s (a
  :class:`~repro.streaming.session.SessionReport` each, so the
  encode-vs-serialization fps bound applies unchanged) roll up into a
  :class:`FleetReport` with tail latency, clients meeting target, and
  aggregate link utilization.

Clients of one scene and resolution share their render+encode work
(each frame is rendered once for the group), so with ``n_jobs > 1`` it
fans out over a process pool, one task per (scene, resolution) group —
frames within a group stay serial and ordered, which is what stateful
codecs require.

Two orthogonal extensions ride on the same kernel:

* a **time-varying link** — attach a
  :class:`~repro.streaming.traces.BandwidthTrace` and transmissions
  drain through whatever rates the trace holds while they are on the
  air;
* **adaptive rate control** — pass ``controller=`` and each client
  independently re-picks its codec rung per frame from a
  :class:`~repro.codecs.ladder.QualityLadder`, reporting rung
  switches, time-in-rung, stall time, and delivered quality via
  :class:`~repro.streaming.engine.AdaptiveStats`.  The ``fixed``
  controller reproduces the non-adaptive engine bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..codecs.ladder import QualityLadder, encode_scene_streams
from ..parallel import run_tasks
from ..scenes.display import QUEST2_DISPLAY, DisplayGeometry
from ..scenes.gaze import GazeSample
from ..scenes.library import get_scene
from .adaptive import FixedController, RateController, get_controller
from .engine import (
    AdaptationState,
    AdaptiveStats,
    LinkScheduler,
    PrecomputedSource,
    StreamingEngine,
    StreamSpec,
    frames_within_window,
    modeled_encode_time_s,
)
from .link import WIFI6_LINK, WirelessLink
from .reports import Report
from .session import ENCODER_CHOICES, SessionReport
from .validation import validate_finite, validate_stream_timing, validate_stream_window

__all__ = [
    "ClientConfig",
    "ClientReport",
    "ClientRollup",
    "FleetReport",
    "solo_sustainable_fps",
    "encode_client_streams",
    "simulate_fleet",
]


@dataclass(frozen=True)
class ClientConfig:
    """One headset client in a fleet.

    Attributes
    ----------
    name:
        Unique client label (report lookup key).
    scene:
        Scene name from :mod:`repro.scenes.library`.
    codec:
        Streaming encoder name (one of
        :data:`~repro.streaming.session.ENCODER_CHOICES`).  Under
        adaptive rate control this is the client's *starting* rung.
    height, width:
        Per-eye render resolution.
    target_fps:
        Refresh rate this client must sustain.
    weight:
        Scheduling weight: capacity share under fair share, rank under
        strict priority (higher goes first).
    fixation:
        Static gaze point in normalized coordinates, used when no gaze
        trace is given.
    gaze_trace:
        Optional :class:`~repro.scenes.gaze.GazeSample` sequence (time
        ascending), timed from the client's join at ``start_s``: frame
        ``k`` uses the most recent sample at or before
        ``k / target_fps``, as a zero-latency tracker would report it.
    encode_throughput_mpixels_s:
        Server-side encoder rate for this client's stream.
    start_s:
        Session time this client joins the fleet (a late joiner's
        first frame is ready at ``start_s``).
    stop_s:
        Session time this client leaves the fleet, or ``None`` to
        stream all ``n_frames``.  Frames whose ready time falls at or
        after ``stop_s`` are never streamed, and
        :attr:`FleetReport.link_utilization` weighs the client's demand
        by the fraction of the fleet horizon it was actually present.
    """

    name: str
    scene: str = "office"
    codec: str = "perceptual"
    height: int = 192
    width: int = 192
    target_fps: float = 72.0
    weight: float = 1.0
    fixation: tuple[float, float] = (0.5, 0.5)
    gaze_trace: tuple[GazeSample, ...] | None = None
    encode_throughput_mpixels_s: float = 500.0
    start_s: float = 0.0
    stop_s: float | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("client name must be non-empty")
        if self.codec not in ENCODER_CHOICES:
            raise ValueError(
                f"client {self.name!r}: unknown codec {self.codec!r}; "
                f"expected one of {ENCODER_CHOICES}"
            )
        if self.height < 8 or self.width < 8:
            raise ValueError(
                f"client {self.name!r}: frames must be at least 8x8, "
                f"got {self.height}x{self.width}"
            )
        if self.target_fps <= 0:
            raise ValueError(f"client {self.name!r}: target_fps must be positive")
        validate_finite(self.target_fps, "target_fps", self.name)
        if self.weight <= 0:
            raise ValueError(f"client {self.name!r}: weight must be positive")
        validate_finite(self.weight, "weight", self.name)
        if self.encode_throughput_mpixels_s <= 0:
            raise ValueError(
                f"client {self.name!r}: encode_throughput_mpixels_s must be positive"
            )
        validate_finite(
            self.encode_throughput_mpixels_s, "encode_throughput_mpixels_s", self.name
        )
        validate_stream_window(self.start_s, self.stop_s, name=self.name)
        fx, fy = self.fixation
        if not (0.0 <= fx <= 1.0 and 0.0 <= fy <= 1.0):
            raise ValueError(
                f"client {self.name!r}: fixation must be within [0, 1]^2, "
                f"got {self.fixation}"
            )
        if self.gaze_trace is not None:
            trace = tuple(self.gaze_trace)
            times = [s.time_s for s in trace]
            if times != sorted(times):
                raise ValueError(
                    f"client {self.name!r}: gaze trace must be time-ascending"
                )
            object.__setattr__(self, "gaze_trace", trace)

    @property
    def encode_time_s(self) -> float:
        """Server-side encode time for one stereo frame."""
        return modeled_encode_time_s(
            self.height, self.width, self.encode_throughput_mpixels_s
        )

    def fixation_at(self, time_s: float) -> tuple[float, float]:
        """Gaze point in effect at a time since the client joined.

        Parameters
        ----------
        time_s:
            Seconds since the client's ``start_s``; the gaze trace is
            timed from the join, not from session start.

        Returns
        -------
        tuple of float
            Normalized ``(x, y)`` fixation: the latest gaze-trace
            sample at or before ``time_s``, clamped into the frame, or
            the static ``fixation`` without a trace.
        """
        if not self.gaze_trace:
            return self.fixation
        current = None
        for sample in self.gaze_trace:
            if sample.time_s > time_s:
                break
            current = sample
        if current is None:
            return self.fixation
        clamped = current.clamped()
        return (clamped.x, clamped.y)


@dataclass(frozen=True)
class ClientReport(SessionReport):
    """One client's session outcome inside a fleet.

    Identical to a :class:`~repro.streaming.session.SessionReport` —
    including the encode-vs-serialization sustainable-fps bound — with
    the frame serialization times reflecting *contended* drain times
    under the fleet's scheduler.  Adaptive fleets additionally attach
    the client's :class:`~repro.streaming.engine.AdaptiveStats`.
    """

    name: str = ""
    scene: str = ""
    weight: float = 1.0
    adaptive: AdaptiveStats | None = None
    start_s: float = 0.0
    stop_s: float | None = None

    @property
    def active_time_s(self) -> float:
        """Display time this client actually streamed for.

        The number of frames it produced (after any ``stop_s``
        departure) times its own frame interval — the client's
        presence, as opposed to the fleet's whole horizon.
        """
        return len(self.frames) / self.target_fps


class ClientRollup(Report):
    """Fleet roll-ups over one :class:`ClientReport` per client.

    The base of :class:`FleetReport` and of the served
    :class:`~repro.serving.server.ServerReport` and
    :class:`~repro.serving.client.LoadgenReport`, so the simulated and
    served reports answer these from the same frame rows the same way.
    It declares no field: a subclass supplies ``clients``, and its JSON
    is its own fields alone.
    """

    @property
    def n_clients(self) -> int:
        """Number of clients reported."""
        return len(self.clients)

    @property
    def total_stall_time_s(self) -> float:
        """Summed stall time across adaptive clients (0 when pinned)."""
        return float(
            sum(r.adaptive.stall_time_s for r in self.clients if r.adaptive is not None)
        )

    def tail_latency_s(self, percentile: float = 95.0) -> float:
        """Exact motion-to-photon latency percentile over every frame.

        ``numpy.percentile`` over every client's frame rows; 0.0 when no
        client has a frame.

        Parameters
        ----------
        percentile:
            Percentile in ``(0, 100]``.
        """
        if not 0 < percentile <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {percentile}")
        latencies = [f.motion_to_photon_s for r in self.clients for f in r.frames]
        if not latencies:
            return 0.0
        return float(np.percentile(latencies, percentile))


# Backlog queueing is the only transport pricing; the constant key keeps
# payloads byte-identical to earlier writers, and the reader rejects
# reports priced any other way.
@dataclass(frozen=True)
class FleetReport(ClientRollup, constants={"pricing": "backlog"}):
    """Aggregate outcome of a multi-client streaming simulation."""

    clients: tuple[ClientReport, ...]
    link: WirelessLink
    scheduler: str
    n_frames: int
    controller: str | None = None

    @property
    def is_adaptive(self) -> bool:
        """Whether the fleet ran under a rate controller."""
        return self.controller is not None

    def client(self, name: str) -> ClientReport:
        """Look up one client's report by name.

        Raises
        ------
        KeyError
            If no client carries ``name``.
        """
        for report in self.clients:
            if report.name == name:
                return report
        raise KeyError(
            f"no client {name!r}; have {[r.name for r in self.clients]}"
        )

    @property
    def clients_meeting_target(self) -> int:
        """How many clients sustain their target refresh rate."""
        return sum(report.meets_target for report in self.clients)

    @property
    def total_traffic_bits(self) -> int:
        """Total bits transmitted across every client and frame."""
        return int(
            sum(frame.payload_bits for report in self.clients for frame in report.frames)
        )

    @property
    def mean_latency_s(self) -> float:
        """Mean motion-to-photon contribution across all frames."""
        return float(
            np.mean([f.motion_to_photon_s for r in self.clients for f in r.frames])
        )

    @property
    def horizon_s(self) -> float:
        """Fleet horizon: when the last client's last frame was ready.

        The latest ``start_s`` plus presence time
        (:attr:`ClientReport.active_time_s`) over the fleet — the
        duration demand is averaged over in :attr:`link_utilization`.
        """
        return max(r.start_s + r.active_time_s for r in self.clients)

    @property
    def link_utilization(self) -> float:
        """Offered load at target rates relative to link capacity.

        Each client demands ``mean payload x target fps`` bits per
        second *while present*; joins (``start_s``) and departures
        (``stop_s``) weigh that demand by the fraction of the fleet
        horizon the client actually streamed for.  The sum over
        clients, divided by the link bandwidth, is the fraction of
        capacity the fleet asks for — an always-on fleet reduces to the
        plain ``mean payload x target fps`` demand.  Values above 1
        mean the link is oversubscribed — some clients necessarily miss
        their targets.  (Traced links use their nominal mean rate.)
        An empty fleet — no client delivered a single frame — offered
        no load, so the utilization is 0.
        """
        horizon = self.horizon_s
        if horizon <= 0:
            return 0.0
        demand = sum(
            report.mean_payload_bits
            * report.target_fps
            * (presence / horizon)
            for report in self.clients
            if (presence := report.active_time_s) > 0
        )
        return demand / (self.link.bandwidth_mbps * 1e6)

    @property
    def is_lossy(self) -> bool:
        """Whether the fleet ran over a lossy link."""
        return any(r.loss is not None for r in self.clients)

    @property
    def total_resyncs(self) -> int:
        """Summed forced I-frame resyncs across lossy clients."""
        return int(sum(r.loss.resyncs for r in self.clients if r.loss is not None))

    @property
    def mean_recovery_latency_s(self) -> float:
        """Mean loss-to-resync latency across the fleet's resyncs."""
        stats = [r.loss for r in self.clients if r.loss is not None]
        resyncs = sum(s.resyncs for s in stats)
        if not resyncs:
            return 0.0
        return sum(s.recovery_time_s for s in stats) / resyncs

    @property
    def mean_delivered_quality(self) -> float | None:
        """Mean fraction of frames decoded and displayed, or ``None``.

        ``None`` on lossless links (where every frame is displayed by
        construction and the column would be noise).
        """
        values = [
            r.loss.delivered_quality for r in self.clients if r.loss is not None
        ]
        return float(np.mean(values)) if values else None

    @property
    def total_rung_switches(self) -> int:
        """Summed rung switches across adaptive clients."""
        return int(
            sum(r.adaptive.rung_switches for r in self.clients if r.adaptive is not None)
        )

    @property
    def mean_quality(self) -> float | None:
        """Mean delivered quality across adaptive clients (else ``None``)."""
        qualities = [
            r.adaptive.mean_quality for r in self.clients if r.adaptive is not None
        ]
        return float(np.mean(qualities)) if qualities else None

    def summary(self) -> str:
        """One-line fleet health readout."""
        text = (
            f"{self.clients_meeting_target}/{self.n_clients} clients meet target | "
            f"link utilization {self.link_utilization:.2f} | "
            f"p95 latency {self.tail_latency_s(95.0) * 1e3:.2f} ms | "
            f"scheduler {self.scheduler}"
        )
        if self.is_adaptive:
            text += (
                f" | controller {self.controller}"
                f" | stall {self.total_stall_time_s * 1e3:.1f} ms"
            )
            quality = self.mean_quality
            if quality is not None:
                text += f" | quality {quality:.3f}"
        if self.is_lossy:
            delivered = self.mean_delivered_quality
            text += (
                f" | resyncs {self.total_resyncs}"
                f" | delivered {delivered:.3f}"
                f" | recovery {self.mean_recovery_latency_s * 1e3:.1f} ms"
            )
        return text


def solo_sustainable_fps(report: ClientReport, link: WirelessLink) -> float:
    """Frame rate this client would sustain with the link to itself.

    Uses the same payloads and encode times the fleet produced, with
    uncontended serialization — the single-client equivalent the
    contention studies compare against.  Traced links are priced at
    their nominal (time-averaged) rate, matching the demand basis of
    :attr:`FleetReport.link_utilization`; pricing at trace time zero
    would credit the solo baseline with whatever phase the trace
    happens to start in.

    Parameters
    ----------
    report:
        The client's in-fleet report.
    link:
        The link the fleet shared.
    """
    solo_serialization = report.mean_payload_bits / (link.bandwidth_mbps * 1e6)
    bottleneck = max(solo_serialization, report.mean_encode_time_s)
    return 1.0 / bottleneck if bottleneck > 0 else float("inf")


def encode_client_streams(
    clients: Sequence[ClientConfig],
    n_frames: int,
    display: DisplayGeometry,
    ladder: QualityLadder,
    policy: RateController | None = None,
    n_jobs: int = 1,
) -> list[tuple[int, tuple[int, ...], list[tuple[int, ...]]]]:
    """Plan which rungs each client encodes, then encode its stream.

    The one rung plan behind both fleet builders (this module's
    :func:`simulate_fleet` and the cohort builder of
    :mod:`repro.experiments.fleet`).  Every client starts on the rung
    matching its configured codec.  A client that only ever transmits
    one rung — every client without a ``policy``, and every client
    under a :class:`~repro.streaming.adaptive.FixedController`, which
    may pin another rung — encodes just that rung; any other policy
    encodes the whole ladder.

    Clients of one (scene, resolution) group encode together through
    :func:`~repro.codecs.ladder.encode_scene_streams`: each frame is
    rendered once per group, each gaze-free rung encoded once per frame
    and each gaze-contingent rung once per (frame, fixation), while
    stateful rungs stay per client.  With ``n_jobs > 1`` the groups fan
    out as one process-pool task each; results are bit-identical for
    any ``n_jobs``.  A departing client encodes only the frames the
    engine will stream
    (:func:`~repro.streaming.engine.frames_within_window`).

    Returns
    -------
    list of tuple
        Per client: its start rung, the ladder indices its stream holds
        (in stream order), and the stream (one tuple of payload bits per
        frame).

    Raises
    ------
    ValueError
        If ``n_jobs`` is not a positive integer, or a fixed controller
        pins a rung outside ``ladder``.
    """
    starts = [ladder.index_of(client.codec) for client in clients]
    if policy is None or isinstance(policy, FixedController):
        pinned = policy.pinned_index(ladder) if policy is not None else None
        if pinned is not None:
            starts = [pinned] * len(clients)
        rung_maps = [(start,) for start in starts]
    else:
        rung_maps = [tuple(range(len(ladder)))] * len(clients)
    specs = []
    for client, rung_map in zip(clients, rung_maps):
        count = frames_within_window(
            n_frames, client.target_fps, client.start_s, client.stop_s
        )
        fixations = [client.fixation_at(k / client.target_fps) for k in range(count)]
        specs.append(([ladder.build_codec(rung) for rung in rung_map], count, fixations))
    groups: dict[tuple[str, int, int], list[int]] = {}
    for index, client in enumerate(clients):
        groups.setdefault((client.scene, client.height, client.width), []).append(index)
    tasks = [
        (get_scene(scene), [specs[index] for index in members], height, width, display)
        for (scene, height, width), members in groups.items()
    ]
    results = run_tasks(encode_scene_streams, tasks, n_jobs)
    order = [index for members in groups.values() for index in members]
    encoded = dict(zip(order, (stream for result in results for stream in result)))
    streams = [encoded[index] for index in range(len(clients))]
    return list(zip(starts, rung_maps, streams))


def simulate_fleet(
    clients: Sequence[ClientConfig],
    link: WirelessLink = WIFI6_LINK,
    *,
    scheduler: str | LinkScheduler = "fair",
    n_frames: int = 4,
    n_jobs: int = 1,
    display: DisplayGeometry = QUEST2_DISPLAY,
    seed: int = 0,
    controller: str | RateController | None = None,
    recovery=None,
) -> FleetReport:
    """Stream ``n_frames`` stereo frames per client over one shared link.

    Each client renders and encodes its own stream (scene, gaze,
    resolution, codec) and all payloads contend for the link under
    ``scheduler``, dispatched through the
    :class:`~repro.streaming.engine.StreamingEngine`: every client has
    its own display clock — frames arrive at ``start_s + k /
    target_fps`` and queue behind the client's own transmit backlog —
    and cross-client contention resolves event by event in the
    scheduler's fluid limit.  ``n_jobs``
    parallelizes the render+encode work across (scene, resolution)
    groups of clients; results are bit-identical for any value.

    Parameters
    ----------
    clients:
        The fleet; names must be unique.
    link:
        The shared wireless link; attach a
        :class:`~repro.streaming.traces.BandwidthTrace` for a fading
        channel.
    scheduler:
        Link scheduling discipline (name or instance).
    n_frames:
        Frames streamed per client.
    n_jobs:
        Process-pool width for encoding, one task per (scene,
        resolution) group.
    display:
        Headset geometry shared by all clients.
    seed:
        Master seed.  Per-client jitter RNGs are spawned from
        ``numpy.random.SeedSequence(seed)`` in client order, so adding
        a client never perturbs the other clients' jitter draws.
    controller:
        Optional rate-control policy (name or
        :class:`~repro.streaming.adaptive.RateController`).  When set,
        every client starts on the rung matching its configured codec
        and independently re-picks a rung of
        :meth:`~repro.codecs.ladder.QualityLadder.default` each frame;
        the ``fixed`` controller reproduces the non-adaptive engine bit
        for bit.
    recovery:
        Loss recovery policy (name from
        :data:`~repro.streaming.loss.RECOVERY_CHOICES` or a
        :class:`~repro.streaming.loss.RecoveryPolicy`); only valid
        when ``link`` carries a loss trace.  Each client then reports
        its :class:`~repro.streaming.loss.LossStats` and the fleet
        aggregates resyncs, recovery latency, and delivered quality.

    Returns
    -------
    FleetReport
        Per-client reports plus fleet aggregates (adaptive runs carry
        per-client :class:`~repro.streaming.engine.AdaptiveStats`).
    """
    clients = tuple(clients)
    if not clients:
        raise ValueError("a fleet needs at least one client")
    names = [client.name for client in clients]
    if len(set(names)) != len(names):
        duplicates = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate client names: {duplicates}")
    validate_stream_timing(n_frames=n_frames)
    engine = StreamingEngine(link, scheduler=scheduler, recovery=recovery)
    policy = get_controller(controller) if controller is not None else None
    ladder = QualityLadder.default()
    plans = encode_client_streams(clients, n_frames, display, ladder, policy, n_jobs)
    specs = [
        StreamSpec(
            name=client.name,
            source=PrecomputedSource(stream),
            n_frames=n_frames,
            target_fps=client.target_fps,
            encode_time_s=client.encode_time_s,
            weight=client.weight,
            start_s=client.start_s,
            stop_s=client.stop_s,
            adaptation=(
                AdaptationState(policy, ladder, start, 1.0 / client.target_fps)
                if policy is not None
                else None
            ),
            rung_map=rung_map,
        )
        for client, (start, rung_map, stream) in zip(clients, plans)
    ]
    outcomes = engine.run(specs, seed=seed)

    reports = tuple(
        ClientReport(
            encoder=client.codec,
            frames=outcome.frames,
            target_fps=client.target_fps,
            loss=outcome.loss,
            name=client.name,
            scene=client.scene,
            weight=client.weight,
            adaptive=outcome.adaptive,
            start_s=client.start_s,
            stop_s=client.stop_s,
        )
        for client, outcome in zip(clients, outcomes)
    )
    return FleetReport(
        clients=reports,
        link=link,
        scheduler=engine.scheduler.name,
        n_frames=n_frames,
        controller=policy.name if policy is not None else None,
    )
