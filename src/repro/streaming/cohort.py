"""Mean-field cohort engine: million-client fleets in O(cohorts) work.

The exact engine (:mod:`repro.streaming.engine`) pushes three heap
events per frame per stream, so a million-client fleet means hundreds
of millions of interpreted Python events — the classic interpreted-
inner-loop bottleneck.  This module replaces that loop with a
**cohort/mean-field fast path** for fleets of statistically identical
clients, proven against the exact engine by *tracer clients*:

* Clients with the same scene, codec/ladder rung, refresh rate,
  scheduling weight, and join/leave window form one
  :class:`CohortSpec`.  A cohort's members share one deterministic
  trajectory; only per-member jitter differs.
* Link contention is resolved **between scheduler-relevant events
  only**: cohort joins/leaves and bandwidth-trace boundaries cut the
  session into segments, and inside each segment a vectorized
  waterfilling pass (weighted max-min for ``fair``, strict order for
  ``priority``) splits capacity among cohorts.  Each cohort's share
  becomes an *effective member link* — constant, or a
  :class:`~repro.streaming.traces.BandwidthTrace` when the share
  changes across segments.
* Per-cohort state (backlog, adaptation rung, goodput EWMA) then
  advances through the exact engine's own solo recurrence,
  :meth:`~repro.streaming.engine.StreamingEngine.solo_trajectory`, on
  the effective member link — O(cohorts x frames) work, independent
  of member count.  Member jitter is drawn as vectorized matrices; on
  jitter-free links all members are bit-identical and aggregate as
  one weighted add per frame.
* The first ``n_tracers`` members of each cohort are **tracers**,
  priced from that trajectory by
  :meth:`~repro.streaming.engine.StreamingEngine.price_trajectory`:
  their :class:`~repro.streaming.fleet.ClientReport` is reproducible
  by running :class:`~repro.streaming.engine.StreamingEngine` on the
  cohort's effective member link with :func:`tracer_seed` — bit for
  bit, loss and jitter included, because the tracer RNG replicates
  the engine's ``SeedSequence.spawn`` construction exactly.  The
  equivalence suite (``tests/streaming/test_cohort_equivalence.py``)
  property-tests this.

Cohorts fan out over :func:`repro.parallel.run_tasks`, one task per
cohort: every per-cohort computation is independent of the pool
(member links are planned globally, RNG streams key on the *global*
cohort index), and results merge in global cohort order — so report
JSON is byte-identical for any job count.

Tail latency rolls up through a mergeable
:class:`~repro.streaming.sketch.QuantileSketch` instead of millions of
retained samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..codecs.ladder import QualityLadder
from ..parallel import run_tasks
from .adaptive import RateController, get_controller
from .engine import (
    AdaptationState,
    AdaptiveStats,
    PrecomputedSource,
    StreamingEngine,
    StreamSpec,
    frames_within_window,
    get_scheduler,
)
from .link import WIFI6_LINK, WirelessLink
from .loss import RecoveryPolicy
from .reports import Report
from .fleet import ClientReport
from .sketch import QuantileSketch
from .traces import BandwidthTrace
from .validation import validate_finite, validate_stream_timing, validate_stream_window

__all__ = [
    "CohortSpec",
    "CohortSummary",
    "CohortFleetReport",
    "tracer_seed",
    "plan_member_links",
    "simulate_cohort_fleet",
]

#: Floor for an effective member link's rate: a fully starved cohort
#: (strict priority under overload) still needs a positive-bandwidth
#: link object; 1e-6 Mbps makes its backlog growth visibly pathological
#: without dividing by zero.
_MIN_MEMBER_RATE_MBPS = 1e-6

#: Member rows drawn per vectorized jitter batch, bounding peak memory
#: at ``chunk x frames`` doubles however large the cohort is.
_JITTER_CHUNK_MEMBERS = 65536


# -- cohort specification -----------------------------------------------


@dataclass(frozen=True)
class CohortSpec:
    """A group of statistically identical clients, advanced as one.

    Attributes
    ----------
    name:
        Unique cohort label.
    n_members:
        How many clients this cohort stands for.
    payloads:
        Per-frame encoded sizes of the shared representative stream:
        one tuple of rung payload bits per frame (best rung first),
        cycled when shorter than ``n_frames`` — the cohort analogue of
        :class:`~repro.streaming.engine.PrecomputedSource`.
    n_frames:
        Frames each member streams.
    target_fps:
        The members' shared display refresh rate.
    weight:
        Per-member scheduling weight; the cohort contends with
        aggregate weight ``weight * n_members``.
    encode_time_s:
        Server-side encode time charged to every frame.
    scene, codec:
        Labels carried into reports (not interpreted here).
    start_s:
        Session time the cohort's members join.
    stop_s:
        Session time they depart, or ``None`` to stream all frames.
    n_tracers:
        Members fully simulated as tracer clients (at most
        ``n_members``); their reports are bit-for-bit reproducible on
        the exact engine via :func:`tracer_seed`.
    rung_map:
        Ladder indices available in ``payloads``, in payload order
        (``None`` = identity) — same contract as
        :attr:`~repro.streaming.engine.StreamSpec.rung_map`.
    start_rung:
        Ladder index in effect before the first frame (adaptive runs).
    """

    name: str
    n_members: int
    payloads: tuple[tuple[int, ...], ...]
    n_frames: int
    target_fps: float = 72.0
    weight: float = 1.0
    encode_time_s: float = 0.0
    scene: str = ""
    codec: str = ""
    start_s: float = 0.0
    stop_s: float | None = None
    n_tracers: int = 1
    rung_map: tuple[int, ...] | None = None
    start_rung: int = 0

    def __post_init__(self):
        if not self.name:
            raise ValueError("cohort name must be non-empty")
        if self.n_members < 1:
            raise ValueError(
                f"cohort {self.name!r}: n_members must be >= 1, got {self.n_members}"
            )
        frames = tuple(
            tuple(int(bits) for bits in frame) for frame in self.payloads
        )
        if not frames:
            raise ValueError(f"cohort {self.name!r}: payloads must hold >= 1 frame")
        widths = {len(frame) for frame in frames}
        if len(widths) != 1:
            raise ValueError(
                f"cohort {self.name!r}: every frame must list the same number "
                f"of rungs, got {sorted(widths)}"
            )
        if any(bits < 0 for frame in frames for bits in frame):
            raise ValueError(f"cohort {self.name!r}: payload bits must be >= 0")
        object.__setattr__(self, "payloads", frames)
        validate_stream_timing(n_frames=self.n_frames, target_fps=self.target_fps)
        if self.weight <= 0:
            raise ValueError(f"cohort {self.name!r}: weight must be positive")
        validate_finite(self.weight, "weight", self.name)
        if self.encode_time_s < 0:
            raise ValueError(
                f"cohort {self.name!r}: encode_time_s must be >= 0, "
                f"got {self.encode_time_s}"
            )
        validate_finite(self.encode_time_s, "encode_time_s", self.name)
        validate_stream_window(self.start_s, self.stop_s, name=self.name)
        if not 0 <= self.n_tracers <= self.n_members:
            raise ValueError(
                f"cohort {self.name!r}: n_tracers must be in [0, n_members], "
                f"got {self.n_tracers}"
            )
        if self.rung_map is not None:
            rung_map = tuple(int(i) for i in self.rung_map)
            if len(rung_map) != len(frames[0]):
                raise ValueError(
                    f"cohort {self.name!r}: rung_map lists {len(rung_map)} rungs "
                    f"but payloads hold {len(frames[0])}"
                )
            object.__setattr__(self, "rung_map", rung_map)

    @property
    def interval_s(self) -> float:
        """The members' frame interval in seconds."""
        return 1.0 / self.target_fps

    @property
    def frames_to_stream(self) -> int:
        """Frames actually produced, after any ``stop_s`` departure."""
        return frames_within_window(
            self.n_frames, self.target_fps, self.start_s, self.stop_s
        )

    @property
    def end_s(self) -> float:
        """When the cohort's last frame is ready plus one interval.

        The cohort occupies the scheduler from ``start_s`` until the
        display-clock end of its final frame interval; this is the
        segment boundary its departure contributes.
        """
        return self.start_s + self.frames_to_stream * self.interval_s

    def pinned_mean_payload_bits(self) -> float:
        """Mean streamed payload at the starting rung, in bits.

        The demand estimate waterfilling charges the cohort with:
        adaptive cohorts may move off the starting rung, but demand
        only shapes *capacity shares*; correctness against the
        effective member link never depends on it.
        """
        width = len(self.payloads[0])
        rung_map = (
            self.rung_map if self.rung_map is not None else tuple(range(width))
        )
        local = (
            rung_map.index(self.start_rung) if self.start_rung in rung_map else 0
        )
        total_bits = sum(
            self.payloads[k % len(self.payloads)][local]
            for k in range(self.frames_to_stream)
        )
        return total_bits / self.frames_to_stream


def tracer_seed(seed: int, cohort_index: int, tracer_index: int) -> int:
    """Engine seed that reproduces one tracer on the exact engine.

    Running ``StreamingEngine(member_link).run([tracer_spec],
    seed=tracer_seed(seed, ci, ti))`` yields the identical
    :class:`~repro.streaming.engine.FrameTiming` rows (loss and jitter
    draws included) as the cohort engine's tracer ``ti`` of cohort ``ci`` —
    the contract the equivalence suite checks.  Seeds are derived
    through ``SeedSequence`` entropy mixing, so they are deterministic,
    well spread, and independent of the process pool.

    Parameters
    ----------
    seed:
        The fleet's master seed (>= 0).
    cohort_index:
        Global index of the cohort in the fleet's cohort order.
    tracer_index:
        Tracer slot within the cohort, ``0 <= tracer_index``.
    """
    if seed < 0 or cohort_index < 0 or tracer_index < 0:
        raise ValueError(
            f"seed components must be >= 0, got "
            f"({seed}, {cohort_index}, {tracer_index})"
        )
    entropy = np.random.SeedSequence([seed, cohort_index, tracer_index])
    return int(entropy.generate_state(1)[0])


# -- capacity planning: segments + waterfilling -------------------------


def _segment_bounds_s(cohorts: Sequence[CohortSpec], link: WirelessLink) -> np.ndarray:
    """Sorted segment boundaries: joins, departures, trace changes.

    These are exactly the scheduler-relevant events — between two
    consecutive boundaries the active set and the link rate are both
    constant, so one waterfilling pass prices the whole segment.
    """
    horizon_s = max(spec.end_s for spec in cohorts)
    bounds = {0.0, horizon_s}
    for spec in cohorts:
        bounds.add(spec.start_s)
        bounds.add(min(spec.end_s, horizon_s))
    if link.trace is not None:
        for time_s in link.trace.times_s:
            if 0.0 < float(time_s) < horizon_s:
                bounds.add(float(time_s))
    return np.asarray(sorted(bounds), dtype=np.float64)


def _fair_fill_bps(
    capacity_bps: float, demands_bps: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, float]:
    """Weighted max-min (progressive filling) capped by demand.

    Returns the allocation and the leftover capacity once every
    cohort's demand is met (both in bits/second).
    """
    alloc = np.zeros_like(demands_bps)
    remaining_bps = float(capacity_bps)
    unsat = demands_bps > 0.0
    while np.any(unsat) and remaining_bps > 0.0:
        share = remaining_bps * weights[unsat] / float(np.sum(weights[unsat]))
        need = demands_bps[unsat] - alloc[unsat]
        grant = np.minimum(share, need)
        alloc[unsat] += grant
        remaining_bps -= float(np.sum(grant))
        satisfied = (demands_bps - alloc) <= 1e-9 * np.maximum(demands_bps, 1.0)
        newly = unsat & satisfied
        if not np.any(newly):
            break  # nobody capped: shares consumed all remaining capacity
        unsat = unsat & ~satisfied
    return alloc, max(0.0, remaining_bps)


def _priority_fill_bps(
    capacity_bps: float,
    demands_bps: np.ndarray,
    member_weights: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Strict priority: heavier cohorts drink first, ties in order."""
    order = sorted(
        range(len(demands_bps)), key=lambda i: (-member_weights[i], i)
    )
    alloc = np.zeros_like(demands_bps)
    remaining_bps = float(capacity_bps)
    for i in order:
        grant = min(float(demands_bps[i]), remaining_bps)
        alloc[i] = grant
        remaining_bps -= grant
    return alloc, max(0.0, remaining_bps)


def plan_member_links(
    cohorts: Sequence[CohortSpec],
    link: WirelessLink,
    scheduler: str = "fair",
) -> list[WirelessLink]:
    """Effective per-member link of every cohort under contention.

    For each segment between scheduler-relevant events the shared
    link's capacity is waterfilled across the cohorts active in it
    (aggregate weight ``weight * n_members``, demand ``members x fps x
    mean payload``; leftover capacity redistributes weight-
    proportionally as burst headroom so an uncongested fleet is not
    artificially throttled to its mean demand).  A cohort's member then
    sees ``allocation / n_members`` bits per second — as a constant
    link when its share never changes, else as a traced link whose
    boundaries are the segment boundaries.

    Propagation and jitter carry over from the shared link unchanged:
    they are per-frame overheads, not contended resources.

    Parameters
    ----------
    cohorts:
        The fleet's cohorts, in global order.
    link:
        The shared (possibly traced) wireless link.
    scheduler:
        ``"fair"`` or ``"priority"`` — the cohort engine waterfills
        analytically, so only the built-in disciplines are supported.

    Returns
    -------
    list of WirelessLink
        One effective member link per cohort, in input order.
    """
    scheduler_name = get_scheduler(scheduler).name
    bounds_s = _segment_bounds_s(cohorts, link)
    n_segments = len(bounds_s) - 1
    n_cohorts = len(cohorts)
    starts_s = np.asarray([spec.start_s for spec in cohorts])
    ends_s = np.asarray([spec.end_s for spec in cohorts])
    members = np.asarray([spec.n_members for spec in cohorts], dtype=np.float64)
    member_weights = np.asarray([spec.weight for spec in cohorts])
    aggregate_weights = member_weights * members
    demands_bps = np.asarray(
        [
            spec.n_members * spec.target_fps * spec.pinned_mean_payload_bits()
            for spec in cohorts
        ]
    )

    member_rates_bps = np.zeros((n_cohorts, max(n_segments, 1)))
    for seg in range(n_segments):
        t0_s = float(bounds_s[seg])
        t1_s = float(bounds_s[seg + 1])
        mid_s = 0.5 * (t0_s + t1_s)
        active = (starts_s <= mid_s) & (mid_s < ends_s)
        if not np.any(active):
            continue
        capacity_bps = link.capacity_bits(t0_s, t1_s) / (t1_s - t0_s)
        if scheduler_name == "fair":
            alloc_bps, leftover_bps = _fair_fill_bps(
                capacity_bps, demands_bps[active], aggregate_weights[active]
            )
        elif scheduler_name == "priority":
            alloc_bps, leftover_bps = _priority_fill_bps(
                capacity_bps, demands_bps[active], member_weights[active]
            )
        else:  # pragma: no cover - get_scheduler already rejected it
            raise ValueError(
                f"cohort mode supports fair/priority, got {scheduler_name!r}"
            )
        if leftover_bps > 0.0:
            weights_active = aggregate_weights[active]
            alloc_bps = alloc_bps + leftover_bps * weights_active / float(
                np.sum(weights_active)
            )
        member_rates_bps[active, seg] = alloc_bps / members[active]

    links: list[WirelessLink] = []
    for ci, spec in enumerate(cohorts):
        rates_mbps = member_rates_bps[ci] / 1e6
        # Segments outside the cohort's presence carry no allocation;
        # extend the nearest active segment's rate so late frames that
        # drain past departure (a backlogged member) still price.
        active_segments = np.flatnonzero(rates_mbps > 0.0)
        if active_segments.size:
            first, last = int(active_segments[0]), int(active_segments[-1])
            rates_mbps[:first] = rates_mbps[first]
            rates_mbps[last + 1:] = rates_mbps[last]
        rates_mbps = np.maximum(rates_mbps, _MIN_MEMBER_RATE_MBPS)
        # Packet loss is per-member, not a contended resource: every
        # effective member link inherits the shared link's loss trace
        # unchanged, so tracers see the same erasure process the exact
        # engine would on that link.
        if np.all(rates_mbps == rates_mbps[0]):
            links.append(
                WirelessLink(
                    bandwidth_mbps=float(rates_mbps[0]),
                    propagation_ms=link.propagation_ms,
                    jitter_ms=link.jitter_ms,
                    loss=link.loss,
                )
            )
            continue
        trace_times_s = [0.0]
        trace_rates = [float(rates_mbps[0])]
        for seg in range(1, n_segments):
            if rates_mbps[seg] != trace_rates[-1]:
                trace_times_s.append(float(bounds_s[seg]))
                trace_rates.append(float(rates_mbps[seg]))
        links.append(
            WirelessLink.traced(
                BandwidthTrace(trace_times_s, trace_rates),
                propagation_ms=link.propagation_ms,
                jitter_ms=link.jitter_ms,
                loss=link.loss,
            )
        )
    return links


# -- per-cohort simulation ----------------------------------------------


@dataclass(frozen=True)
class CohortSummary:
    """Aggregate outcome of one cohort (every member, tracers included).

    Attributes
    ----------
    name, scene, codec:
        Labels from the :class:`CohortSpec`.
    n_members, n_tracers, weight, target_fps, start_s, stop_s:
        Echoed spec fields.
    frames_streamed:
        Frames each member actually produced.
    member_payload_bits:
        Total transmitted bits of *one* member over its stream.
    mean_serialization_s:
        Mean per-frame airtime on the effective member link.
    encode_time_s:
        Per-frame server encode time.
    member_link:
        The effective member link the cohort was priced on — run a
        tracer through the exact engine on this link to reproduce its
        report bit for bit.
    adaptive:
        The members' shared adaptation telemetry (``None`` if pinned).
    """

    name: str
    scene: str
    codec: str
    n_members: int
    n_tracers: int
    weight: float
    target_fps: float
    start_s: float
    stop_s: float | None
    frames_streamed: int
    member_payload_bits: int
    mean_serialization_s: float
    encode_time_s: float
    member_link: WirelessLink
    adaptive: AdaptiveStats | None = None

    @property
    def mean_payload_bits(self) -> float:
        """Mean per-frame transmitted payload of one member."""
        return self.member_payload_bits / self.frames_streamed

    @property
    def sustainable_fps(self) -> float:
        """Frame rate one member sustains on its effective link.

        Same bound as
        :attr:`~repro.streaming.session.SessionReport.sustainable_fps`:
        the reciprocal of the slower of mean serialization and encode.
        """
        bottleneck_s = max(self.mean_serialization_s, self.encode_time_s)
        return 1.0 / bottleneck_s if bottleneck_s > 0 else float("inf")

    @property
    def meets_target(self) -> bool:
        """Whether the members sustain their target refresh rate."""
        return self.sustainable_fps >= self.target_fps

    @property
    def traffic_bits(self) -> int:
        """Bits transmitted by the whole cohort."""
        return self.n_members * self.member_payload_bits


@dataclass(frozen=True)
class _CohortOutcome:
    """One cohort's full result, as returned by a pool task."""

    summary: CohortSummary
    tracers: tuple[ClientReport, ...]
    sketch: QuantileSketch


def _simulate_cohort(
    index: int,
    spec: CohortSpec,
    member_link: WirelessLink,
    policy: RateController | None,
    seed: int,
    n_cohorts: int,
    recovery: RecoveryPolicy | None,
) -> _CohortOutcome:
    """Advance one cohort through the engine's solo path on its member link.

    The members' trajectory is
    :meth:`~repro.streaming.engine.StreamingEngine.solo_trajectory` of
    the cohort's stream on its effective member link, computed once:
    loss and jitter never feed back into backlog or the controller, so
    every member shares it.  On a lossy link it serializes **wire**
    bits (FEC inflation is deterministic).

    Each tracer is that trajectory priced by
    :meth:`~repro.streaming.engine.StreamingEngine.price_trajectory`
    with the RNG a one-stream engine run spawns from its
    :func:`tracer_seed` and its own loss state, which is what makes
    tracer reports bit-for-bit reproducible on the exact engine.  Bulk
    members keep the deterministic trajectory: the mean-field
    approximation prices their airtime and backlog truthfully but
    folds no recovery delay into the latency sketch; tracers carry the
    loss telemetry the fleet reports on.
    """
    engine = StreamingEngine(member_link, recovery=recovery)
    stream = StreamSpec(
        name=spec.name,
        source=PrecomputedSource(spec.payloads),
        n_frames=spec.n_frames,
        target_fps=spec.target_fps,
        encode_time_s=spec.encode_time_s,
        weight=spec.weight,
        start_s=spec.start_s,
        stop_s=spec.stop_s,
        adaptation=(
            AdaptationState(policy, QualityLadder.default(), spec.start_rung, spec.interval_s)
            if policy is not None
            else None
        ),
        rung_map=spec.rung_map,
    )
    frame_rows = engine.solo_trajectory(stream)
    stats = stream.adaptation.stats() if stream.adaptation is not None else None

    tracers: list[ClientReport] = []
    for ti in range(spec.n_tracers):
        rng = np.random.default_rng(
            np.random.SeedSequence(tracer_seed(seed, index, ti)).spawn(1)[0]
        )
        loss = engine.loss_runtime(stream)
        tracers.append(
            ClientReport(
                encoder=spec.codec,
                frames=engine.price_trajectory(stream, frame_rows, rng, loss),
                target_fps=spec.target_fps,
                name=f"{spec.name}/tracer{ti}",
                scene=spec.scene,
                weight=spec.weight,
                adaptive=stats,
                start_s=spec.start_s,
                stop_s=spec.stop_s,
                loss=loss.stats() if loss is not None else None,
            )
        )

    sketch = QuantileSketch()
    if member_link.jitter_ms == 0.0 and member_link.loss is None:
        # Every member is bit-identical: one weighted add per frame.
        frames = engine.price_trajectory(stream, frame_rows, None, None)
        sketch.add(
            np.asarray([timing.motion_to_photon_s for timing in frames]),
            weight=float(spec.n_members),
        )
    else:
        # Tracers carry their own draws; bulk members draw vectorized
        # half-normal jitter matrices from the cohort's spawned stream
        # (keyed on the global cohort index — pool-independent).
        for report in tracers:
            sketch.add(
                np.asarray([timing.motion_to_photon_s for timing in report.frames])
            )
        n_bulk = spec.n_members - spec.n_tracers
        if n_bulk > 0:
            bulk_rng = np.random.default_rng(
                np.random.SeedSequence(seed).spawn(n_cohorts)[index]
            )
            base_transmit_s = np.asarray(
                [
                    queue_wait_s + serialization_s
                    for _, _, _, queue_wait_s, serialization_s in frame_rows
                ]
            )
            propagation_s = member_link.propagation_ms * 1e-3
            drawn = 0
            while drawn < n_bulk:
                rows = min(_JITTER_CHUNK_MEMBERS, n_bulk - drawn)
                jitter_s = (
                    np.abs(
                        bulk_rng.normal(
                            0.0,
                            member_link.jitter_ms,
                            size=(rows, len(base_transmit_s)),
                        )
                    )
                    * 1e-3
                )
                latency_s = spec.encode_time_s + (
                    base_transmit_s[None, :] + (propagation_s + jitter_s)
                )
                sketch.add(latency_s.ravel())
                drawn += rows

    member_payload_bits = int(sum(row[1] for row in frame_rows))
    mean_serialization_s = float(np.mean([row[4] for row in frame_rows]))
    summary = CohortSummary(
        name=spec.name,
        scene=spec.scene,
        codec=spec.codec,
        n_members=spec.n_members,
        n_tracers=spec.n_tracers,
        weight=spec.weight,
        target_fps=spec.target_fps,
        start_s=spec.start_s,
        stop_s=spec.stop_s,
        frames_streamed=spec.frames_to_stream,
        member_payload_bits=member_payload_bits,
        mean_serialization_s=mean_serialization_s,
        encode_time_s=spec.encode_time_s,
        member_link=member_link,
        adaptive=stats,
    )
    return _CohortOutcome(summary=summary, tracers=tuple(tracers), sketch=sketch)


# -- the fleet report ---------------------------------------------------


@dataclass(frozen=True)
class CohortFleetReport(Report):
    """Aggregate outcome of a cohort-mode fleet simulation.

    Mirrors :class:`~repro.streaming.fleet.FleetReport` at fleet
    scale: per-cohort summaries instead of per-client reports, tracer
    :class:`~repro.streaming.fleet.ClientReport` rows for the fully
    simulated members, and a latency
    :class:`~repro.streaming.sketch.QuantileSketch` instead of every
    retained sample.  Deliberately carries no job count —
    the result (and its JSON) is identical for any execution layout.
    """

    cohorts: tuple[CohortSummary, ...]
    tracers: tuple[ClientReport, ...]
    link: WirelessLink
    scheduler: str
    seed: int
    latency: QuantileSketch
    controller: str | None = None

    @property
    def n_cohorts(self) -> int:
        """Number of cohorts simulated."""
        return len(self.cohorts)

    @property
    def n_clients(self) -> int:
        """Total clients the cohorts stand for."""
        return sum(summary.n_members for summary in self.cohorts)

    @property
    def is_adaptive(self) -> bool:
        """Whether the fleet ran under a rate controller."""
        return self.controller is not None

    @property
    def is_lossy(self) -> bool:
        """Whether the fleet ran on a lossy link (tracers carry stats)."""
        return self.link.loss is not None

    @property
    def tracer_resyncs(self) -> int:
        """Total decoder resyncs across the fleet's tracer clients.

        Tracers are the fully simulated members, so this is a sampled
        view of the fleet's resync pressure, not a member-weighted
        total — bulk members advance through the deterministic
        mean-field trajectory and make no loss draws.
        """
        return sum(
            report.loss.resyncs
            for report in self.tracers
            if report.loss is not None
        )

    @property
    def tracer_delivered_quality(self) -> float | None:
        """Mean delivered-frame fraction across tracers (lossy only)."""
        values = [
            report.loss.delivered_quality
            for report in self.tracers
            if report.loss is not None
        ]
        if not values:
            return None
        return float(np.mean(values))

    def cohort(self, name: str) -> CohortSummary:
        """Look up one cohort's summary by name.

        Raises
        ------
        KeyError
            If no cohort carries ``name``.
        """
        for summary in self.cohorts:
            if summary.name == name:
                return summary
        raise KeyError(
            f"no cohort {name!r}; have {[s.name for s in self.cohorts]}"
        )

    def tracer(self, name: str) -> ClientReport:
        """Look up one tracer's report by name (``cohort/tracerN``)."""
        for report in self.tracers:
            if report.name == name:
                return report
        raise KeyError(
            f"no tracer {name!r}; have {[r.name for r in self.tracers]}"
        )

    @property
    def clients_meeting_target(self) -> int:
        """How many clients sustain their target refresh rate."""
        return sum(
            summary.n_members for summary in self.cohorts if summary.meets_target
        )

    @property
    def total_traffic_bits(self) -> int:
        """Total bits transmitted across every member and frame."""
        return int(sum(summary.traffic_bits for summary in self.cohorts))

    @property
    def mean_latency_s(self) -> float:
        """Exact mean motion-to-photon latency across every member frame."""
        return self.latency.mean()

    def tail_latency_s(self, percentile: float = 95.0) -> float:
        """Sketched latency percentile across every member frame.

        Parameters
        ----------
        percentile:
            Percentile in ``(0, 100]``.
        """
        if not 0 < percentile <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {percentile}")
        return self.latency.quantile(percentile / 100.0)

    @property
    def total_stall_time_s(self) -> float:
        """Summed member stall time across adaptive cohorts."""
        return float(
            sum(
                summary.n_members * summary.adaptive.stall_time_s
                for summary in self.cohorts
                if summary.adaptive is not None
            )
        )

    @property
    def mean_quality(self) -> float | None:
        """Member-weighted mean delivered quality (``None`` if pinned)."""
        pairs = [
            (summary.n_members, summary.adaptive.mean_quality)
            for summary in self.cohorts
            if summary.adaptive is not None
        ]
        if not pairs:
            return None
        total = sum(n for n, _ in pairs)
        return float(sum(n * q for n, q in pairs) / total)

    def summary(self) -> str:
        """One-line fleet health readout."""
        text = (
            f"{self.clients_meeting_target}/{self.n_clients} clients meet target "
            f"({self.n_cohorts} cohorts) | "
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
            text += f" | tracer resyncs {self.tracer_resyncs}"
            delivered = self.tracer_delivered_quality
            if delivered is not None:
                text += f" | delivered {delivered:.3f}"
        return text


# -- the public entry point ---------------------------------------------


def simulate_cohort_fleet(
    cohorts: Sequence[CohortSpec],
    link: WirelessLink = WIFI6_LINK,
    *,
    scheduler: str = "fair",
    seed: int = 0,
    controller: str | RateController | None = None,
    recovery: "str | RecoveryPolicy | None" = None,
    n_jobs: int = 1,
) -> CohortFleetReport:
    """Simulate a fleet of cohorts over one shared link.

    Capacity is planned once (:func:`plan_member_links`), then every
    cohort advances independently on its effective member link — one
    :func:`repro.parallel.run_tasks` task per cohort over ``n_jobs``
    processes.  All per-cohort randomness keys on the global cohort
    index, and results merge in global cohort order, so the report
    (and its JSON) is byte-identical for every ``n_jobs`` —
    property-tested in ``tests/cohort/test_sharding.py``.

    Parameters
    ----------
    cohorts:
        The fleet's cohorts; names must be unique.
    link:
        The shared wireless link (trace, propagation, and jitter carry
        into every effective member link).
    scheduler:
        ``"fair"`` or ``"priority"``.
    seed:
        Master seed (>= 0) for tracer and member jitter streams.
    controller:
        Optional rate-control policy (name or instance); every cohort
        then adapts from its ``start_rung`` over
        :meth:`~repro.codecs.ladder.QualityLadder.default`.
    recovery:
        Loss recovery policy (name from
        :data:`~repro.streaming.loss.RECOVERY_CHOICES` or a
        :class:`~repro.streaming.loss.RecoveryPolicy`); only valid
        when ``link`` carries a loss trace.  Tracer clients then draw
        the same loss process the exact engine would on their member
        link and carry :class:`~repro.streaming.loss.LossStats` in
        their reports; bulk members price wire bits deterministically.
    n_jobs:
        Process-pool width; ``1`` runs every cohort in-process.

    Returns
    -------
    CohortFleetReport
        Cohort summaries, tracer reports, and sketched latency.
    """
    cohorts = tuple(cohorts)
    if not cohorts:
        raise ValueError("a cohort fleet needs at least one cohort")
    names = [spec.name for spec in cohorts]
    if len(set(names)) != len(names):
        duplicates = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate cohort names: {duplicates}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    # Resolves the scheduler and recovery policy as an exact run would.
    engine = StreamingEngine(link, scheduler, recovery)

    policy = get_controller(controller) if controller is not None else None
    if policy is not None:
        ladder = QualityLadder.default()
        for spec in cohorts:
            if not 0 <= spec.start_rung < len(ladder):
                raise ValueError(
                    f"cohort {spec.name!r}: start_rung {spec.start_rung} "
                    f"outside ladder of {len(ladder)} rungs"
                )

    member_links = plan_member_links(cohorts, link, engine.scheduler.name)

    n_cohorts = len(cohorts)
    outcomes = run_tasks(
        _simulate_cohort,
        [
            (index, spec, member_link, policy, seed, n_cohorts, engine.recovery)
            for index, (spec, member_link) in enumerate(zip(cohorts, member_links))
        ],
        n_jobs,
    )
    fleet_sketch = QuantileSketch()
    summaries: list[CohortSummary] = []
    tracers: list[ClientReport] = []
    for outcome in outcomes:
        fleet_sketch.merge(outcome.sketch)
        summaries.append(outcome.summary)
        tracers.extend(outcome.tracers)
    return CohortFleetReport(
        cohorts=tuple(summaries),
        tracers=tuple(tracers),
        link=link,
        scheduler=engine.scheduler.name,
        seed=seed,
        latency=fleet_sketch,
        controller=policy.name if policy is not None else None,
    )
