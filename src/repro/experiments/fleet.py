"""Fleet contention study: N headsets sharing one wireless link.

The single-link streaming extension (``ext-streaming``) asks which
encoders sustain which refresh rates on a *dedicated* link.  This
experiment asks the deployment question behind the paper's Sec. 2.2
traffic argument: with several headsets behind one access point, how
much of each client's frame rate does contention take away, and how far
does perceptual compression go toward giving it back?

Each client gets its own scene, its own synthetic gaze trace, and a
codec from the configured roster (cycled); all contend for one link
under a fair-share or priority scheduler.  The table reports, per
client, the frame rate it would sustain alone versus inside the fleet,
and the aggregate utilization/tail-latency picture.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from ..codecs.ladder import QualityLadder
from ..codecs.registry import resolve_codec_name
from ..scenes.gaze import saccade_trace
from ..streaming.adaptive import RateController, get_controller
from ..streaming.cohort import CohortFleetReport, CohortSpec, simulate_cohort_fleet
from ..streaming.link import WIFI6_LINK, WirelessLink
from ..streaming.fleet import (
    ClientConfig,
    FleetReport,
    encode_client_streams,
    simulate_fleet,
    solo_sustainable_fps,
)
from ..streaming.session import ENCODER_CHOICES
from .common import ExperimentConfig, format_table

__all__ = [
    "DEFAULT_FLEET_CODECS",
    "FleetResult",
    "CohortFleetResult",
    "streaming_codec_name",
    "build_fleet_clients",
    "build_fleet_cohorts",
    "run",
    "run_fleet",
]

#: Codec roster cycled over clients when the config names none.
DEFAULT_FLEET_CODECS = ("perceptual", "bd", "variable-bd", "raw")


def streaming_codec_name(name: str) -> str:
    """Map a codec-registry name to its streaming-encoder spelling.

    The registry canonicalizes ``raw`` to ``nocom``; sessions speak
    streaming names.  Raises ``ValueError`` for codecs that are not
    per-frame streaming encoders (png, scc, temporal-bd).
    """
    canonical = resolve_codec_name(name)
    streaming = "raw" if canonical == "nocom" else canonical
    if streaming not in ENCODER_CHOICES:
        raise ValueError(
            f"codec {name!r} is not a streaming encoder; "
            f"expected one of {ENCODER_CHOICES}"
        )
    return streaming


@dataclass(frozen=True)
class FleetResult:
    """Per-client solo-vs-fleet frame rates plus fleet aggregates."""

    report: FleetReport
    solo_fps: dict[str, float]  # client name -> uncontended fps

    def table(self) -> str:
        """Per-client solo-vs-fleet table (plus adaptation columns)."""
        adaptive = self.report.is_adaptive
        headers = [
            "client", "scene", "codec", "kB/frame",
            "solo fps", "fleet fps", "target", "ok",
        ]
        if adaptive:
            headers += ["stall ms", "switches", "quality"]
        rows = []
        for client in self.report.clients:
            row = [
                client.name,
                client.scene,
                client.encoder,
                client.mean_payload_bits / 8e3,
                self.solo_fps[client.name],
                client.sustainable_fps,
                f"{client.target_fps:g}",
                "yes" if client.meets_target else "NO",
            ]
            if adaptive:
                stats = client.adaptive
                row += [
                    stats.stall_time_s * 1e3,
                    stats.rung_switches,
                    f"{stats.mean_quality:.3f}",
                ]
            rows.append(row)
        fleet = self.report
        return format_table(headers, rows, precision=1) + (
            f"\n{fleet.summary()}"
            f"\ntotal traffic: {fleet.total_traffic_bits / 8e6:.2f} MB over "
            f"{fleet.n_frames} frames on {fleet.link.bandwidth_mbps:g} Mbps"
        )


@dataclass(frozen=True)
class CohortFleetResult:
    """Per-cohort fleet outcome from the mean-field fast path."""

    report: CohortFleetReport

    def table(self) -> str:
        """Per-cohort table (plus adaptation columns) and fleet footer."""
        adaptive = self.report.is_adaptive
        headers = [
            "cohort", "scene", "codec", "members",
            "kB/frame", "fleet fps", "target", "ok",
        ]
        if adaptive:
            headers += ["stall ms", "switches", "quality"]
        rows = []
        for summary in self.report.cohorts:
            row = [
                summary.name,
                summary.scene,
                summary.codec,
                summary.n_members,
                summary.mean_payload_bits / 8e3,
                summary.sustainable_fps,
                f"{summary.target_fps:g}",
                "yes" if summary.meets_target else "NO",
            ]
            if adaptive:
                stats = summary.adaptive
                row += [
                    stats.stall_time_s * 1e3,
                    stats.rung_switches,
                    f"{stats.mean_quality:.3f}",
                ]
            rows.append(row)
        fleet = self.report
        return format_table(headers, rows, precision=1) + (
            f"\n{fleet.summary()}"
            f"\ntotal traffic: {fleet.total_traffic_bits / 8e6:.2f} MB "
            f"({len(fleet.tracers)} tracer clients) on "
            f"{fleet.link.bandwidth_mbps:g} Mbps"
        )


def build_fleet_clients(
    config: ExperimentConfig,
    n_clients: int,
    codecs: tuple[str, ...],
    target_fps: float = 72.0,
) -> list[ClientConfig]:
    """One client per slot: scenes and codecs cycle, gaze traces differ.

    Every client follows its own saccade trace (seeded from the config
    seed), so fixations — and therefore perceptual payloads — diverge
    the way real independent users' would.
    """
    if n_clients < 1:
        raise ValueError(f"n_clients must be >= 1, got {n_clients}")
    streaming_names = [streaming_codec_name(name) for name in codecs]
    clients = []
    for index in range(n_clients):
        trace = saccade_trace(
            duration_s=max(config.n_frames / target_fps, 0.1),
            rng=np.random.default_rng(config.seed + index),
        )
        clients.append(
            ClientConfig(
                name=f"client{index}",
                scene=config.scene_names[index % len(config.scene_names)],
                codec=streaming_names[index % len(streaming_names)],
                height=config.height,
                width=config.width,
                target_fps=target_fps,
                gaze_trace=tuple(trace),
            )
        )
    return clients


def build_fleet_cohorts(
    config: ExperimentConfig,
    n_clients: int,
    codecs: tuple[str, ...],
    target_fps: float = 72.0,
    *,
    n_jobs: int = 1,
    controller: str | RateController | None = None,
    tracers_per_cohort: int = 1,
) -> list[CohortSpec]:
    """Fold ``n_clients`` into scene x codec equivalence classes.

    :func:`build_fleet_clients` cycles scenes and codecs over client
    indices, so the fleet repeats with period ``lcm(n_scenes,
    n_codecs)`` — every client in a class is statistically identical
    up to its gaze trace.  This builder renders and encodes **one
    representative per class** (the class's lowest client index, with
    that index's gaze seed) and carries the rest as cohort members,
    which is what makes million-client fleets affordable: encode cost
    is O(classes), not O(clients).

    Representatives encode through
    :func:`~repro.streaming.fleet.encode_client_streams`, the rung plan
    :func:`~repro.streaming.fleet.simulate_fleet` uses: each cohort
    starts on the rung matching its codec, and a pinned
    :class:`~repro.streaming.adaptive.FixedController` encodes only the
    pinned rung.
    """
    if n_clients < 1:
        raise ValueError(f"n_clients must be >= 1, got {n_clients}")
    if tracers_per_cohort < 0:
        raise ValueError(
            f"tracers_per_cohort must be >= 0, got {tracers_per_cohort}"
        )
    streaming_names = [streaming_codec_name(name) for name in codecs]
    scenes = config.scene_names
    period = lcm(len(scenes), len(streaming_names))
    n_classes = min(period, n_clients)
    representatives = []
    for r in range(n_classes):
        trace = saccade_trace(
            duration_s=max(config.n_frames / target_fps, 0.1),
            rng=np.random.default_rng(config.seed + r),
        )
        representatives.append(
            ClientConfig(
                name=f"cohort{r:03d}",
                scene=scenes[r % len(scenes)],
                codec=streaming_names[r % len(streaming_names)],
                height=config.height,
                width=config.width,
                target_fps=target_fps,
                gaze_trace=tuple(trace),
            )
        )
    policy = get_controller(controller) if controller is not None else None
    plans = encode_client_streams(
        representatives,
        config.n_frames,
        config.display,
        QualityLadder.default(),
        policy,
        n_jobs,
    )

    cohorts = []
    for r, (rep, (start, rung_map, stream)) in enumerate(zip(representatives, plans)):
        count = (n_clients - r - 1) // period + 1
        cohorts.append(
            CohortSpec(
                name=rep.name,
                scene=rep.scene,
                codec=rep.codec,
                n_members=count,
                payloads=tuple(stream),
                n_frames=config.n_frames,
                target_fps=target_fps,
                encode_time_s=rep.encode_time_s,
                n_tracers=min(tracers_per_cohort, count),
                rung_map=rung_map,
                start_rung=start,
            )
        )
    return cohorts


def run_fleet(
    config: ExperimentConfig | None = None,
    *,
    n_clients: int = 4,
    link: WirelessLink = WIFI6_LINK,
    scheduler: str = "fair",
    n_jobs: int = 1,
    target_fps: float = 72.0,
    lenient_codecs: bool = False,
    controller: str | RateController | None = None,
    recovery: str | None = None,
    cohorts: bool = False,
    tracers_per_cohort: int = 1,
) -> FleetResult | CohortFleetResult:
    """Simulate the fleet and compare solo vs contended frame rates.

    ``config.codec_names`` cycles over the clients.  By default a name
    that cannot stream per-frame (png, scc, temporal-bd) raises.  With
    ``lenient_codecs=True`` such names are dropped and, if none remain,
    the default roster is used — the CLI sets this for multi-experiment
    runs, where a shared ``--codecs`` filter aimed at the sweep
    experiments must not break the fleet leg of an ``all`` run.

    ``controller`` switches the fleet to adaptive rate control: every
    client starts on its cycled codec's rung and re-picks per frame
    from :meth:`~repro.codecs.ladder.QualityLadder.default` (the CLI's
    ``--controller``/``--trace`` flags feed this path).

    ``recovery`` names the loss-recovery policy (``arq``, ``fec``, or
    ``skip``; the CLI's ``--recovery`` flag feeds it) and requires a
    link with a :class:`~repro.streaming.loss.LossTrace` attached —
    ``None`` on a lossy link defaults to ARQ.

    ``cohorts=True`` switches to the mean-field fast path
    (:mod:`repro.streaming.cohort`): clients fold into scene x codec
    equivalence classes via :func:`build_fleet_cohorts` and advance in
    O(classes) work, with ``tracers_per_cohort`` fully-reported tracer
    clients each and one ``n_jobs`` pool task per cohort — the
    mode behind ``repro fleet --clients 1000000 --cohorts``.  Cohort
    mode prices contention by analytic waterfilling and composes with
    ``controller``.
    """
    config = config or ExperimentConfig()
    codecs = tuple(config.codec_names or DEFAULT_FLEET_CODECS)
    if lenient_codecs:
        streamable = []
        for name in codecs:
            try:
                streamable.append(streaming_codec_name(name))
            except (KeyError, ValueError):
                continue
        if not streamable:
            streamable = [streaming_codec_name(n) for n in DEFAULT_FLEET_CODECS]
    else:
        streamable = [streaming_codec_name(name) for name in codecs]
    if cohorts:
        specs = build_fleet_cohorts(
            config,
            n_clients,
            tuple(streamable),
            target_fps,
            n_jobs=n_jobs,
            controller=controller,
            tracers_per_cohort=tracers_per_cohort,
        )
        report = simulate_cohort_fleet(
            specs,
            link,
            scheduler=scheduler,
            seed=config.seed,
            controller=controller,
            recovery=recovery,
            n_jobs=n_jobs,
        )
        return CohortFleetResult(report=report)
    if tracers_per_cohort != 1:
        raise ValueError("tracers_per_cohort requires cohorts=True")
    clients = build_fleet_clients(config, n_clients, tuple(streamable), target_fps)
    report = simulate_fleet(
        clients,
        link,
        scheduler=scheduler,
        n_frames=config.n_frames,
        n_jobs=n_jobs,
        display=config.display,
        seed=config.seed,
        controller=controller,
        recovery=recovery,
    )
    solo = {
        client.name: solo_sustainable_fps(client, link)
        for client in report.clients
    }
    return FleetResult(report=report, solo_fps=solo)


#: CLI-compatible alias (every experiment module exposes ``run``).
run = run_fleet


if __name__ == "__main__":
    print(run_fleet(ExperimentConfig(height=128, width=128)).table())
