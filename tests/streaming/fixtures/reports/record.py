"""Record the report fixture corpus: one small payload per report tag.

Run from the repository root::

    PYTHONPATH=src python tests/streaming/fixtures/reports/record.py

Each ``<tag>.v2.json`` is the writer's exact output for a small report
(16x16 frames, at most four per stream); each ``<tag>.v1.json`` is the
same body stamped ``"version": 1`` for every tag that predates the
cohort report.  ``tests/streaming/test_report_fixtures.py`` holds the
committed bytes as the oracle, so re-running this script is only
needed to add a payload, never to refresh one.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.scenes.library import get_scene
from repro.serving.client import LoadgenClientReport, LoadgenReport
from repro.serving.server import ServedClientReport, ServerReport
from repro.streaming.adaptive import simulate_adaptive_session
from repro.streaming.cohort import CohortSpec, simulate_cohort_fleet
from repro.streaming.engine import AdaptiveStats, FrameTiming
from repro.streaming.link import WirelessLink
from repro.streaming.loss import LossTrace
from repro.streaming.reports import report_from_json
from repro.streaming.fleet import ClientConfig, simulate_fleet
from repro.streaming.session import simulate_session
from repro.streaming.traces import BandwidthTrace

HERE = Path(__file__).parent

#: Tags whose payloads existed before format version 2 (which added
#: ``cohort-fleet``); each also gets a version-1 copy.
V1_TAGS = (
    "session", "adaptive-session", "client", "fleet",
    "served-client", "server", "loadgen-client", "loadgen",
)

LOSSY_LINK = WirelessLink(
    bandwidth_mbps=0.6, propagation_ms=3.0, jitter_ms=0.2,
    loss=LossTrace.bernoulli(0.2),
)
TRACE = BandwidthTrace([0.0, 0.03, 0.06], [2.0, 0.25, 1.5])


def frames(n: int, rungs: tuple[str, ...] = ()) -> list[FrameTiming]:
    return [
        FrameTiming(
            frame_index=k,
            payload_bits=20_000 + 1_500 * k,
            encode_time_s=0.0005,
            serialization_time_s=0.004 + 0.001 * k,
            transmit_time_s=0.007 + 0.0025 * k,
            rung=rungs[k] if rungs else "",
        )
        for k in range(n)
    ]


def adaptive_stats(rungs: tuple[str, ...]) -> AdaptiveStats:
    return AdaptiveStats(
        controller="throughput",
        rungs=rungs,
        rung_switches=1,
        time_in_rung={"perceptual": 0.0625, "bd": 0.03125},
        stall_time_s=0.0015,
        mean_quality=0.75,
    )


def served_client(name: str, chaos: bool) -> ServedClientReport:
    rungs = ("perceptual", "perceptual", "bd")
    return ServedClientReport(
        encoder="serving:throughput",
        target_fps=72.0,
        frames=frames(3, rungs),
        name=name,
        scene="office",
        adaptive=adaptive_stats(rungs),
        deadline_drops=1,
        queue_drops=0,
        protocol_errors=0,
        bytes_sent=9_000,
        chaos_drops=2 if chaos else 0,
        chaos_delays=1 if chaos else 0,
        chaos_resets=1 if chaos else 0,
    )


def loadgen_client(name: str, reconnecting: bool) -> LoadgenClientReport:
    return LoadgenClientReport(
        encoder="loadgen",
        target_fps=30.0,
        frames=frames(4),
        name=name,
        scene="office",
        protocol_errors=0,
        bytes_received=12_345,
        completed=True,
        reconnects=2 if reconnecting else 0,
        resyncs=3 if reconnecting else 0,
    )


def build() -> dict:
    session = simulate_session(
        get_scene("office"), LOSSY_LINK, encoder="bd", n_frames=4,
        height=16, width=16, recovery="arq",
    )
    adaptive = simulate_adaptive_session(
        get_scene("office"), WirelessLink.traced(TRACE, propagation_ms=2.0),
        controller="throughput", n_frames=4, target_fps=30.0,
        rung_streams=[(100_000, 50_000, 20_000, 10_000, 5_000)],
    )
    fleet = simulate_fleet(
        [
            ClientConfig(name="a", scene="office", codec="bd", height=16, width=16),
            ClientConfig(
                name="b", scene="fortnite", codec="perceptual", height=16,
                width=16, weight=2.0, start_s=0.01, stop_s=0.04,
            ),
        ],
        WirelessLink.traced(TRACE, jitter_ms=0.3, loss=LossTrace.gilbert_elliott(0.1, 3.0)),
        n_frames=4, seed=7, controller="throughput", recovery="fec",
    )
    cohort = simulate_cohort_fleet(
        [
            CohortSpec(
                name=f"cell{i}", n_members=5 + 3 * i,
                payloads=((60_000 - 8_000 * i,), (45_000,)), n_frames=4,
                target_fps=(72.0, 90.0)[i], start_s=0.005 * i, n_tracers=1,
                scene="office", codec="bd",
            )
            for i in range(2)
        ],
        WirelessLink(bandwidth_mbps=40.0, propagation_ms=3.0, jitter_ms=0.3),
        seed=3,
    )
    server = ServerReport(
        clients=(served_client("conn0", chaos=True), served_client("conn1", chaos=False)),
        ladder=("perceptual", "variable-bd", "bd", "png", "raw"),
        duration_s=1.25,
        scene="office",
        handshake_errors=1,
    )
    loadgen = LoadgenReport(
        clients=(loadgen_client("client0", True), loadgen_client("client1", False)),
        duration_s=1.5,
    )
    return {
        "session": session,
        "adaptive-session": adaptive,
        "client": fleet.clients[1],
        "fleet": fleet,
        "cohort-fleet": cohort,
        "served-client": server.clients[0],
        "server": server,
        "loadgen-client": loadgen.clients[0],
        "loadgen": loadgen,
    }


def main() -> None:
    for tag, report in build().items():
        text = report.to_json()
        data = json.loads(text)
        assert data["report"] == tag, (tag, data["report"])
        assert report_from_json(text).to_json() == text, f"{tag} does not round-trip"
        (HERE / f"{tag}.v2.json").write_text(text + "\n")
        if tag in V1_TAGS:
            data["version"] = 1
            (HERE / f"{tag}.v1.json").write_text(json.dumps(data, indent=2) + "\n")


if __name__ == "__main__":
    main()
