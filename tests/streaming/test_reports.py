"""Report serialization tests: every report type through one registry.

The contract: any simulator or serving report can be written with
``to_json`` and rebuilt — *equal*, not just similar — with the
matching ``from_json``, and the registry's type tags dispatch without
the caller knowing which report a file holds.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.scenes.library import get_scene
from repro.serving.client import LoadgenClientReport, LoadgenReport
from repro.serving.server import ServedClientReport, ServerReport
from repro.streaming.adaptive import AdaptiveSessionReport, simulate_adaptive_session
from repro.streaming.fleet import ClientConfig, ClientReport, FleetReport, simulate_fleet
from repro.streaming.link import WirelessLink
from repro.streaming.reports import (
    REPORT_FORMAT_VERSION,
    _REPORT_TYPES,
    report_from_dict,
    report_from_json,
    report_to_dict,
    report_to_json,
)
from repro.streaming.session import SessionReport, simulate_session
from repro.streaming.traces import BandwidthTrace
from repro.streaming.cohort import CohortFleetReport, CohortSummary
from repro.streaming.engine import AdaptiveStats, FrameTiming
from repro.streaming.loss import LossStats, LossTrace
from repro.streaming.sketch import QuantileSketch

LINK = WirelessLink(bandwidth_mbps=200.0, propagation_ms=2.0)


@pytest.fixture(scope="module")
def session_report():
    return simulate_session(
        get_scene("office"), LINK, encoder="bd", n_frames=3, height=32, width=32
    )


@pytest.fixture(scope="module")
def adaptive_report():
    trace = BandwidthTrace([0.0, 0.1], [40.0, 4.0])
    return simulate_adaptive_session(
        get_scene("office"),
        WirelessLink.traced(trace),
        controller="throughput",
        n_frames=6,
        target_fps=30.0,
        rung_streams=[(100_000, 50_000, 20_000, 10_000, 5_000)],
    )


@pytest.fixture(scope="module")
def fleet_report():
    clients = [
        ClientConfig(name="a", scene="office", codec="bd", height=32, width=32),
        ClientConfig(
            name="b", scene="fortnite", codec="bd", height=32, width=32, stop_s=0.02
        ),
    ]
    return simulate_fleet(clients, LINK, n_frames=3)


class TestRoundTrips:
    def test_session_report(self, session_report):
        rebuilt = SessionReport.from_json(session_report.to_json())
        assert rebuilt == session_report
        assert rebuilt.sustainable_fps == session_report.sustainable_fps

    def test_adaptive_session_report(self, adaptive_report):
        rebuilt = AdaptiveSessionReport.from_json(adaptive_report.to_json())
        assert rebuilt == adaptive_report
        assert rebuilt.adaptive == adaptive_report.adaptive

    def test_fleet_report(self, fleet_report):
        rebuilt = FleetReport.from_json(fleet_report.to_json())
        assert rebuilt == fleet_report
        assert rebuilt.link == fleet_report.link
        assert rebuilt.horizon_s == fleet_report.horizon_s
        assert rebuilt.clients[1].stop_s == 0.02

    def test_traced_link_survives(self):
        trace = BandwidthTrace([0.0, 0.05], [100.0, 10.0])
        clients = [
            ClientConfig(name="a", scene="office", codec="bd", height=32, width=32)
        ]
        report = simulate_fleet(clients, WirelessLink.traced(trace), n_frames=2)
        rebuilt = FleetReport.from_json(report.to_json())
        assert rebuilt == report
        assert rebuilt.link.trace == trace

    def test_registry_dispatch_is_typeless(self, session_report, fleet_report):
        # A reader should not need to know what a file holds.
        for report in (session_report, fleet_report):
            assert report_from_json(report_to_json(report)) == report


class TestEnvelope:
    def test_tag_and_version_are_stamped(self, session_report):
        data = json.loads(session_report.to_json())
        assert data["report"] == "session"
        assert data["version"] == REPORT_FORMAT_VERSION

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown report tag"):
            report_from_dict({"report": "nope", "version": REPORT_FORMAT_VERSION})

    def test_version_mismatch_rejected(self, session_report):
        data = report_to_dict(session_report)
        data["version"] = REPORT_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            report_from_dict(data)

    def test_unregistered_type_rejected(self):
        with pytest.raises(TypeError, match="no serializer"):
            report_to_dict(object())

    def test_wrong_type_from_json_raises(self, session_report):
        with pytest.raises(TypeError, match="decodes to"):
            FleetReport.from_json(session_report.to_json())

    def test_round_priced_fleet_rejected(self, fleet_report):
        data = report_to_dict(fleet_report)
        data["pricing"] = "round"
        with pytest.raises(ValueError, match="round"):
            report_from_dict(data)

    def test_subclass_does_not_masquerade(self, adaptive_report):
        # Exact-type dispatch: an AdaptiveSessionReport must tag as
        # adaptive-session, not fall back to its SessionReport base.
        data = json.loads(adaptive_report.to_json())
        assert data["report"] == "adaptive-session"


# -- optional fields ------------------------------------------------------

FRAMES = [
    FrameTiming(
        frame_index=k, payload_bits=1000 + k, encode_time_s=0.001,
        serialization_time_s=0.002, transmit_time_s=0.004, rung="bd",
    )
    for k in range(2)
]
LOSS = LossStats(policy="arq", frames_lost=2)
STATS = AdaptiveStats(
    controller="throughput", rungs=("bd", "bd"), rung_switches=0,
    time_in_rung={"bd": 0.25}, stall_time_s=0.5, mean_quality=0.75,
)
LOSSY_TRACED = WirelessLink.traced(
    BandwidthTrace([0.0, 0.5], [50.0, 5.0]), jitter_ms=0.2,
    loss=LossTrace.bernoulli(0.1),
)
#: Every field a ClientReport may leave at its default, set.
CLIENT_FIELDS = dict(
    encoder="bd", target_fps=72.0, frames=FRAMES, loss=LOSS, name="c0",
    scene="office", weight=2.0, adaptive=STATS, start_s=0.25, stop_s=1.5,
)


def _served_client():
    return ServedClientReport(
        **CLIENT_FIELDS, deadline_drops=1, queue_drops=2, protocol_errors=3,
        bytes_sent=4, chaos_drops=5, chaos_delays=6, chaos_resets=7,
    )


def _loadgen_client():
    return LoadgenClientReport(
        **CLIENT_FIELDS, protocol_errors=1, bytes_received=2, completed=True,
        reconnects=3, resyncs=4,
    )


def _cohort_fleet():
    summary = CohortSummary(
        name="cell0", scene="office", codec="bd", n_members=9, n_tracers=1,
        weight=2.0, target_fps=72.0, start_s=0.25, stop_s=1.5,
        frames_streamed=2, member_payload_bits=2001, mean_serialization_s=0.002,
        encode_time_s=0.001, member_link=LOSSY_TRACED, adaptive=STATS,
    )
    latency = QuantileSketch()
    latency.add(np.array([0.004, 0.005, 0.009]))
    return CohortFleetReport(
        cohorts=(summary,), tracers=(ClientReport(**CLIENT_FIELDS),),
        link=LOSSY_TRACED, scheduler="priority", seed=3, latency=latency,
        controller="throughput",
    )


#: One report per tag, every defaulted field set to something else.
FULL_REPORTS = {
    "session": lambda: SessionReport(
        encoder="bd", target_fps=72.0, frames=FRAMES, loss=LOSS
    ),
    "adaptive-session": lambda: AdaptiveSessionReport(
        encoder="adaptive:throughput", target_fps=72.0, frames=FRAMES,
        loss=LOSS, adaptive=STATS, ladder=("bd", "raw"),
    ),
    "client": lambda: ClientReport(**CLIENT_FIELDS),
    "fleet": lambda: FleetReport(
        clients=(ClientReport(**CLIENT_FIELDS),), link=LOSSY_TRACED,
        scheduler="priority", n_frames=2, controller="throughput",
    ),
    "cohort-fleet": _cohort_fleet,
    "served-client": _served_client,
    "server": lambda: ServerReport(
        clients=(_served_client(),), ladder=("bd", "raw"), duration_s=2.0,
        scene="office", handshake_errors=1, unclean_closes=2,
    ),
    "loadgen-client": _loadgen_client,
    "loadgen": lambda: LoadgenReport(clients=(_loadgen_client(),), duration_s=2.0),
}


class TestOptionalFields:
    """Readers and writers agree on every field, set or not."""

    def test_every_tag_has_a_full_report(self):
        assert sorted(FULL_REPORTS) == sorted(_REPORT_TYPES)

    @pytest.mark.parametrize("tag", sorted(FULL_REPORTS))
    def test_full_report_sets_every_defaulted_field(self, tag):
        report = FULL_REPORTS[tag]()
        at_default = [
            spec.name
            for spec in dataclasses.fields(report)
            if spec.default is not dataclasses.MISSING
            and getattr(report, spec.name) == spec.default
        ]
        assert at_default == []

    @pytest.mark.parametrize("tag", sorted(FULL_REPORTS))
    def test_full_report_round_trips(self, tag):
        report = FULL_REPORTS[tag]()
        assert json.loads(report.to_json())["report"] == tag
        assert report_from_json(report.to_json()) == report

    def test_zero_chaos_counter_is_omitted(self):
        report = ServedClientReport(
            encoder="serving:fixed", target_fps=72.0, frames=[], chaos_resets=2
        )
        data = report_to_dict(report)
        assert data["chaos_resets"] == 2
        assert "chaos_drops" not in data and "chaos_delays" not in data

    def test_old_form_chaos_counters_load(self):
        # Earlier writers emitted the three chaos counters together, so
        # a zero counter can sit next to a non-zero one.
        report = ServedClientReport(
            encoder="serving:fixed", target_fps=72.0, frames=[], chaos_resets=2
        )
        data = {**report_to_dict(report), "chaos_drops": 0, "chaos_delays": 0}
        assert report_from_dict(data) == report
