"""Report serialization tests: every report type through one registry.

The contract: any simulator or serving report can be written with
``to_json`` and rebuilt — *equal*, not just similar — with the
matching ``from_json``, and the registry's type tags dispatch without
the caller knowing which report a file holds.
"""

import json

import pytest

from repro.scenes import get_scene
from repro.streaming import (
    REPORT_FORMAT_VERSION,
    BandwidthTrace,
    ClientConfig,
    FleetReport,
    WirelessLink,
    report_from_json,
    report_to_json,
    simulate_adaptive_session,
    simulate_fleet,
    simulate_session,
)
from repro.streaming.adaptive import AdaptiveSessionReport
from repro.streaming.reports import report_from_dict, report_to_dict
from repro.streaming.session import SessionReport

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
