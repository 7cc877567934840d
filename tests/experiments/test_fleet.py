"""Tests for the fleet contention experiment."""

import pytest

from repro.experiments.common import ExperimentConfig
from repro.experiments.fleet import (
    DEFAULT_FLEET_CODECS,
    build_fleet_clients,
    run_fleet,
    streaming_codec_name,
)
from repro.streaming.link import WirelessLink

TINY = ExperimentConfig(height=48, width=48, n_frames=1)
LINK = WirelessLink(bandwidth_mbps=150.0, propagation_ms=3.0)


class TestStreamingCodecName:
    def test_maps_raw_aliases(self):
        assert streaming_codec_name("raw") == "raw"
        assert streaming_codec_name("nocom") == "raw"
        assert streaming_codec_name("NoCom") == "raw"

    def test_passes_streaming_names(self):
        assert streaming_codec_name("bd") == "bd"
        assert streaming_codec_name("variable-bd") == "variable-bd"

    def test_rejects_non_streaming_codecs(self):
        with pytest.raises(ValueError, match="not a streaming encoder"):
            streaming_codec_name("png")
        with pytest.raises(KeyError):
            streaming_codec_name("h265")


class TestBuildClients:
    def test_cycles_scenes_and_codecs(self):
        clients = build_fleet_clients(TINY, 8, ("bd", "raw"))
        assert [c.codec for c in clients[:4]] == ["bd", "raw", "bd", "raw"]
        assert clients[6].scene == TINY.scene_names[0]  # 6 scenes wrap

    def test_unique_names_and_gaze_traces(self):
        clients = build_fleet_clients(TINY, 4, DEFAULT_FLEET_CODECS)
        assert len({c.name for c in clients}) == 4
        assert all(c.gaze_trace for c in clients)
        # Distinct per-client seeds: traces must not be identical.
        assert clients[0].gaze_trace != clients[1].gaze_trace

    def test_rejects_zero_clients(self):
        with pytest.raises(ValueError, match="n_clients"):
            build_fleet_clients(TINY, 0, ("bd",))


class TestRunFleet:
    @pytest.fixture(scope="class")
    def result(self):
        config = ExperimentConfig(
            height=48, width=48, n_frames=1, codec_names=("bd", "raw")
        )
        return run_fleet(config, n_clients=3, link=LINK)

    def test_reports_every_client(self, result):
        assert result.report.n_clients == 3
        assert set(result.solo_fps) == {c.name for c in result.report.clients}

    def test_contention_strictly_costs_fps(self, result):
        for client in result.report.clients:
            assert client.sustainable_fps < result.solo_fps[client.name]

    def test_table_reports_fps_and_utilization(self, result):
        table = result.table()
        assert "solo fps" in table and "fleet fps" in table
        assert "utilization" in table
        for client in result.report.clients:
            assert client.name in table

    def test_codec_filter_cycles(self, result):
        assert [c.encoder for c in result.report.clients] == ["bd", "raw", "bd"]

    def test_strict_by_default_on_non_streaming_codecs(self):
        config = ExperimentConfig(
            height=48, width=48, n_frames=1, codec_names=("png",)
        )
        with pytest.raises(ValueError, match="not a streaming encoder"):
            run_fleet(config, n_clients=1, link=LINK)

    def test_lenient_falls_back_to_default_roster(self):
        config = ExperimentConfig(
            height=48, width=48, n_frames=1, codec_names=("png", "bd")
        )
        result = run_fleet(config, n_clients=2, link=LINK, lenient_codecs=True)
        # png dropped; the remaining streamable roster cycles.
        assert [c.encoder for c in result.report.clients] == ["bd", "bd"]
