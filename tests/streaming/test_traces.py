"""Tests for bandwidth traces and the time-varying link."""

import numpy as np
import pytest

from repro.streaming.link import WirelessLink
from repro.streaming.traces import BandwidthTrace, parse_trace_spec


class TestConstruction:
    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError, match="equal length"):
            BandwidthTrace([0.0, 1.0], [100.0])
        with pytest.raises(ValueError, match="at least one"):
            BandwidthTrace([], [])
        with pytest.raises(ValueError, match="start at 0.0"):
            BandwidthTrace([1.0], [100.0])
        with pytest.raises(ValueError, match="ascending"):
            BandwidthTrace([0.0, 2.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="positive"):
            BandwidthTrace([0.0, 1.0], [100.0, 0.0])

    def test_constant_trace(self):
        trace = BandwidthTrace.constant(250.0)
        assert trace.n_segments == 1
        assert trace.mean_mbps == 250.0
        assert trace.bandwidth_mbps_at(1e6) == 250.0

    def test_square_alternates(self):
        trace = BandwidthTrace.square(400.0, 100.0, 5.0)
        assert trace.bandwidth_mbps_at(0.0) == 400.0
        assert trace.bandwidth_mbps_at(4.999) == 400.0
        assert trace.bandwidth_mbps_at(5.0) == 100.0
        assert trace.bandwidth_mbps_at(12.0) == 400.0
        assert trace.min_mbps == 100.0

    def test_step_down_switches_once(self):
        trace = BandwidthTrace.step_down(400.0, 50.0, at_s=2.0)
        assert trace.bandwidth_mbps_at(1.9) == 400.0
        assert trace.bandwidth_mbps_at(2.0) == 50.0
        assert trace.bandwidth_mbps_at(1e9) == 50.0

    def test_markov_is_reproducible_and_visits_levels(self):
        a = BandwidthTrace.markov([300.0, 60.0], p_switch=0.5, seed=3)
        b = BandwidthTrace.markov([300.0, 60.0], p_switch=0.5, seed=3)
        times = np.linspace(0.0, 100.0, 500)
        rates_a = [a.bandwidth_mbps_at(t) for t in times]
        assert rates_a == [b.bandwidth_mbps_at(t) for t in times]
        assert set(rates_a) == {300.0, 60.0}

    def test_from_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("# time_s, mbps\n0, 200\n1.5, 80\n\n3, 200\n")
        trace = BandwidthTrace.from_file(path)
        assert trace.n_segments == 3
        assert trace.bandwidth_mbps_at(2.0) == 80.0


class TestCapacityMath:
    def test_capacity_integrates_the_profile(self):
        trace = BandwidthTrace.square(400.0, 100.0, 5.0)
        # One full cycle averages (400 + 100) / 2 Mbps.
        assert trace.capacity_bits(0.0, 10.0) == pytest.approx(250e6 * 10)
        # Within one segment the integral is rate x span.
        assert trace.capacity_bits(1.0, 2.0) == pytest.approx(400e6)
        assert trace.capacity_bits(6.0, 7.0) == pytest.approx(100e6)

    def test_finish_time_inverts_capacity(self):
        trace = BandwidthTrace.square(400.0, 100.0, 5.0)
        for start, bits in [(0.0, 1e6), (4.9, 50e6), (7.0, 123e6), (3.0, 4e9)]:
            finish = trace.finish_time_s(start, bits)
            assert trace.capacity_bits(start, finish) == pytest.approx(bits)

    def test_finish_time_spans_a_boundary(self):
        trace = BandwidthTrace.square(400.0, 100.0, 5.0)
        # From t=4.9: 40 Mbit drain in the 0.1 s of high rate, the
        # remaining 10 Mbit at 100 Mbps take another 0.1 s.
        assert trace.finish_time_s(4.9, 50e6) == pytest.approx(5.1)

    def test_finish_time_beyond_materialized_span_uses_last_rate(self):
        trace = BandwidthTrace.step_down(400.0, 50.0, at_s=2.0)
        start = 10.0
        assert trace.finish_time_s(start, 50e6) == pytest.approx(start + 1.0)

    def test_zero_payload_finishes_immediately(self):
        trace = BandwidthTrace.constant(100.0)
        assert trace.finish_time_s(3.0, 0) == 3.0

    def test_rejects_negative_queries(self):
        trace = BandwidthTrace.constant(100.0)
        with pytest.raises(ValueError, match=">= 0"):
            trace.bandwidth_mbps_at(-1.0)
        with pytest.raises(ValueError, match=">= 0"):
            trace.finish_time_s(0.0, -1)
        with pytest.raises(ValueError, match="precedes"):
            trace.capacity_bits(2.0, 1.0)

    def test_mean_excludes_open_tail(self):
        trace = BandwidthTrace([0.0, 1.0], [300.0, 100.0])
        assert trace.mean_mbps == pytest.approx(300.0)


class TestTracedLink:
    def test_at_matches_trace(self):
        link = WirelessLink.traced(BandwidthTrace.square(400.0, 100.0, 5.0))
        assert link.at(1.0) == 400.0
        assert link.at(6.0) == 100.0
        assert link.bandwidth_mbps == pytest.approx(250.0, rel=0.05)

    def test_constant_link_ignores_time(self):
        link = WirelessLink(bandwidth_mbps=100.0)
        assert link.at(0.0) == link.at(1e6) == 100.0
        assert link.serialization_time_s(1_000_000, start_s=123.0) == pytest.approx(0.01)

    def test_serialization_depends_on_send_time(self):
        link = WirelessLink.traced(BandwidthTrace.square(400.0, 100.0, 5.0))
        fast = link.serialization_time_s(40_000_000, start_s=0.0)
        slow = link.serialization_time_s(40_000_000, start_s=5.0)
        assert fast == pytest.approx(0.1)
        assert slow == pytest.approx(0.4)

    def test_sustainable_fps_tracks_the_fade(self):
        link = WirelessLink.traced(BandwidthTrace.square(400.0, 100.0, 5.0))
        # A 1 Mb payload's airtime sets the frames per second.
        for start_s, fps in ((0.0, 400.0), (6.0, 100.0)):
            airtime_s = link.serialization_time_s(1_000_000, start_s=start_s)
            assert 1.0 / airtime_s == pytest.approx(fps)


class TestParseTraceSpec:
    def test_parses_every_kind(self, tmp_path):
        assert parse_trace_spec("const:250").mean_mbps == 250.0
        step = parse_trace_spec("step:400:100:5")
        assert step.bandwidth_mbps_at(0.0) == 400.0
        assert step.bandwidth_mbps_at(5.0) == 100.0
        markov = parse_trace_spec("markov:300:60:0.5:7")
        assert markov.n_segments > 1
        path = tmp_path / "t.csv"
        path.write_text("0 100\n1 50\n")
        assert parse_trace_spec(f"file:{path}").bandwidth_mbps_at(1.5) == 50.0

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="unknown trace spec"):
            parse_trace_spec("sine:100:10")
        with pytest.raises(ValueError, match="fields"):
            parse_trace_spec("step:400:100")
        with pytest.raises(ValueError, match="non-numeric"):
            parse_trace_spec("const:fast")
        with pytest.raises(ValueError, match="path"):
            parse_trace_spec("file:")
