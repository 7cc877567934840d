"""Tests for the wireless link model."""

import numpy as np
import pytest

from repro.streaming.link import WIFI6_LINK, WIGIG_LINK, WirelessLink


class TestTiming:
    def test_serialization_hand_calculation(self):
        link = WirelessLink(bandwidth_mbps=100.0, propagation_ms=0.0)
        # 1 Mb over 100 Mbps = 10 ms.
        assert link.serialization_time_s(1_000_000) == pytest.approx(0.010)

    def test_propagation_added(self):
        link = WirelessLink(bandwidth_mbps=100.0, propagation_ms=5.0)
        assert link.transmit_time_s(0) == pytest.approx(0.005)

    def test_faster_link_faster_transfer(self):
        payload = 8_000_000
        assert WIGIG_LINK.transmit_time_s(payload) < WIFI6_LINK.transmit_time_s(payload)

    def test_jitter_deterministic_without_rng(self):
        link = WirelessLink(bandwidth_mbps=100.0, jitter_ms=10.0)
        assert link.transmit_time_s(1000) == link.transmit_time_s(1000)

    def test_jitter_adds_delay(self):
        link = WirelessLink(bandwidth_mbps=100.0, jitter_ms=10.0)
        rng = np.random.default_rng(0)
        base = link.transmit_time_s(1000)
        jittered = [link.transmit_time_s(1000, rng=rng) for _ in range(10)]
        assert all(j >= base for j in jittered)
        assert max(j - base for j in jittered) > 0

    def test_jitter_is_half_normal(self):
        """The jitter draw is ``abs(N(0, scale))`` — a half-normal —
        so its mean is ``scale * sqrt(2 / pi)``, as documented."""
        scale_ms = 10.0
        link = WirelessLink(bandwidth_mbps=100.0, propagation_ms=5.0, jitter_ms=scale_ms)
        rng = np.random.default_rng(42)
        samples_ms = np.array(
            [(link.overhead_time_s(rng) - 0.005) * 1e3 for _ in range(4000)]
        )
        assert np.all(samples_ms >= 0)  # one-sided by construction
        expected_mean = scale_ms * np.sqrt(2.0 / np.pi)
        assert samples_ms.mean() == pytest.approx(expected_mean, rel=0.05)

    def test_sustainable_fps(self):
        link = WirelessLink(bandwidth_mbps=100.0)
        # 1 Mb payload -> 100 frames per second.
        assert link.sustainable_fps(1_000_000) == pytest.approx(100.0)

    def test_zero_payload_infinite_fps(self):
        assert WIFI6_LINK.sustainable_fps(0) == float("inf")


class TestValidation:
    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth_mbps"):
            WirelessLink(bandwidth_mbps=0.0)

    def test_rejects_negative_delays(self):
        with pytest.raises(ValueError, match="propagation_ms"):
            WirelessLink(bandwidth_mbps=100.0, propagation_ms=-1.0)
        with pytest.raises(ValueError, match="jitter_ms"):
            WirelessLink(bandwidth_mbps=100.0, jitter_ms=-1.0)

    def test_rejects_negative_payload(self):
        with pytest.raises(ValueError, match="payload_bits"):
            WIFI6_LINK.serialization_time_s(-1)
