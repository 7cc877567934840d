"""FleetReport tail latency now routes through the quantile sketch.

The migration contract: sketch-backed ``tail_latency_s()`` must pin
the *old exact values* on small fleets — below the centroid budget the
sketch reproduces ``numpy.percentile`` bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.streaming.link import WirelessLink
from repro.streaming.server import ClientConfig, simulate_fleet

LINK = WirelessLink(bandwidth_mbps=150.0, propagation_ms=3.0, jitter_ms=0.4)


def small_fleet_report():
    scenes = ("office", "fortnite", "skyline")
    codecs = ("bd", "variable-bd", "raw")
    clients = [
        ClientConfig(
            name=f"c{i}", scene=scenes[i % 3], codec=codecs[i % 3],
            height=48, width=48,
        )
        for i in range(3)
    ]
    return simulate_fleet(clients, LINK, n_frames=2, seed=11)


def test_sketch_default_pins_the_old_exact_values():
    """Regression pin: on a small fleet the sketch path and a by-hand
    numpy.percentile agree bit for bit."""
    report = small_fleet_report()
    latencies = [
        frame.motion_to_photon_s
        for client in report.clients
        for frame in client.frames
    ]
    for percentile in (50.0, 90.0, 95.0, 99.0):
        by_hand = float(np.percentile(latencies, percentile))
        assert report.tail_latency_s(percentile) == by_hand


def test_latency_sketch_accounts_every_frame():
    report = small_fleet_report()
    n_frames = sum(len(client.frames) for client in report.clients)
    sketch = report.latency_sketch()
    assert sketch.total_weight == float(n_frames)
    assert sketch.mean() == pytest.approx(report.mean_latency_s)


def test_percentile_validation_is_unchanged():
    report = small_fleet_report()
    with pytest.raises(ValueError, match="percentile"):
        report.tail_latency_s(0.0)
    with pytest.raises(ValueError, match="percentile"):
        report.tail_latency_s(101.0)
    with pytest.raises(ValueError, match="percentile"):
        report.tail_latency_s(-1.0)
