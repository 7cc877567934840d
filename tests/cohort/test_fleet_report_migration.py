"""FleetReport tail latency is exact, and shared with the served reports.

The migration contract: ``tail_latency_s()`` must pin the *old exact
values* — ``numpy.percentile`` over every frame row, bit for bit — on
small fleets and past the 512 frames a latency sketch would keep
exact.  :class:`~repro.serving.server.ServerReport` and
:class:`~repro.serving.client.LoadgenReport` share the same roll-up, so
they give the same values for the same rows.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.experiments.common import ExperimentConfig
from repro.experiments.fleet import run_fleet
from repro.serving.client import LoadgenClientReport, LoadgenReport
from repro.serving.server import ServedClientReport, ServerReport
from repro.streaming.link import WirelessLink
from repro.streaming.fleet import ClientConfig, ClientReport, simulate_fleet

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


@pytest.fixture(scope="module", params=["3-clients", "1280-frames"])
def fleet_report(request):
    if request.param == "3-clients":
        return small_fleet_report()
    # 32 clients x 40 frames: a 512-centroid sketch compresses here, and
    # answered p99 = 9.288491 ms against the exact 9.277141 ms.
    return run_fleet(
        ExperimentConfig(height=16, width=16, n_frames=40, seed=1),
        n_clients=32,
        link=WirelessLink(bandwidth_mbps=60.0, propagation_ms=3.0, jitter_ms=0.5),
    ).report


def _rows(report, cls):
    """The fleet's clients, rebuilt as ``cls`` over the same frame rows."""
    return tuple(
        cls(**{f.name: getattr(client, f.name) for f in dataclasses.fields(ClientReport)})
        for client in report.clients
    )


def test_sketch_default_pins_the_old_exact_values(fleet_report):
    """Regression pin: the fleet, server and loadgen reports and a
    by-hand numpy.percentile agree bit for bit."""
    latencies = [
        frame.motion_to_photon_s
        for client in fleet_report.clients
        for frame in client.frames
    ]
    served = ServerReport(clients=_rows(fleet_report, ServedClientReport), ladder=())
    loadgen = LoadgenReport(clients=_rows(fleet_report, LoadgenClientReport))
    for percentile in (50.0, 90.0, 95.0, 99.0):
        by_hand = float(np.percentile(latencies, percentile))
        assert fleet_report.tail_latency_s(percentile) == by_hand
        assert served.tail_latency_s(percentile) == by_hand
        assert loadgen.tail_latency_s(percentile) == by_hand


def test_percentile_validation_is_unchanged():
    report = small_fleet_report()
    with pytest.raises(ValueError, match="percentile"):
        report.tail_latency_s(0.0)
    with pytest.raises(ValueError, match="percentile"):
        report.tail_latency_s(101.0)
    with pytest.raises(ValueError, match="percentile"):
        report.tail_latency_s(-1.0)
