"""Byte-level pins of fleet report JSON.

Each scenario below serializes a small ``simulate_fleet`` run and
compares the SHA-256 of its JSON to a value recorded before the engine
was reduced to a single transport pricing (per-stream backlog queueing
with event-driven fluid contention).  Removing the other pricing mode
must leave these payloads byte-identical, ``"pricing": "backlog"`` key
included, so existing report files and digests keep matching.

The scenarios cover what the kernel prices differently from a
round-clock model: staggered joins, a departure, mixed refresh rates,
jitter, both schedulers, adaptation on a traced link, and lossy links
under each recovery policy.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.streaming.link import WirelessLink
from repro.streaming.loss import LossTrace
from repro.streaming.server import ClientConfig, simulate_fleet
from repro.streaming.traces import BandwidthTrace


def clients() -> list[ClientConfig]:
    codecs = ("perceptual", "bd", "variable-bd", "raw")
    scenes = ("office", "fortnite", "skyline", "dumbo")
    fps = (72.0, 72.0, 36.0, 90.0)
    starts = (0.0, 0.01, 0.0, 0.02)
    stops = (None, None, 0.05, None)
    weights = (1.0, 2.0, 1.0, 1.0)
    return [
        ClientConfig(
            name=f"c{i}", scene=scenes[i], codec=codecs[i], height=16, width=16,
            target_fps=fps[i], start_s=starts[i], stop_s=stops[i], weight=weights[i],
        )
        for i in range(4)
    ]


def contended_fair():
    link = WirelessLink(bandwidth_mbps=0.4, propagation_ms=3.0, jitter_ms=0.5)
    return simulate_fleet(clients(), link, n_frames=4, seed=5)


def adaptive_priority_lossy():
    trace = BandwidthTrace.square(high_mbps=2.0, low_mbps=0.1, period_s=0.03)
    link = WirelessLink.traced(
        trace, propagation_ms=2.0, jitter_ms=0.3,
        loss=LossTrace.gilbert_elliott(0.1, mean_burst_packets=3.0),
    )
    return simulate_fleet(
        clients(), link, scheduler="priority", n_frames=4, seed=9,
        controller="throughput", recovery="arq",
    )


def pinned_lossy(recovery: str):
    link = WirelessLink(
        bandwidth_mbps=0.6, propagation_ms=3.0, loss=LossTrace.bernoulli(0.2)
    )
    return simulate_fleet(clients(), link, n_frames=4, seed=13, recovery=recovery)


SCENARIOS = {
    "contended-fair": contended_fair,
    "adaptive-priority-lossy": adaptive_priority_lossy,
    "lossy-fec": lambda: pinned_lossy("fec"),
    "lossy-skip": lambda: pinned_lossy("skip"),
}

PINNED_SHA256 = {
    "contended-fair": "952d6afe02b1439761e9e5955b60be07e8c9aaf8c3e697883ddc9dee7b95e666",
    "adaptive-priority-lossy": "7deed98592f7101f3fb0d51583e5835771504377e6dec377e7e7b25c43acf138",
    "lossy-fec": "95818b88568acbc1253fa1eafd92c6eabed911bb2e6fe9134ba0e63fbf87aa60",
    "lossy-skip": "e26250bea30c9e98c9d17d290fb8aad120778b4122c6a27e4bceb181c3414c94",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fleet_report_json_is_pinned(name):
    text = SCENARIOS[name]().to_json()
    assert json.loads(text)["pricing"] == "backlog"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_SHA256[name]
