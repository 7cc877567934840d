"""The determinism hyperproperty, tested directly.

The RPR2xx lint rules forbid the *lexical* causes of nondeterminism
(wall clocks, global RNGs); no single trace can witness the property
they protect.  This test checks the property itself: two fleet
simulations with the same seed must serialize to **byte-identical**
report JSON — jitter draws, contention resolution, adaptive rung
switches and all.
"""

from __future__ import annotations

import pytest

from repro.streaming.cohort import CohortSpec, simulate_cohort_fleet
from repro.streaming.link import WirelessLink
from repro.streaming.reports import report_to_json
from repro.streaming.fleet import ClientConfig, simulate_fleet
from repro.streaming.traces import BandwidthTrace

#: Jitter on so the per-client RNG path is exercised, not bypassed.
JITTERY_LINK = WirelessLink(bandwidth_mbps=150.0, propagation_ms=3.0, jitter_ms=0.4)


def small_fleet(n=3):
    scenes = ("office", "fortnite", "skyline")
    codecs = ("bd", "variable-bd", "raw")
    return [
        ClientConfig(
            name=f"c{i}", scene=scenes[i % len(scenes)], codec=codecs[i % len(codecs)],
            height=48, width=48,
        )
        for i in range(n)
    ]


def test_two_runs_serialize_byte_identically():
    reports = [
        simulate_fleet(small_fleet(), JITTERY_LINK, n_frames=2, seed=11)
        for _ in range(2)
    ]
    first, second = (report_to_json(r).encode("utf-8") for r in reports)
    assert first == second


def test_two_adaptive_runs_on_a_fading_link_are_identical():
    link = WirelessLink(
        bandwidth_mbps=60.0, propagation_ms=3.0, jitter_ms=0.4,
    ).traced(BandwidthTrace.square(high_mbps=60.0, low_mbps=12.0, period_s=0.05))
    reports = [
        simulate_fleet(
            small_fleet(2), link, n_frames=3, seed=23, controller="throughput",
        )
        for _ in range(2)
    ]
    first, second = (report_to_json(r).encode("utf-8") for r in reports)
    assert first == second


def test_different_seeds_diverge():
    """Guard against the vacuous pass where jitter never reaches the
    timeline: a different seed must change the serialized report."""
    a = simulate_fleet(small_fleet(), JITTERY_LINK, n_frames=2, seed=11)
    b = simulate_fleet(small_fleet(), JITTERY_LINK, n_frames=2, seed=12)
    if report_to_json(a) == report_to_json(b):
        pytest.fail("seed does not reach the simulated timeline")


def small_cohort_fleet():
    """A jitter-heavy cohort fleet: tracer RNG and the vectorized bulk
    jitter draws both feed the serialized report."""
    return [
        CohortSpec(
            name=f"g{i}",
            n_members=30 + 7 * i,
            payloads=((90_000 - 20_000 * i,), (70_000,)),
            n_frames=3,
            target_fps=72.0,
            weight=1.0 + 0.5 * i,
            n_tracers=2,
        )
        for i in range(3)
    ]


def test_two_cohort_runs_serialize_byte_identically():
    reports = [
        simulate_cohort_fleet(small_cohort_fleet(), JITTERY_LINK, seed=11)
        for _ in range(2)
    ]
    first, second = (report_to_json(r).encode("utf-8") for r in reports)
    assert first == second


def test_cohort_seeds_diverge():
    """Same vacuous-pass guard for the cohort fast path: the seed must
    reach both the tracers and the bulk jitter roll-up."""
    a = simulate_cohort_fleet(small_cohort_fleet(), JITTERY_LINK, seed=11)
    b = simulate_cohort_fleet(small_cohort_fleet(), JITTERY_LINK, seed=12)
    if report_to_json(a) == report_to_json(b):
        pytest.fail("seed does not reach the cohort fast path")
