"""Shard invariance: the report is a function of the fleet, not the topology.

Cohorts hash to shards by name and shards may run in separate worker
processes, but every per-cohort random stream keys on the *global*
cohort index and results merge back in global order — so the same
fleet must serialize to byte-identical JSON for any ``(n_shards,
n_jobs)`` combination.  This is the distributed-systems half of the
determinism hyperproperty: topology is an execution detail, never an
input.
"""

from __future__ import annotations

import pytest

from repro.codecs.ladder import QualityLadder
from repro.streaming.cohort import CohortSpec, simulate_cohort_fleet
from repro.streaming.link import WirelessLink
from repro.streaming.reports import report_to_json
from repro.streaming.traces import BandwidthTrace

#: Jitter on so shard invariance covers the RNG plumbing, not just
#: deterministic arithmetic.
LINK = WirelessLink(bandwidth_mbps=300.0, propagation_ms=3.0, jitter_ms=0.3)


def eight_cohorts() -> list[CohortSpec]:
    return [
        CohortSpec(
            name=f"ap{i}-cell{i % 3}",
            n_members=20 + 11 * i,
            payloads=((100_000 - 6_000 * i,), (80_000 + 2_000 * i,)),
            n_frames=3,
            target_fps=(60.0, 72.0, 90.0, 120.0)[i % 4],
            weight=1.0 + (i % 2),
            start_s=0.004 * (i % 3),
            n_tracers=2,
        )
        for i in range(8)
    ]


@pytest.mark.parametrize(
    "n_shards,n_jobs",
    [(1, 1), (4, 1), (4, 3), (7, 2), (8, 8), (13, 2)],
)
def test_sharding_is_invisible_in_the_report(n_shards, n_jobs):
    baseline = report_to_json(
        simulate_cohort_fleet(eight_cohorts(), LINK, seed=3)
    ).encode("utf-8")
    sharded = report_to_json(
        simulate_cohort_fleet(
            eight_cohorts(), LINK, seed=3, n_shards=n_shards, n_jobs=n_jobs
        )
    ).encode("utf-8")
    assert sharded == baseline


def test_sharding_is_invisible_for_adaptive_fleets():
    """Controller and ladder objects cross the process boundary; the
    adaptive trajectory must still be shard-independent."""
    ladder = QualityLadder.default()
    specs = [
        CohortSpec(
            name=f"adaptive{i}",
            n_members=15 + 4 * i,
            payloads=(tuple(sorted((60_000 + 9_000 * (i + k) for k in range(len(ladder))), reverse=True)),),
            n_frames=4,
            target_fps=72.0,
            n_tracers=2,
            start_rung=i % len(ladder),
        )
        for i in range(5)
    ]
    link = WirelessLink(bandwidth_mbps=80.0, propagation_ms=3.0, jitter_ms=0.3).traced(
        BandwidthTrace.square(high_mbps=80.0, low_mbps=25.0, period_s=0.03)
    )
    reports = [
        simulate_cohort_fleet(
            specs, link, seed=9, controller="buffer",
            n_shards=n_shards, n_jobs=n_jobs,
        )
        for n_shards, n_jobs in ((1, 1), (4, 4), (7, 3))
    ]
    serialized = [report_to_json(r).encode("utf-8") for r in reports]
    assert serialized[0] == serialized[1] == serialized[2]


def test_empty_shards_are_harmless():
    """More shards than cohorts leaves some buckets empty; the merge
    must skip them without perturbing anything."""
    specs = eight_cohorts()[:2]
    baseline = report_to_json(simulate_cohort_fleet(specs, LINK, seed=1))
    oversharded = report_to_json(
        simulate_cohort_fleet(specs, LINK, seed=1, n_shards=64, n_jobs=4)
    )
    assert oversharded == baseline
