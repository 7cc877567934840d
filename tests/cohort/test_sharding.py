"""Pool invariance: the report is a function of the fleet, not the pool.

Cohorts may run in separate worker processes, but every per-cohort
random stream keys on the *global* cohort index and results merge back
in global order — so the same fleet must serialize to byte-identical
JSON for any ``n_jobs``.  This is the distributed-systems half of the
determinism hyperproperty: the process layout is an execution detail,
never an input.
"""

from __future__ import annotations

import pytest

from repro.codecs.ladder import QualityLadder
from repro.streaming.cohort import CohortSpec, simulate_cohort_fleet
from repro.streaming.link import WirelessLink
from repro.streaming.reports import report_to_json
from repro.streaming.traces import BandwidthTrace

#: Jitter on so pool invariance covers the RNG plumbing, not just
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


@pytest.fixture(scope="module")
def serial_report() -> bytes:
    return report_to_json(
        simulate_cohort_fleet(eight_cohorts(), LINK, seed=3)
    ).encode("utf-8")


@pytest.mark.parametrize(
    "first_jobs,second_jobs",
    [(1, 1), (4, 1), (4, 3), (7, 2), (8, 8), (13, 2)],
)
def test_sharding_is_invisible_in_the_report(first_jobs, second_jobs, serial_report):
    """Two runs that differ only in pool width both serialize to the
    serial report's bytes.

    Equal widths also check run-to-run determinism (``8-8`` pools every
    cohort in its own worker, so completion order varies); ``13-2``
    asks for more workers than there are cohorts.
    """
    for n_jobs in (first_jobs, second_jobs):
        pooled = report_to_json(
            simulate_cohort_fleet(eight_cohorts(), LINK, seed=3, n_jobs=n_jobs)
        ).encode("utf-8")
        assert pooled == serial_report, f"n_jobs={n_jobs}"


def test_sharding_is_invisible_for_adaptive_fleets():
    """Controller and ladder objects cross the process boundary; the
    adaptive trajectory must still be pool-independent."""
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
    serialized = [
        report_to_json(
            simulate_cohort_fleet(specs, link, seed=9, controller="buffer", n_jobs=n_jobs)
        ).encode("utf-8")
        for n_jobs in (1, 2, 3, 8)
    ]
    assert len(set(serialized)) == 1
