"""Cohort input validation and the lossy flag of tracer-free fleets.

Every malformed :class:`~repro.streaming.cohort.CohortSpec` and every
bad :func:`~repro.streaming.cohort.simulate_cohort_fleet` argument must
fail up front with a ``ValueError`` — before any cohort is simulated.
"""

from __future__ import annotations

import pytest

from repro.streaming.cohort import CohortSpec, simulate_cohort_fleet
from repro.streaming.link import WirelessLink
from repro.streaming.loss import LossTrace

LOSSLESS = WirelessLink(bandwidth_mbps=100.0, propagation_ms=3.0)
LOSSY = WirelessLink(
    bandwidth_mbps=100.0, propagation_ms=3.0, loss=LossTrace.bernoulli(0.2)
)


def cohort(**overrides) -> CohortSpec:
    values = dict(
        name="c0",
        n_members=4,
        payloads=((50_000, 20_000), (40_000, 10_000)),
        n_frames=3,
        n_tracers=1,
    )
    values.update(overrides)
    return CohortSpec(**values)


def fleet(*, cohorts=None, link=LOSSLESS, **kwargs):
    return simulate_cohort_fleet(
        [cohort()] if cohorts is None else cohorts, link, **kwargs
    )


INVALID = {
    "spec-empty-name": lambda: cohort(name=""),
    "spec-no-members": lambda: cohort(n_members=0),
    "spec-empty-payloads": lambda: cohort(payloads=()),
    "spec-ragged-rungs": lambda: cohort(payloads=((50_000, 20_000), (40_000,))),
    "spec-negative-bits": lambda: cohort(payloads=((50_000, -1),)),
    "spec-zero-frames": lambda: cohort(n_frames=0),
    "spec-zero-fps": lambda: cohort(target_fps=0.0),
    "spec-zero-weight": lambda: cohort(weight=0.0),
    "spec-negative-encode": lambda: cohort(encode_time_s=-0.001),
    "spec-negative-start": lambda: cohort(start_s=-0.01),
    "spec-stop-before-start": lambda: cohort(start_s=0.02, stop_s=0.02),
    "spec-negative-tracers": lambda: cohort(n_tracers=-1),
    "spec-too-many-tracers": lambda: cohort(n_tracers=5),
    "fleet-no-cohorts": lambda: fleet(cohorts=[]),
    "fleet-duplicate-names": lambda: fleet(cohorts=[cohort(), cohort()]),
    "fleet-negative-seed": lambda: fleet(seed=-1),
    "fleet-zero-jobs": lambda: fleet(n_jobs=0),
    "fleet-recovery-on-lossless-link": lambda: fleet(recovery="arq"),
    "fleet-start-rung-outside-ladder": lambda: fleet(
        cohorts=[cohort(start_rung=5)], controller="throughput"
    ),
    "fleet-unknown-scheduler": lambda: fleet(scheduler="round-robin"),
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_invalid_cohort_input_raises(case):
    with pytest.raises(ValueError):
        INVALID[case]()


def test_start_rung_error_names_the_cohort():
    with pytest.raises(ValueError, match="cohort 'c0': start_rung 5"):
        fleet(cohorts=[cohort(start_rung=5)], controller="throughput")


def one_rung_cohort(**overrides) -> CohortSpec:
    return CohortSpec(name="c", n_members=3, payloads=((1000,),), n_frames=4, **overrides)


@pytest.mark.parametrize("controller", [None, "fixed"])
def test_rung_map_longer_than_payloads_names_the_cohort(controller):
    with pytest.raises(ValueError, match="cohort 'c': rung_map lists 2 rungs"):
        fleet(cohorts=[one_rung_cohort(rung_map=(0, 1), start_rung=1)], controller=controller)


def test_rung_outside_the_map_names_the_cohort():
    """A fixed controller on ``perceptual`` over a ``nocom``-only stream
    must not be reported at ``perceptual`` quality for ``nocom`` frames."""
    with pytest.raises(ValueError, match="'c': frame 0 chose rung 4 .perceptual."):
        fleet(cohorts=[one_rung_cohort(rung_map=(0,), start_rung=4)], controller="fixed")


def test_tracer_free_lossy_fleet_reports_itself_lossy():
    """Loss is a property of the link, not of the tracers that sample it."""
    report = fleet(cohorts=[cohort(n_tracers=0)], link=LOSSY, recovery="skip")
    assert report.tracers == ()
    assert report.is_lossy
    assert "tracer resyncs 0" in report.summary()
    lossless = fleet(cohorts=[cohort(n_tracers=0)])
    assert not lossless.is_lossy
    assert "tracer resyncs" not in lossless.summary()
