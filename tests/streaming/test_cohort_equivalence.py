"""Tracer-client equivalence: the cohort fast path vs the exact engine.

The cohort engine (:mod:`repro.streaming.cohort`) only earns trust by
proof against the engine it replaces.  Its contract: every tracer
client's report must be **reproducible on the exact engine** — run
:class:`~repro.streaming.engine.StreamingEngine` over the cohort's
effective member link with :func:`~repro.streaming.cohort.tracer_seed`
and you get the identical :class:`~repro.streaming.engine.FrameTiming`
rows.  On jitter-free links that equality is bit-for-bit; with jitter
it *still* is (the tracer RNG replicates the engine's spawn scheme),
while the bulk-member roll-ups are checked tolerance-banded.

Hypothesis generates the fleet configurations: mixed refresh rates,
staggered join/leave windows, fair and priority schedulers, constant
and step/Markov-traced links, lossless and lossy links under every
recovery policy, pinned and adaptive rate control.  Every scenario
carries at least 8 tracer clients.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codecs.ladder import QualityLadder
from repro.streaming.adaptive import get_controller
from repro.streaming.cohort import CohortSpec, simulate_cohort_fleet, tracer_seed
from repro.streaming.engine import (
    AdaptationState,
    PrecomputedSource,
    StreamingEngine,
    StreamSpec,
)
from repro.streaming.link import WirelessLink
from repro.streaming.loss import RECOVERY_CHOICES, LossTrace
from repro.streaming.traces import BandwidthTrace

REFRESH_RATES = (60.0, 72.0, 90.0, 120.0)
SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def cohort_fleets(draw, rung_count: int = 1):
    """1-3 cohorts with >= 8 tracers each, mixing every spec axis."""
    n_cohorts = draw(st.integers(min_value=1, max_value=3))
    specs = []
    for index in range(n_cohorts):
        target_fps = draw(st.sampled_from(REFRESH_RATES))
        n_frames = draw(st.integers(min_value=2, max_value=6))
        frames = draw(
            st.lists(
                st.lists(
                    st.integers(min_value=2_000, max_value=400_000),
                    min_size=rung_count,
                    max_size=rung_count,
                ).map(lambda bits: tuple(sorted(bits, reverse=True))),
                min_size=1,
                max_size=3,
            )
        )
        start_s = draw(st.sampled_from((0.0, 0.011, 0.04)))
        window = draw(st.sampled_from((None, 0.045, 0.13)))
        n_members = draw(st.integers(min_value=8, max_value=40))
        specs.append(
            CohortSpec(
                name=f"gen{index}",
                n_members=n_members,
                payloads=tuple(frames),
                n_frames=n_frames,
                target_fps=target_fps,
                weight=draw(st.sampled_from((0.5, 1.0, 2.0))),
                encode_time_s=draw(st.sampled_from((0.0, 0.0015))),
                start_s=start_s,
                stop_s=None if window is None else start_s + window,
                n_tracers=8,
            )
        )
    return specs


LOSS_TRACES = (
    LossTrace.bernoulli(0.1),
    LossTrace.gilbert_elliott(0.05, mean_burst_packets=3.0),
)


@st.composite
def shared_links(draw, jitter_ms: float = 0.0, lossy: bool = False):
    """Constant, step-down, or Markov-traced shared links."""
    kind = draw(st.sampled_from(("const", "step", "markov")))
    loss = draw(st.sampled_from(LOSS_TRACES)) if lossy else None
    if kind == "const":
        return WirelessLink(
            bandwidth_mbps=draw(st.sampled_from((60.0, 150.0, 400.0))),
            propagation_ms=3.0,
            jitter_ms=jitter_ms,
            loss=loss,
        )
    if kind == "step":
        trace = BandwidthTrace.step_down(
            before_mbps=draw(st.sampled_from((200.0, 400.0))),
            after_mbps=draw(st.sampled_from((40.0, 90.0))),
            at_s=draw(st.sampled_from((0.02, 0.06))),
        )
    else:
        trace = BandwidthTrace.markov(
            levels_mbps=(40.0, 120.0, 300.0),
            p_switch=0.4,
            dt_s=0.02,
            horizon_s=2.0,
            seed=draw(st.integers(min_value=0, max_value=5)),
        )
    return WirelessLink.traced(
        trace, propagation_ms=3.0, jitter_ms=jitter_ms, loss=loss
    )


def exact_tracer_outcome(spec, member_link, seed, cohort_index, tracer_index,
                         controller=None, recovery=None):
    """One tracer, replayed through the exact engine on the member link."""
    adaptation = None
    rung_map = spec.rung_map
    if controller is not None:
        adaptation = AdaptationState(
            get_controller(controller),
            QualityLadder.default(),
            spec.start_rung,
            spec.interval_s,
        )
    engine_spec = StreamSpec(
        name="tracer",
        source=PrecomputedSource(spec.payloads),
        n_frames=spec.n_frames,
        target_fps=spec.target_fps,
        encode_time_s=spec.encode_time_s,
        start_s=spec.start_s,
        stop_s=spec.stop_s,
        adaptation=adaptation,
        rung_map=rung_map,
    )
    engine = StreamingEngine(member_link, recovery=recovery)
    return engine.run(
        [engine_spec], seed=tracer_seed(seed, cohort_index, tracer_index)
    )[0]


def assert_tracers_bit_for_bit(specs, report, seed, controller=None, recovery=None):
    for ci, spec in enumerate(specs):
        member_link = report.cohorts[ci].member_link
        for ti in range(spec.n_tracers):
            outcome = exact_tracer_outcome(
                spec, member_link, seed, ci, ti, controller, recovery
            )
            tracer = report.tracer(f"{spec.name}/tracer{ti}")
            assert outcome.frames == tracer.frames
            assert outcome.adaptive == tracer.adaptive
            assert outcome.loss == tracer.loss


@SETTINGS
@given(
    specs=cohort_fleets(),
    link=shared_links(),
    scheduler=st.sampled_from(("fair", "priority")),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_tracers_match_exact_engine_bit_for_bit(specs, link, scheduler, seed):
    report = simulate_cohort_fleet(specs, link, scheduler=scheduler, seed=seed)
    assert_tracers_bit_for_bit(specs, report, seed)


@SETTINGS
@given(
    specs=cohort_fleets(rung_count=len(QualityLadder.default())),
    link=shared_links(),
    scheduler=st.sampled_from(("fair", "priority")),
    controller=st.sampled_from(("buffer", "throughput")),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_adaptive_tracers_match_exact_engine(specs, link, scheduler, controller, seed):
    """Rung choices, switches, stalls, and goodput EWMAs all agree."""
    report = simulate_cohort_fleet(
        specs, link, scheduler=scheduler, seed=seed, controller=controller
    )
    assert_tracers_bit_for_bit(specs, report, seed, controller)


@SETTINGS
@given(
    specs=cohort_fleets(rung_count=len(QualityLadder.default())),
    link=shared_links(jitter_ms=0.3, lossy=True),
    scheduler=st.sampled_from(("fair", "priority")),
    controller=st.sampled_from((None, "buffer", "throughput")),
    recovery=st.sampled_from(RECOVERY_CHOICES),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_lossy_tracers_match_exact_engine(
    specs, link, scheduler, controller, recovery, seed
):
    """Loss draws precede each frame's jitter draw on both paths, so
    frames, loss telemetry and adaptation agree under every recovery
    policy, pinned or adaptive."""
    report = simulate_cohort_fleet(
        specs, link, scheduler=scheduler, seed=seed, controller=controller,
        recovery=recovery,
    )
    assert report.is_lossy
    assert_tracers_bit_for_bit(specs, report, seed, controller, recovery)


@SETTINGS
@given(
    specs=cohort_fleets(),
    link=shared_links(jitter_ms=0.4),
    scheduler=st.sampled_from(("fair", "priority")),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_jittery_tracers_still_match_exact_engine(specs, link, scheduler, seed):
    """Jitter draws replicate the engine's spawn scheme exactly, so
    tracer equality stays bit-for-bit even on jittery links — stronger
    than the tolerance band the bulk roll-up needs."""
    report = simulate_cohort_fleet(specs, link, scheduler=scheduler, seed=seed)
    assert_tracers_bit_for_bit(specs, report, seed)


@SETTINGS
@given(
    specs=cohort_fleets(),
    scheduler=st.sampled_from(("fair", "priority")),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_jittery_bulk_rollup_within_tolerance_band(specs, scheduler, seed):
    """Bulk members draw their own jitter; the sketch must agree with
    the analytic half-normal shift within statistical tolerance.

    Jitter is post-transmission overhead — it never feeds backlog or
    the controller — so a jitter-free twin run gives the exact
    deterministic latency of every member, and the jittery fleet's
    mean must sit one half-normal jitter mean above it.
    """
    jitter_ms = 0.5
    link = WirelessLink(bandwidth_mbps=200.0, propagation_ms=3.0, jitter_ms=jitter_ms)
    twin = WirelessLink(bandwidth_mbps=200.0, propagation_ms=3.0, jitter_ms=0.0)
    report = simulate_cohort_fleet(specs, link, scheduler=scheduler, seed=seed)
    baseline = simulate_cohort_fleet(specs, twin, scheduler=scheduler, seed=seed)

    jitter_mean_s = jitter_ms * 1e-3 * math.sqrt(2 / math.pi)
    expected_mean_s = baseline.mean_latency_s + jitter_mean_s
    # The sample mean of the jitter component concentrates as 1/sqrt(n);
    # a 4-sigma band keeps hypothesis from hunting unlucky seeds while
    # still catching any systematic shift (wrong scale, missing abs).
    n_samples = report.latency.total_weight
    half_normal_std_s = jitter_ms * 1e-3 * float(np.sqrt(1.0 - 2.0 / np.pi))
    tolerance_s = 4.0 * half_normal_std_s / float(np.sqrt(n_samples))
    assert abs(report.mean_latency_s - expected_mean_s) <= tolerance_s
    # Quantiles are monotone and never below the deterministic floor
    # (jitter only ever adds latency); small slack covers sketch
    # interpolation once the population exceeds the centroid budget.
    quantiles = [report.tail_latency_s(p) for p in (50.0, 90.0, 95.0, 99.0)]
    assert all(a <= b + 1e-12 for a, b in zip(quantiles, quantiles[1:]))
    assert quantiles[0] >= baseline.tail_latency_s(50.0) - 0.1 * jitter_mean_s


@SETTINGS
@given(
    specs=cohort_fleets(),
    link=shared_links(),
    scheduler=st.sampled_from(("fair", "priority")),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_sketch_rollup_matches_exact_quantiles(specs, link, scheduler, seed):
    """Jitter-free members are bit-identical, so the exact latency
    population is the tracer's latencies repeated per member; the
    sketch must land within 1% relative error of its quantiles."""
    report = simulate_cohort_fleet(specs, link, scheduler=scheduler, seed=seed)
    population = np.concatenate(
        [
            np.repeat(
                [
                    frame.motion_to_photon_s
                    for frame in report.tracer(f"{spec.name}/tracer0").frames
                ],
                spec.n_members,
            )
            for spec in specs
        ]
    )
    for percentile in (50.0, 90.0, 95.0, 99.0):
        exact = float(np.percentile(population, percentile))
        sketched = report.tail_latency_s(percentile)
        assert abs(sketched - exact) <= 0.01 * abs(exact) + 1e-12


def test_sketch_rollup_accuracy_survives_compression():
    """A fleet wide enough to exceed the centroid budget still answers
    within 1% — the compressed-path counterpart of the property test."""
    specs = [
        CohortSpec(
            name=f"wide{index}",
            n_members=200 + 13 * index,
            payloads=tuple(
                (20_000 + 997 * ((index * 31 + k) % 57),) for k in range(8)
            ),
            n_frames=24,
            target_fps=72.0,
            n_tracers=1,
        )
        for index in range(30)
    ]
    link = WirelessLink(bandwidth_mbps=400.0, propagation_ms=3.0)
    report = simulate_cohort_fleet(specs, link, scheduler="fair", seed=5)
    assert report.latency.n_centroids <= 512 < 30 * 24
    population = np.concatenate(
        [
            np.repeat(
                [
                    frame.motion_to_photon_s
                    for frame in report.tracer(f"{spec.name}/tracer0").frames
                ],
                spec.n_members,
            )
            for spec in specs
        ]
    )
    for percentile in (50.0, 90.0, 95.0, 99.0):
        exact = float(np.percentile(population, percentile))
        sketched = report.tail_latency_s(percentile)
        assert abs(sketched - exact) <= 0.01 * abs(exact)
