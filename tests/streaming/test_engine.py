"""Tests for the discrete-event streaming kernel.

The bit-for-bit property here is the refactor's acceptance criterion:
a fleet of one reproduces the solo session exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs.ladder import QualityLadder
from repro.scenes.library import get_scene
from repro.streaming.adaptive import FixedController, get_controller, simulate_adaptive_session
from repro.streaming.engine import (
    FRAME_READY,
    TRANSMIT_DONE,
    TRANSMIT_START,
    AdaptationState,
    FairShareScheduler,
    PrecomputedSource,
    PriorityScheduler,
    StreamingEngine,
    StreamSpec,
)
from repro.streaming.link import WirelessLink
from repro.streaming.fleet import ClientConfig, simulate_fleet
from repro.streaming.session import ENCODER_CHOICES, simulate_session
from repro.streaming.traces import BandwidthTrace
from repro.streaming.validation import validate_stream_timing

JITTERY_LINK = WirelessLink(bandwidth_mbps=200.0, propagation_ms=3.0, jitter_ms=1.0)
CALM_LINK = WirelessLink(bandwidth_mbps=200.0, propagation_ms=3.0)
#: 100 bits per second keeps hand-computed drains in whole seconds.
TOY_LINK = WirelessLink(bandwidth_mbps=100 / 1e6, propagation_ms=0.0)


def frame_fields(report):
    return [
        (f.frame_index, f.payload_bits, f.serialization_time_s, f.transmit_time_s)
        for f in report.frames
    ]


class TestFleetOfOneIsSolo:
    """Acceptance: engine-backed fleet-of-one == simulate_session."""

    @settings(max_examples=10, deadline=None)
    @given(
        codec=st.sampled_from(ENCODER_CHOICES),
        seed=st.integers(min_value=0, max_value=2**16),
        n_frames=st.integers(min_value=1, max_value=3),
        jitter=st.booleans(),
        scene=st.sampled_from(("office", "fortnite")),
    )
    def test_single_client_fleet_reproduces_session_bit_for_bit(
        self, codec, seed, n_frames, jitter, scene
    ):
        link = JITTERY_LINK if jitter else CALM_LINK
        client = ClientConfig(name="solo", scene=scene, codec=codec, height=16, width=16)
        fleet = simulate_fleet([client], link, n_frames=n_frames, seed=seed)
        solo = simulate_session(
            get_scene(scene), link, encoder=codec,
            n_frames=n_frames, height=16, width=16, seed=seed,
        )
        assert frame_fields(fleet.clients[0]) == frame_fields(solo)
        assert [f.encode_time_s for f in fleet.clients[0].frames] == [
            f.encode_time_s for f in solo.frames
        ]

    def test_adaptive_single_client_fleet_reproduces_adaptive_session(self):
        """The same property holds through the controller path."""
        link = WirelessLink(bandwidth_mbps=4.0, propagation_ms=3.0, jitter_ms=0.5)
        client = ClientConfig(name="solo", codec="raw", height=16, width=16)
        fleet = simulate_fleet(
            [client], link, n_frames=5, seed=11, controller="throughput"
        )
        solo = simulate_adaptive_session(
            get_scene("office"), link, "throughput",
            n_frames=5, height=16, width=16, seed=11, start_rung="raw",
        )
        assert frame_fields(fleet.clients[0]) == frame_fields(solo)
        assert fleet.clients[0].adaptive.rungs == solo.adaptive.rungs
        assert fleet.clients[0].adaptive.stall_time_s == solo.adaptive.stall_time_s


class TestPerClientJitterRngs:
    def test_adding_a_client_never_perturbs_existing_jitter_draws(self):
        """Satellite: spawned per-client RNGs.  Under strict priority
        the top client's drains are contention-free, so with stable
        per-client RNG streams its frame timings must match whether or
        not a second client exists — to float round-off, since alone it
        is priced by the solo path and in company by the event kernel.
        A different jitter draw would move them by milliseconds."""
        top = ClientConfig(name="top", codec="bd", height=16, width=16,
                           weight=10.0)
        extra = ClientConfig(name="extra", codec="raw", height=16, width=16)
        alone = simulate_fleet([top], JITTERY_LINK, scheduler="priority",
                               n_frames=3, seed=21).client("top").frames
        crowd = simulate_fleet([top, extra], JITTERY_LINK, scheduler="priority",
                               n_frames=3, seed=21).client("top").frames
        assert [f.payload_bits for f in crowd] == [f.payload_bits for f in alone]
        assert [f.transmit_time_s for f in crowd] == pytest.approx(
            [f.transmit_time_s for f in alone], rel=1e-12
        )


class TestBacklogPricing:
    def test_staggered_start_delays_first_frame(self):
        source = PrecomputedSource([(100,)])
        specs = [
            StreamSpec(name="early", source=source, n_frames=2, target_fps=1.0),
            StreamSpec(name="late", source=source, n_frames=2, target_fps=1.0,
                       start_s=10.0),
        ]
        engine = StreamingEngine(TOY_LINK)
        engine.run(specs, seed=0)
        ready = {
            (e.stream, e.frame_index): e.time_s
            for e in engine.last_events if e.kind == FRAME_READY
        }
        assert ready[("early", 0)] == 0.0
        assert ready[("late", 0)] == 10.0
        assert ready[("late", 1)] == 11.0

    def test_mixed_refresh_rates_run_on_their_own_clocks(self):
        """No fastest-client hack: each stream's frames arrive at its
        own interval and both stream their full frame count."""
        source = PrecomputedSource([(10,)])
        specs = [
            StreamSpec(name="fast", source=source, n_frames=4, target_fps=2.0),
            StreamSpec(name="slow", source=source, n_frames=2, target_fps=1.0),
        ]
        engine = StreamingEngine(TOY_LINK)
        outcomes = engine.run(specs, seed=0)
        ready = {
            (e.stream, e.frame_index): e.time_s
            for e in engine.last_events if e.kind == FRAME_READY
        }
        assert [ready[("fast", k)] for k in range(4)] == [0.0, 0.5, 1.0, 1.5]
        assert [ready[("slow", k)] for k in range(2)] == [0.0, 1.0]
        assert len(outcomes[0].frames) == 4 and len(outcomes[1].frames) == 2

    def test_fluid_contention_matches_gps_by_hand(self):
        """Two simultaneous equal-weight flows on a 100 b/s link: the
        100-bit payload drains at 50 b/s in 2 s, then the survivor
        finishes at full rate at t=4 — the classic GPS schedule."""
        specs = [
            StreamSpec(name="a", source=PrecomputedSource([(100,)]),
                       n_frames=1, target_fps=0.1),
            StreamSpec(name="b", source=PrecomputedSource([(300,)]),
                       n_frames=1, target_fps=0.1),
        ]
        outcomes = StreamingEngine(TOY_LINK).run(specs, seed=0)
        assert outcomes[0].frames[0].serialization_time_s == pytest.approx(2.0)
        assert outcomes[1].frames[0].serialization_time_s == pytest.approx(4.0)

    def test_priority_preempts_in_fluid_mode(self):
        specs = [
            StreamSpec(name="lo", source=PrecomputedSource([(100,)]),
                       n_frames=1, target_fps=0.1, weight=1.0),
            StreamSpec(name="hi", source=PrecomputedSource([(300,)]),
                       n_frames=1, target_fps=0.1, weight=2.0),
        ]
        outcomes = StreamingEngine(TOY_LINK, scheduler="priority").run(specs, seed=0)
        # hi owns the link for 3 s; lo's bits only flow afterwards.
        assert outcomes[1].frames[0].serialization_time_s == pytest.approx(3.0)
        assert outcomes[0].frames[0].serialization_time_s == pytest.approx(4.0)

    def test_backlog_queues_within_a_stream(self):
        """A 300-bit payload every second on a 100 b/s link: each frame
        waits behind its predecessors' unfinished airtime."""
        spec = StreamSpec(name="s", source=PrecomputedSource([(300,)]),
                          n_frames=3, target_fps=1.0)
        outcomes = StreamingEngine(TOY_LINK).run([spec], seed=0)
        transmits = [f.transmit_time_s for f in outcomes[0].frames]
        # Queue waits grow by 2 s per frame (3 s airtime, 1 s interval).
        assert transmits == pytest.approx([3.0, 5.0, 7.0])

    def test_traced_link_contention_integrates_the_trace(self):
        """Two equal flows across a rate step: capacity integration
        (not rate sampling) prices the drain.  Link: 200 b/s for the
        first second, then 100 b/s.  Two 200-bit payloads: together
        they drain 200 bits in the first second (100 each), then 100
        bits/s shared until each's remaining 100 bits drain at 50 b/s
        — finishing together at t = 3."""
        from repro.streaming.traces import BandwidthTrace

        trace = BandwidthTrace([0.0, 1.0], [200 / 1e6, 100 / 1e6])
        link = WirelessLink.traced(trace, propagation_ms=0.0)
        specs = [
            StreamSpec(name="a", source=PrecomputedSource([(200,)]),
                       n_frames=1, target_fps=0.1),
            StreamSpec(name="b", source=PrecomputedSource([(200,)]),
                       n_frames=1, target_fps=0.1),
        ]
        outcomes = StreamingEngine(link).run(specs, seed=0)
        for outcome in outcomes:
            assert outcome.frames[0].serialization_time_s == pytest.approx(3.0)


class TestEventLog:
    def test_every_frame_emits_the_three_event_kinds(self):
        spec = StreamSpec(name="s", source=PrecomputedSource([(100,)]),
                          n_frames=2, target_fps=1.0)
        engine = StreamingEngine(TOY_LINK)
        engine.run([spec], seed=0)
        kinds = [(e.kind, e.frame_index) for e in engine.last_events]
        for k in range(2):
            assert (FRAME_READY, k) in kinds
            assert (TRANSMIT_START, k) in kinds
            assert (TRANSMIT_DONE, k) in kinds


class TestSchedulersShares:
    def test_fair_shares_are_weight_proportional(self):
        assert FairShareScheduler().instantaneous_shares([1.0, 3.0]) == [0.25, 0.75]

    def test_priority_gives_all_to_heaviest(self):
        assert PriorityScheduler().instantaneous_shares([1.0, 2.0]) == [0.0, 1.0]
        # Ties break toward the first flow.
        assert PriorityScheduler().instantaneous_shares([1.0, 1.0]) == [1.0, 0.0]

    def test_shares_reject_bad_weights(self):
        with pytest.raises(ValueError, match="positive"):
            FairShareScheduler().instantaneous_shares([0.0])
        with pytest.raises(ValueError, match="positive"):
            PriorityScheduler().instantaneous_shares([-1.0])


class TestEngineValidation:
    def test_rejects_empty_and_duplicate_streams(self):
        engine = StreamingEngine(TOY_LINK)
        with pytest.raises(ValueError, match="at least one"):
            engine.run([])
        spec = StreamSpec(name="s", source=PrecomputedSource([(1,)]),
                          n_frames=1, target_fps=1.0)
        with pytest.raises(ValueError, match="duplicate"):
            engine.run([spec, spec])

    def test_stream_spec_validates(self):
        source = PrecomputedSource([(1,)])
        with pytest.raises(ValueError, match="n_frames"):
            StreamSpec(name="s", source=source, n_frames=0, target_fps=1.0)
        with pytest.raises(ValueError, match="target_fps"):
            StreamSpec(name="s", source=source, n_frames=1, target_fps=0.0)
        with pytest.raises(ValueError, match="start_s"):
            StreamSpec(name="s", source=source, n_frames=1, target_fps=1.0,
                       start_s=-1.0)
        with pytest.raises(ValueError, match="weight"):
            StreamSpec(name="s", source=source, n_frames=1, target_fps=1.0,
                       weight=0.0)

    def test_shared_validator_messages(self):
        with pytest.raises(ValueError, match="n_frames must be positive"):
            validate_stream_timing(n_frames=0)
        with pytest.raises(ValueError, match="target_fps must be positive"):
            validate_stream_timing(target_fps=-1)
        with pytest.raises(ValueError, match="encode_throughput"):
            validate_stream_timing(encode_throughput_mpixels_s=0)
        validate_stream_timing()  # nothing to check is fine

    def test_precomputed_source_validates(self):
        with pytest.raises(ValueError, match="at least one frame"):
            PrecomputedSource([])
        with pytest.raises(ValueError, match="same number of rungs"):
            PrecomputedSource([(1, 2), (1,)])


def fixed_one_rung_stream(rung_map, start_rung):
    """A fixed-controller stream over a one-rung (``nocom``) source."""
    return StreamSpec(
        name="s", source=PrecomputedSource([(1000,)]), n_frames=3, target_fps=1.0,
        adaptation=AdaptationState(
            FixedController(), QualityLadder.default(), start_rung, 1.0
        ),
        rung_map=rung_map,
    )


class TestRungMap:
    def test_map_longer_than_the_source_is_rejected(self):
        with pytest.raises(ValueError, match="stream 's': rung_map lists 2 rungs"):
            StreamingEngine(CALM_LINK).run([fixed_one_rung_stream((0, 1), start_rung=1)])

    def test_rung_outside_the_map_is_rejected(self):
        """Was silently sent at the map's first rung (``nocom``) while
        the stream's stats reported ``perceptual``."""
        engine = StreamingEngine(CALM_LINK)
        with pytest.raises(ValueError, match=r"stream 's': frame 0 chose rung 4 \(perceptual\)"):
            engine.run([fixed_one_rung_stream((0,), start_rung=4)])


@pytest.mark.xfail(
    strict=True,
    reason="TRANSMIT_DONE records a frame under the stream's current rung, "
    "which the next FRAME_READY's choose may already have moved",
)
def test_adaptive_stats_record_each_frame_at_its_own_rung():
    """Contending adaptive streams: a frame can finish after its
    stream's next frame was chosen, so ``record`` must be told the
    frame's rung.  Fixing it changes fleet digests that perfbench pins."""
    ladder = QualityLadder.default()
    source = PrecomputedSource([(960_000, 420_000, 330_000, 300_000, 260_000)])
    streams = [
        StreamSpec(
            name=f"s{index}", source=source, n_frames=60, target_fps=72.0,
            start_s=0.003 * index,
            adaptation=AdaptationState(get_controller("buffer"), ladder, 0, 1.0 / 72.0),
        )
        for index in range(3)
    ]
    link = WirelessLink.traced(BandwidthTrace.square(60.0, 15.0, 0.25))
    for outcome in StreamingEngine(link).run(streams, seed=1):
        assert outcome.adaptive.rungs == tuple(f.rung for f in outcome.frames)
