"""Tests for adaptive rate control: ladder, controllers, simulators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs.ladder import QualityLadder, QualityRung
from repro.experiments.common import ExperimentConfig
from repro.experiments.fleet import run_fleet
from repro.scenes.library import get_scene
from repro.streaming.adaptive import (
    CONTROLLER_CHOICES,
    BufferController,
    FixedController,
    ThroughputController,
    get_controller,
    simulate_adaptive_session,
)
from repro.streaming.engine import AdaptationState, ControllerContext
from repro.streaming.link import WirelessLink
from repro.streaming.fleet import ClientConfig, simulate_fleet
from repro.streaming.session import ENCODER_CHOICES, simulate_session
from repro.streaming.traces import BandwidthTrace

SHARED_LINK = WirelessLink(bandwidth_mbps=200.0, propagation_ms=3.0, jitter_ms=1.0)


def ctx(**overrides):
    """A ControllerContext with innocuous defaults."""
    values = dict(
        frame_index=3,
        time_s=0.05,
        interval_s=1 / 72,
        rung_bits=(1000, 800, 600, 400, 200),
        backlog_s=0.0,
        goodput_bps=None,
        link_bps=1e9,
        current_rung=2,
    )
    values.update(overrides)
    return ControllerContext(**values)


@pytest.fixture(scope="module")
def ladder():
    return QualityLadder.default()


class TestQualityLadder:
    def test_default_order_and_quality(self, ladder):
        assert ladder.names == ("nocom", "png", "bd", "variable-bd", "perceptual")
        qualities = [rung.quality for rung in ladder]
        assert qualities == sorted(qualities, reverse=True)
        assert all(0 < q <= 1 for q in qualities)

    def test_index_of_accepts_aliases(self, ladder):
        assert ladder.index_of("nocom") == 0
        assert ladder.index_of("raw") == 0  # codec alias
        assert ladder.index_of("perceptual") == len(ladder) - 1
        with pytest.raises(KeyError, match="no rung"):
            ladder.index_of("h265")

    def test_rejects_bad_ladders(self):
        rung = QualityRung(name="a", codec="bd", quality=0.5)
        with pytest.raises(ValueError, match="at least one"):
            QualityLadder(rungs=())
        with pytest.raises(ValueError, match="duplicate"):
            QualityLadder(rungs=(rung, rung))
        with pytest.raises(ValueError, match="non-increasing"):
            QualityLadder(
                rungs=(rung, QualityRung(name="b", codec="png", quality=0.9))
            )
        with pytest.raises(ValueError, match="quality"):
            QualityRung(name="x", codec="bd", quality=1.5)


class TestControllers:
    def test_registry(self):
        assert set(CONTROLLER_CHOICES) == {"fixed", "buffer", "throughput"}
        instance = ThroughputController()
        assert get_controller(instance) is instance
        assert isinstance(get_controller("buffer"), BufferController)
        with pytest.raises(ValueError, match="unknown controller"):
            get_controller("bola")

    def test_fixed_holds_or_pins(self, ladder):
        assert FixedController().select_rung(ladder, ctx(current_rung=2)) == 2
        assert FixedController(rung=1).select_rung(ladder, ctx()) == 1
        assert FixedController(rung="perceptual").select_rung(ladder, ctx()) == 4

    @pytest.mark.parametrize("path", ["fleet", "cohort-fleet", "adaptive-session"])
    def test_out_of_range_fixed_rung_raises_on_every_path(self, path):
        """One resolution of the pinned index: no path clamps it or
        fails with a bare IndexError."""
        controller = FixedController(rung=99)
        with pytest.raises(ValueError, match="rung 99 outside ladder of 5 rungs"):
            if path == "fleet":
                simulate_fleet(
                    [ClientConfig(name="a", height=16, width=16)], SHARED_LINK,
                    n_frames=1, controller=controller,
                )
            elif path == "cohort-fleet":
                run_fleet(
                    ExperimentConfig(height=16, width=16, n_frames=1),
                    n_clients=2, cohorts=True, controller=controller,
                )
            else:
                simulate_adaptive_session(
                    get_scene("office"), SHARED_LINK, controller,
                    n_frames=1, height=16, width=16,
                )

    def test_buffer_steps_with_occupancy(self, ladder):
        controller = BufferController()
        assert (controller.high_s, controller.low_s) == (0.01, 0.002)
        assert controller.select_rung(ladder, ctx(backlog_s=0.02)) == 3
        assert controller.select_rung(ladder, ctx(backlog_s=0.0)) == 1
        assert controller.select_rung(ladder, ctx(backlog_s=0.005)) == 2

    def test_throughput_picks_best_fitting_rung(self, ladder):
        controller = ThroughputController()
        interval = 1 / 72
        assert controller.safety == 0.8
        # Budget of 700 bits/interval after the safety factor: first
        # fitting rung is index 2.
        budget_bps = 700 / (controller.safety * interval)
        assert (
            controller.select_rung(
                ladder, ctx(goodput_bps=budget_bps, link_bps=1e9)
            )
            == 2
        )
        # The PHY clamp reacts even when the EWMA is still optimistic.
        assert (
            controller.select_rung(
                ladder, ctx(goodput_bps=1e9, link_bps=budget_bps)
            )
            == 2
        )
        # The safety factor keeps headroom: 800 bits of capacity per
        # interval budgets 640, so the 800-bit rung does not fit.
        assert (
            controller.select_rung(
                ladder, ctx(goodput_bps=800 / interval, link_bps=1e9)
            )
            == 2
        )
        # Nothing fits: fall back to the cheapest rung.
        assert (
            controller.select_rung(ladder, ctx(goodput_bps=1.0, link_bps=1.0))
            == 4
        )


class TestAdaptationState:
    def test_accounting(self, ladder):
        interval = 0.1
        state = AdaptationState(FixedController(), ladder, 0, interval)
        state.choose(0, 0.0, (100, 80, 60, 40, 20), 1e6)
        state.record(100, 0.25)
        stats = state.stats()
        assert stats.rungs == ("nocom",)
        assert stats.stall_time_s == pytest.approx(0.15)
        assert state.backlog_s == pytest.approx(0.15)
        assert state.goodput_bps == pytest.approx(400.0)
        assert stats.time_in_rung == {"nocom": interval}
        assert stats.mean_quality == 1.0

    def test_stall_counts_backlog_growth_once(self, ladder):
        """A persistent pipeline delay is constant latency, not an
        ever-growing stall: only backlog *growth* accrues."""
        interval = 0.1
        state = AdaptationState(FixedController(), ladder, 0, interval)
        state.choose(0, 0.0, (100,) * 5, 1e6)
        state.record(100, 0.25)  # falls 0.15 s behind
        for index in range(1, 5):
            state.choose(index, index * interval, (100,) * 5, 1e6)
            state.record(100, interval)  # keeps pace: backlog constant
        stats = state.stats()
        assert state.backlog_s == pytest.approx(0.15)
        assert stats.stall_time_s == pytest.approx(0.15)  # charged once

    def test_switch_counting_ignores_first_frame(self, ladder):
        state = AdaptationState(FixedController(rung=3), ladder, 0, 0.1)
        state.choose(0, 0.0, (1, 1, 1, 1, 1), 1e6)  # 0 -> 3, before any frame
        state.record(1, 0.0)
        state.choose(1, 0.1, (1, 1, 1, 1, 1), 1e6)  # stays 3
        state.record(1, 0.0)
        assert state.stats().rung_switches == 0

    def test_validates_inputs(self, ladder):
        with pytest.raises(ValueError, match="start_rung"):
            AdaptationState(FixedController(), ladder, 99, 0.1)
        with pytest.raises(ValueError, match="interval_s"):
            AdaptationState(FixedController(), ladder, 0, 0.0)


class TestAdaptiveSession:
    def test_report_carries_adaptation(self):
        link = WirelessLink(bandwidth_mbps=500.0, propagation_ms=3.0)
        report = simulate_adaptive_session(
            get_scene("office"), link, "throughput", n_frames=4, height=32, width=32
        )
        stats = report.adaptive
        assert report.encoder == "adaptive:throughput"
        assert len(stats.rungs) == 4
        assert set(report.ladder) == set(QualityLadder.default().names)
        assert all(frame.rung in report.ladder for frame in report.frames)
        assert sum(stats.time_in_rung.values()) == pytest.approx(4 / 72.0)

    def test_rejects_bad_arguments(self):
        link = WirelessLink(bandwidth_mbps=500.0)
        scene = get_scene("office")
        with pytest.raises(ValueError, match="n_frames"):
            simulate_adaptive_session(scene, link, n_frames=0)
        with pytest.raises(ValueError, match="at least one frame"):
            simulate_adaptive_session(scene, link, n_frames=2, rung_streams=[])
        with pytest.raises(ValueError, match="one size per rung"):
            simulate_adaptive_session(scene, link, n_frames=2, rung_streams=[(1, 2)])

    def test_precomputed_rung_streams_skip_encoding(self):
        link = WirelessLink(bandwidth_mbps=500.0, propagation_ms=3.0)
        streams = [(5000, 4000, 3000, 2000, 1000), (5200, 4100, 3100, 2100, 1100)]
        report = simulate_adaptive_session(
            get_scene("office"), link, FixedController(rung=0),
            n_frames=4, rung_streams=streams,
        )
        payloads = [frame.payload_bits for frame in report.frames]
        assert payloads == [5000, 5200, 5000, 5200]  # cycles the streams

    def test_session_controller_starts_on_requested_encoder(self):
        """A fixed controller started on an encoder's rung reproduces
        the pinned session's payloads for that encoder."""
        link = WirelessLink(bandwidth_mbps=500.0, propagation_ms=3.0)
        scene = get_scene("office")
        kwargs = dict(n_frames=2, height=32, width=32, seed=4)
        pinned = simulate_session(scene, link, encoder="bd", **kwargs)
        adaptive = simulate_adaptive_session(
            scene, link, "fixed", start_rung="bd", **kwargs
        )
        assert adaptive.adaptive.rungs == ("bd", "bd")
        assert [f.payload_bits for f in adaptive.frames] == [
            f.payload_bits for f in pinned.frames
        ]

    @settings(max_examples=8, deadline=None)
    @given(
        at_frame=st.integers(min_value=2, max_value=6),
        scene_name=st.sampled_from(("office", "fortnite")),
    )
    def test_throughput_steps_down_after_a_step_down_trace(
        self, at_frame, scene_name
    ):
        """Property: on a step-down trace the throughput controller
        moves to a cheaper rung within its adaptation window."""
        interval = 1 / 72
        # High phase fits the raw rung comfortably; the faded rate
        # cannot carry raw (2*32*32*24 bits/frame needs ~3.5 Mbps).
        trace = BandwidthTrace.step_down(8.0, 1.5, at_s=at_frame * interval)
        link = WirelessLink.traced(trace, propagation_ms=3.0)
        report = simulate_adaptive_session(
            get_scene(scene_name), link, "throughput",
            n_frames=at_frame + 4, height=32, width=32,
        )
        names = list(QualityLadder.default().names)
        indices = [names.index(rung) for rung in report.adaptive.rungs]
        assert indices[at_frame - 1] == 0  # still on raw before the fade
        # Within two frames of the fade the controller has stepped down.
        assert max(indices[at_frame : at_frame + 2]) > 0
        assert report.adaptive.rung_switches >= 1


class TestFleetAdaptive:
    @settings(max_examples=6, deadline=None)
    @given(
        n_clients=st.integers(min_value=1, max_value=3),
        codec=st.sampled_from(ENCODER_CHOICES),
        seed=st.integers(min_value=0, max_value=2**16),
        scheduler=st.sampled_from(("fair", "priority")),
    )
    def test_fixed_controller_reproduces_pinned_fleet_bit_for_bit(
        self, n_clients, codec, seed, scheduler
    ):
        """Property: ``controller="fixed"`` is the pre-adaptive engine."""
        clients = [
            ClientConfig(name=f"c{i}", codec=codec, height=16, width=16)
            for i in range(n_clients)
        ]
        kwargs = dict(scheduler=scheduler, n_frames=2, seed=seed)
        legacy = simulate_fleet(clients, SHARED_LINK, **kwargs)
        fixed = simulate_fleet(clients, SHARED_LINK, controller="fixed", **kwargs)
        for a, b in zip(legacy.clients, fixed.clients):
            assert [f.payload_bits for f in a.frames] == [
                f.payload_bits for f in b.frames
            ]
            assert [f.serialization_time_s for f in a.frames] == [
                f.serialization_time_s for f in b.frames
            ]
            assert [f.transmit_time_s for f in a.frames] == [
                f.transmit_time_s for f in b.frames
            ]
        assert legacy.controller is None and fixed.controller == "fixed"

    def test_fixed_fleet_reports_pinned_rungs(self):
        clients = [
            ClientConfig(name="a", codec="perceptual", height=16, width=16),
            ClientConfig(name="b", codec="raw", height=16, width=16),
        ]
        report = simulate_fleet(
            clients, SHARED_LINK, n_frames=2, controller="fixed"
        )
        assert report.client("a").adaptive.rungs == ("perceptual", "perceptual")
        assert report.client("b").adaptive.rungs == ("nocom", "nocom")
        assert report.total_rung_switches == 0
        assert report.is_adaptive
        assert "controller fixed" in report.summary()

    def test_contended_clients_adapt_independently(self):
        # A link generous to one 16x16 client but tight for four makes
        # contended clients step down while keeping quality reporting.
        link = WirelessLink(bandwidth_mbps=2.5, propagation_ms=3.0)
        clients = [
            ClientConfig(name=f"c{i}", codec="raw", height=16, width=16)
            for i in range(4)
        ]
        report = simulate_fleet(
            clients, link, n_frames=6, controller="throughput"
        )
        assert report.total_rung_switches > 0
        assert report.mean_quality is not None
        assert 0 < report.mean_quality < 1.0
        per_client = {r.name: r.adaptive.rungs for r in report.clients}
        assert len(per_client) == 4

    def test_adapters_use_per_client_intervals(self):
        """Deadlines and dwell times follow each client's own refresh
        rate, even though fleet rounds tick at the fastest one."""
        clients = [
            ClientConfig(name="fast", codec="raw", height=16, width=16,
                         target_fps=72.0),
            ClientConfig(name="slow", codec="raw", height=16, width=16,
                         target_fps=36.0),
        ]
        report = simulate_fleet(
            clients, SHARED_LINK, n_frames=4, controller="fixed"
        )
        fast = sum(report.client("fast").adaptive.time_in_rung.values())
        slow = sum(report.client("slow").adaptive.time_in_rung.values())
        assert fast == pytest.approx(4 / 72.0)
        assert slow == pytest.approx(4 / 36.0)

    def test_non_adaptive_report_has_no_adaptive_fields(self):
        clients = [ClientConfig(name="a", height=16, width=16)]
        report = simulate_fleet(clients, SHARED_LINK, n_frames=1)
        assert report.clients[0].adaptive is None
        assert not report.is_adaptive
        assert report.mean_quality is None
        assert report.total_stall_time_s == 0.0
        assert "controller" not in report.summary()
