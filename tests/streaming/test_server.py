"""Tests for the multi-client fleet engine and link schedulers."""

import pytest

from repro.codecs.ladder import QualityLadder
from repro.scenes.display import QUEST2_DISPLAY
from repro.scenes.gaze import GazeSample
from repro.streaming.engine import (
    SCHEDULER_CHOICES,
    FairShareScheduler,
    FrameTiming,
    PrecomputedSource,
    PriorityScheduler,
    StreamingEngine,
    StreamSpec,
    get_scheduler,
)
from repro.streaming.link import WirelessLink
from repro.streaming.fleet import (
    ClientConfig,
    ClientReport,
    FleetReport,
    encode_client_streams,
    simulate_fleet,
    solo_sustainable_fps,
)

#: 100 bits per second: scheduler arithmetic stays in whole seconds.
TOY_LINK = WirelessLink(bandwidth_mbps=100 / 1e6, propagation_ms=0.0)
SHARED_LINK = WirelessLink(bandwidth_mbps=200.0, propagation_ms=3.0)


def small_clients(n, codec="bd", **kwargs):
    scenes = ("office", "fortnite", "skyline", "dumbo", "thai", "monkey")
    return [
        ClientConfig(
            name=f"c{i}", scene=scenes[i % len(scenes)], codec=codec,
            height=48, width=48, **kwargs,
        )
        for i in range(n)
    ]


def drain_times(scheduler, payloads, weights):
    """Airtime of one frame per stream, every frame ready at t = 0."""
    specs = [
        StreamSpec(
            name=f"s{i}", source=PrecomputedSource([(bits,)]), n_frames=1,
            target_fps=0.01, weight=weight,
        )
        for i, (bits, weight) in enumerate(zip(payloads, weights))
    ]
    outcomes = StreamingEngine(TOY_LINK, scheduler=scheduler).run(specs)
    return [outcome.frames[0].serialization_time_s for outcome in outcomes]


class TestFairShareScheduler:
    def test_weights_bias_shares(self):
        # 3:1 weights: client 0 drains its 150 bits at 75 b/s in 2 s
        # while client 1 got 25 b/s; the rest finishes at full rate.
        assert drain_times("fair", [150, 150], [3.0, 1.0]) == pytest.approx([2.0, 3.0])

    def test_last_finisher_equals_total_airtime(self):
        # Work conservation: the link never idles while bits remain.
        payloads = [70, 330, 200]
        finish = drain_times("fair", payloads, [1.0, 1.0, 1.0])
        assert max(finish) == pytest.approx(sum(payloads) / 100.0)

    def test_zero_payload_never_occupies_link(self):
        assert drain_times("fair", [0, 100], [1.0, 1.0]) == pytest.approx([0.0, 1.0])

    def test_single_client_gets_full_link(self):
        assert drain_times("fair", [250], [1.0]) == pytest.approx([2.5])


class TestPriorityScheduler:
    def test_ties_break_in_client_order(self):
        assert drain_times("priority", [100, 100], [1.0, 1.0]) == pytest.approx([1.0, 2.0])

    def test_top_client_is_uncontended(self):
        alone = drain_times("priority", [300], [1.0])[0]
        crowded = drain_times("priority", [300, 500, 500], [9.0, 1.0, 1.0])[0]
        assert crowded == pytest.approx(alone)


class TestSchedulerValidation:
    def test_registry_resolves_names(self):
        assert set(SCHEDULER_CHOICES) == {"fair", "priority"}
        assert isinstance(get_scheduler("fair"), FairShareScheduler)
        instance = PriorityScheduler()
        assert get_scheduler(instance) is instance

    def test_unknown_scheduler(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            get_scheduler("round-robin")


class TestClientConfig:
    def test_rejects_unknown_codec(self):
        with pytest.raises(ValueError, match="unknown codec"):
            ClientConfig(name="c", codec="h265")

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="non-empty"):
            ClientConfig(name="")
        with pytest.raises(ValueError, match="8x8"):
            ClientConfig(name="c", height=4)
        with pytest.raises(ValueError, match="weight"):
            ClientConfig(name="c", weight=0.0)
        with pytest.raises(ValueError, match="fixation"):
            ClientConfig(name="c", fixation=(1.5, 0.5))

    def test_gaze_trace_must_be_sorted(self):
        trace = [GazeSample(1.0, 0.5, 0.5), GazeSample(0.0, 0.5, 0.5)]
        with pytest.raises(ValueError, match="ascending"):
            ClientConfig(name="c", gaze_trace=trace)

    def test_fixation_follows_trace(self):
        trace = (
            GazeSample(0.0, 0.2, 0.2),
            GazeSample(0.5, 0.8, 0.6),
        )
        client = ClientConfig(name="c", gaze_trace=trace)
        assert client.fixation_at(0.1) == (0.2, 0.2)
        assert client.fixation_at(0.7) == (0.8, 0.6)

    def test_gaze_trace_is_timed_from_the_join(self):
        """Frame k of a late joiner reads its trace at ``k / target_fps``."""
        trace = (GazeSample(0.0, 0.1, 0.1), GazeSample(0.5, 0.9, 0.9))

        def stream(**kwargs):
            client = ClientConfig(
                name="c", codec="perceptual", height=16, width=16, **kwargs
            )
            ((_, _, rows),) = encode_client_streams(
                [client], 1, QUEST2_DISPLAY, QualityLadder.default()
            )
            return rows

        late = stream(gaze_trace=trace, start_s=0.5)
        assert late == stream(gaze_trace=trace)
        assert late != stream(fixation=(0.9, 0.9))

    def test_static_fixation_without_trace(self):
        client = ClientConfig(name="c", fixation=(0.3, 0.4))
        assert client.fixation_at(123.0) == (0.3, 0.4)


@pytest.fixture(scope="module")
def fleet():
    return simulate_fleet(small_clients(3), SHARED_LINK, n_frames=2, seed=5)


class TestContention:
    def test_every_client_strictly_slower_than_solo(self, fleet):
        """The acceptance criterion: contention costs every client
        frame rate relative to the single-client equivalent."""
        for report in fleet.clients:
            assert report.sustainable_fps < solo_sustainable_fps(report, SHARED_LINK)

    def test_single_client_fleet_matches_solo(self):
        report = simulate_fleet(
            small_clients(1), SHARED_LINK, n_frames=2, seed=5
        ).clients[0]
        assert report.sustainable_fps == pytest.approx(
            solo_sustainable_fps(report, SHARED_LINK)
        )

    def test_more_clients_more_contention(self, fleet):
        crowd = simulate_fleet(small_clients(6), SHARED_LINK, n_frames=2, seed=5)
        assert (
            crowd.client("c0").sustainable_fps < fleet.client("c0").sustainable_fps
        )

    def test_priority_shields_top_client(self):
        clients = small_clients(3)
        heavy = [
            ClientConfig(
                name=c.name, scene=c.scene, codec=c.codec,
                height=c.height, width=c.width,
                weight=10.0 if i == 0 else 1.0,
            )
            for i, c in enumerate(clients)
        ]
        report = simulate_fleet(
            heavy, SHARED_LINK, scheduler="priority", n_frames=2, seed=5
        ).clients[0]
        assert report.sustainable_fps == pytest.approx(
            solo_sustainable_fps(report, SHARED_LINK)
        )


class TestFleetReport:
    def test_total_traffic_sums_payloads(self, fleet):
        expected = sum(f.payload_bits for r in fleet.clients for f in r.frames)
        assert fleet.total_traffic_bits == expected

    def test_utilization_is_demand_over_capacity(self, fleet):
        demand = sum(r.mean_payload_bits * r.target_fps for r in fleet.clients)
        assert fleet.link_utilization == pytest.approx(
            demand / (SHARED_LINK.bandwidth_mbps * 1e6)
        )

    def test_zero_frame_fleet_has_zero_utilization(self):
        # No client delivered a frame: the horizon is zero, and the
        # fleet offered no load — not a ZeroDivisionError.
        idle = FleetReport(
            clients=(
                ClientReport(encoder="bd", frames=[], target_fps=72.0, name="idle"),
            ),
            link=SHARED_LINK,
            scheduler="fair",
            n_frames=0,
        )
        assert idle.horizon_s == 0.0
        assert idle.link_utilization == 0.0

    def test_presence_ticks_each_clients_own_clock(self):
        # Four frames are 4/20 s of presence at 20 fps but 4/10 s at
        # 10 fps: the slow client sets the horizon, and the fast
        # client's demand counts for half of it.
        def timings(n):
            return [
                FrameTiming(
                    frame_index=i,
                    payload_bits=1000,
                    encode_time_s=0.0,
                    serialization_time_s=0.001,
                    transmit_time_s=0.001,
                )
                for i in range(n)
            ]

        clients = (
            ClientReport(encoder="bd", frames=timings(4), target_fps=20.0, name="fast"),
            ClientReport(encoder="bd", frames=timings(4), target_fps=10.0, name="slow"),
        )
        fleet = FleetReport(
            clients=clients, link=SHARED_LINK, scheduler="fair", n_frames=4
        )
        assert fleet.horizon_s == pytest.approx(4 / 10.0)
        demand = 1000 * 20.0 * 0.5 + 1000 * 10.0
        assert fleet.link_utilization == pytest.approx(
            demand / (SHARED_LINK.bandwidth_mbps * 1e6)
        )

    def test_tail_latency_bounds_mean(self, fleet):
        assert fleet.tail_latency_s(95.0) >= fleet.mean_latency_s
        assert fleet.tail_latency_s(100.0) >= fleet.tail_latency_s(50.0)

    def test_client_lookup(self, fleet):
        assert fleet.client("c1").name == "c1"
        with pytest.raises(KeyError, match="no client"):
            fleet.client("nope")

    def test_summary_mentions_utilization(self, fleet):
        assert "utilization" in fleet.summary()
        assert isinstance(fleet, FleetReport)

    def test_meeting_target_counts_meets_target(self, fleet):
        assert fleet.clients_meeting_target == sum(
            r.meets_target for r in fleet.clients
        )


class TestParallelism:
    def test_n_jobs_bit_identical(self):
        serial = simulate_fleet(small_clients(3), SHARED_LINK, n_frames=2, seed=5)
        parallel = simulate_fleet(
            small_clients(3), SHARED_LINK, n_frames=2, n_jobs=3, seed=5
        )
        assert [f.payload_bits for r in serial.clients for f in r.frames] == [
            f.payload_bits for r in parallel.clients for f in r.frames
        ]
        assert [r.sustainable_fps for r in serial.clients] == [
            r.sustainable_fps for r in parallel.clients
        ]

    def test_deterministic_given_seed(self):
        a = simulate_fleet(small_clients(2), SHARED_LINK, n_frames=2, seed=9)
        b = simulate_fleet(small_clients(2), SHARED_LINK, n_frames=2, seed=9)
        assert a.mean_latency_s == b.mean_latency_s


class TestFleetValidation:
    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError, match="at least one client"):
            simulate_fleet([], SHARED_LINK)

    def test_rejects_duplicate_names(self):
        clients = [ClientConfig(name="dup"), ClientConfig(name="dup")]
        with pytest.raises(ValueError, match="duplicate"):
            simulate_fleet(clients, SHARED_LINK)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="n_frames"):
            simulate_fleet(small_clients(1), SHARED_LINK, n_frames=0)
        with pytest.raises(ValueError, match="n_jobs"):
            simulate_fleet(small_clients(1), SHARED_LINK, n_jobs=0)

    def test_rejects_unknown_scheduler(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            simulate_fleet(small_clients(1), SHARED_LINK, scheduler="edf")


class TestJitter:
    def test_jitter_affects_latency_not_fps(self):
        jittery = WirelessLink(bandwidth_mbps=200.0, propagation_ms=3.0, jitter_ms=2.0)
        calm = simulate_fleet(small_clients(2), SHARED_LINK, n_frames=2, seed=3)
        noisy = simulate_fleet(small_clients(2), jittery, n_frames=2, seed=3)
        assert noisy.mean_latency_s > calm.mean_latency_s
        for a, b in zip(calm.clients, noisy.clients):
            assert a.sustainable_fps == pytest.approx(b.sustainable_fps)

    def test_gaze_trace_changes_payloads(self):
        # A moving gaze relocates the cheap-to-encode periphery.
        static = ClientConfig(name="s", codec="perceptual", height=48, width=48)
        moving = ClientConfig(
            name="s", codec="perceptual", height=48, width=48,
            gaze_trace=(GazeSample(0.0, 0.1, 0.1),),
        )
        a = simulate_fleet([static], SHARED_LINK, n_frames=1, seed=0)
        b = simulate_fleet([moving], SHARED_LINK, n_frames=1, seed=0)
        assert (
            a.clients[0].mean_payload_bits != b.clients[0].mean_payload_bits
        )
