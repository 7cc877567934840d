"""Mid-session departures: ``stop_s`` through window math, spec, fleet."""

import pytest

from repro.streaming.fleet import ClientConfig, simulate_fleet
from repro.streaming.link import WirelessLink
from repro.streaming.engine import (
    PrecomputedSource,
    StreamSpec,
    frames_within_window,
)
from repro.streaming.validation import validate_stream_window

LINK = WirelessLink(bandwidth_mbps=200.0, propagation_ms=2.0)


class TestFramesWithinWindow:
    def test_no_departure_streams_everything(self):
        assert frames_within_window(10, 30.0) == 10
        assert frames_within_window(10, 30.0, stop_s=None) == 10

    def test_departure_cuts_ready_at_or_after_stop(self):
        # Frames at 10 fps are ready at 0.0, 0.1, 0.2, ...; a stop at
        # 0.25 admits ready times strictly before it: frames 0, 1, 2.
        assert frames_within_window(10, 10.0, stop_s=0.25) == 3

    def test_stop_exactly_on_a_ready_time_excludes_it(self):
        assert frames_within_window(10, 10.0, stop_s=0.3) == 3

    def test_start_offset_shifts_the_window(self):
        # Joining at 1.0 and leaving at 1.25 is the same window as
        # joining at 0 and leaving at 0.25.
        assert frames_within_window(10, 10.0, start_s=1.0, stop_s=1.25) == 3

    def test_valid_window_always_admits_frame_zero(self):
        assert frames_within_window(10, 10.0, stop_s=1e-6) == 1

    def test_never_exceeds_n_frames(self):
        assert frames_within_window(3, 10.0, stop_s=100.0) == 3


class TestWindowValidation:
    def test_stop_not_after_start_rejected(self):
        with pytest.raises(ValueError, match="stop_s"):
            validate_stream_window(1.0, 1.0)
        with pytest.raises(ValueError, match="stop_s"):
            validate_stream_window(1.0, 0.5)

    def test_spec_and_client_config_validate_the_same_window(self):
        source = PrecomputedSource([(1000, 500)])
        with pytest.raises(ValueError, match="stop_s"):
            StreamSpec(
                name="s", source=source, n_frames=4, target_fps=30.0,
                start_s=2.0, stop_s=1.0,
            )
        with pytest.raises(ValueError, match="stop_s"):
            ClientConfig(
                name="c", scene="office", height=32, width=32,
                start_s=2.0, stop_s=1.0,
            )

    def test_spec_frames_to_stream(self):
        source = PrecomputedSource([(1000, 500)])
        spec = StreamSpec(
            name="s", source=source, n_frames=10, target_fps=10.0, stop_s=0.25
        )
        assert spec.frames_to_stream == 3


class TestFleetDepartures:
    @pytest.fixture(scope="class")
    def fleet(self):
        clients = [
            ClientConfig(
                name="stays", scene="office", codec="bd", height=32, width=32,
                target_fps=10.0,
            ),
            ClientConfig(
                name="leaves", scene="fortnite", codec="bd", height=32, width=32,
                target_fps=10.0, stop_s=0.25,
            ),
        ]
        return simulate_fleet(clients, LINK, n_frames=6)

    def test_departed_client_streams_fewer_frames(self, fleet):
        assert len(fleet.client("stays").frames) == 6
        assert len(fleet.client("leaves").frames) == 3

    def test_report_records_the_window(self, fleet):
        assert fleet.client("leaves").stop_s == 0.25
        assert fleet.client("stays").stop_s is None
        assert fleet.client("leaves").active_time_s == pytest.approx(0.3)

    def test_horizon_is_the_last_presence(self, fleet):
        assert fleet.horizon_s == pytest.approx(0.6)

    def test_departure_discounts_link_utilization(self, fleet):
        # The departed client's demand is weighted by presence: its
        # contribution shrinks by active/horizon, so the fleet asks
        # for less than two always-on clients would.
        always_on = simulate_fleet(
            [
                ClientConfig(
                    name="stays", scene="office", codec="bd",
                    height=32, width=32, target_fps=10.0,
                ),
                ClientConfig(
                    name="leaves", scene="fortnite", codec="bd",
                    height=32, width=32, target_fps=10.0,
                ),
            ],
            LINK,
            n_frames=6,
        )
        assert fleet.link_utilization < always_on.link_utilization

    def test_departure_frees_air_time_for_the_rest(self, fleet):
        # After the departure the survivor has the link to itself, so
        # its late-frame drains cannot be slower than its contended
        # early ones (identical payload statistics per frame pair).
        stays = fleet.client("stays").frames
        assert stays[4].serialization_time_s <= stays[1].serialization_time_s * 1.5
