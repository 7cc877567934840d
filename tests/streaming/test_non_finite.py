"""NaN and infinite inputs fail up front, naming the parameter.

A NaN compares false both ways, so it slips past every ``<= 0`` guard;
the event kernel orders completions by comparing finish times, and an
infinity prices a payload at zero or infinite time.  Links, bandwidth
traces and stream specs therefore reject non-finite values with a
``ValueError`` that names the offending parameter, and ``repro fleet``
exits 2 on a non-finite ``--bandwidth``.  The per-event queries (a
trace's or link's rate, capacity and finish time, and the schedulers'
shares) write each guard so that NaN fails it.  Finite weights whose
sum overflows to infinity fail too, in both engines: a fair share of
``w / inf`` is 0 and no frame would ever drain.
"""

from __future__ import annotations

import warnings

import pytest

from repro.cli import main
from repro.streaming.cohort import CohortSpec, plan_member_links
from repro.streaming.engine import (
    FairShareScheduler,
    PrecomputedSource,
    PriorityScheduler,
    StreamingEngine,
    StreamSpec,
)
from repro.streaming.link import WirelessLink
from repro.streaming.fleet import ClientConfig
from repro.streaming.traces import BandwidthTrace
from repro.streaming.validation import validate_stream_timing, validate_stream_window

NAN, INF = float("nan"), float("inf")

LINK_CASES = {
    "trace-nan-time": ("times_s", lambda: BandwidthTrace([0.0, NAN], [400.0, 100.0])),
    "trace-inf-time": ("times_s", lambda: BandwidthTrace([0.0, INF], [400.0, 100.0])),
    "trace-nan-rate": ("rates_mbps", lambda: BandwidthTrace.constant(NAN)),
    "trace-inf-rate": ("rates_mbps", lambda: BandwidthTrace.constant(INF)),
    "square-nan-high": ("high_mbps", lambda: BandwidthTrace.square(NAN, 100.0, 0.5)),
    "square-nan-low": ("low_mbps", lambda: BandwidthTrace.square(400.0, NAN, 0.5)),
    "square-nan-period": ("period_s", lambda: BandwidthTrace.square(400.0, 100.0, NAN)),
    "square-inf-period": ("period_s", lambda: BandwidthTrace.square(400.0, 100.0, INF)),
    "square-inf-horizon": (
        "horizon_s", lambda: BandwidthTrace.square(400.0, 100.0, 0.5, horizon_s=INF)
    ),
    "step-nan-before": ("before_mbps", lambda: BandwidthTrace.step_down(NAN, 50.0, 2.0)),
    "step-inf-after": ("after_mbps", lambda: BandwidthTrace.step_down(400.0, INF, 2.0)),
    "step-nan-at": ("at_s", lambda: BandwidthTrace.step_down(400.0, 50.0, NAN)),
    "step-inf-at": ("at_s", lambda: BandwidthTrace.step_down(400.0, 50.0, INF)),
    "markov-nan-level": (
        "levels_mbps", lambda: BandwidthTrace.markov([300.0, NAN], p_switch=0.5)
    ),
    "markov-inf-level": (
        "levels_mbps", lambda: BandwidthTrace.markov([INF, 60.0], p_switch=0.5)
    ),
    "markov-nan-dt": (
        "dt_s", lambda: BandwidthTrace.markov([300.0, 60.0], p_switch=0.5, dt_s=NAN)
    ),
    "markov-inf-horizon": (
        "horizon_s",
        lambda: BandwidthTrace.markov([300.0, 60.0], p_switch=0.5, horizon_s=INF),
    ),
    "link-nan-bandwidth": ("bandwidth_mbps", lambda: WirelessLink(bandwidth_mbps=NAN)),
    "link-inf-bandwidth": ("bandwidth_mbps", lambda: WirelessLink(bandwidth_mbps=INF)),
    "link-nan-propagation": (
        "propagation_ms", lambda: WirelessLink(bandwidth_mbps=100.0, propagation_ms=NAN)
    ),
    "link-inf-propagation": (
        "propagation_ms", lambda: WirelessLink(bandwidth_mbps=100.0, propagation_ms=INF)
    ),
    "link-nan-jitter": (
        "jitter_ms", lambda: WirelessLink(bandwidth_mbps=100.0, jitter_ms=NAN)
    ),
    "link-inf-jitter": (
        "jitter_ms", lambda: WirelessLink(bandwidth_mbps=100.0, jitter_ms=INF)
    ),
}


@pytest.mark.parametrize("case", sorted(LINK_CASES))
def test_non_finite_link_input_is_rejected_by_name(case):
    name, build = LINK_CASES[case]
    with pytest.raises(ValueError, match=name):
        build()


SQUARE = BandwidthTrace.square(100.0, 50.0, 1.0)
CONSTANT_LINK = WirelessLink(bandwidth_mbps=100.0)
TRACED_LINK = WirelessLink.traced(SQUARE)

QUERY_CASES = {
    "trace-rate-nan-time": ("time_s", lambda: SQUARE.bandwidth_mbps_at(NAN)),
    "trace-cumulative-nan-time": ("time_s", lambda: SQUARE.cumulative_bits(NAN)),
    "trace-capacity-nan-end": ("time_s", lambda: SQUARE.capacity_bits(0.0, NAN)),
    "trace-finish-nan-payload": ("payload_bits", lambda: SQUARE.finish_time_s(0.0, NAN)),
    "trace-finish-nan-start": ("time_s", lambda: SQUARE.finish_time_s(NAN, 1000.0)),
    "traced-link-at-nan": ("time_s", lambda: TRACED_LINK.at(NAN)),
    "traced-link-serialize-nan": (
        "payload_bits", lambda: TRACED_LINK.serialization_time_s(NAN, start_s=1.0)
    ),
    "link-at-nan": ("time_s", lambda: CONSTANT_LINK.at(NAN)),
    "link-capacity-nan-start": ("start_s", lambda: CONSTANT_LINK.capacity_bits(NAN, 1.0)),
    "link-serialize-nan": ("payload_bits", lambda: CONSTANT_LINK.serialization_time_s(NAN)),
    "fair-nan-weight": (
        "weights", lambda: FairShareScheduler().instantaneous_shares([1.0, NAN])
    ),
    "fair-inf-weight": (
        "weights", lambda: FairShareScheduler().instantaneous_shares([1.0, INF])
    ),
    "priority-nan-weight": (
        "weights", lambda: PriorityScheduler().instantaneous_shares([1.0, NAN])
    ),
    "priority-inf-weight": (
        "weights", lambda: PriorityScheduler().instantaneous_shares([INF, 1.0])
    ),
}


@pytest.mark.parametrize("case", sorted(QUERY_CASES))
def test_non_finite_query_is_rejected_by_name(case):
    name, query = QUERY_CASES[case]
    with pytest.raises(ValueError, match=name):
        query()


@pytest.mark.parametrize("value", ("nan", "inf"))
def test_fleet_cli_rejects_non_finite_bandwidth(value, capsys):
    assert main(["fleet", "--clients", "2", "--bandwidth", value]) == 2
    assert "--bandwidth" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ("const:nan", "const:inf", "step:400:nan:0.5"))
def test_fleet_cli_rejects_non_finite_trace(spec, capsys):
    assert main(["fleet", "--clients", "2", "--trace", spec]) == 2
    assert "bad --trace" in capsys.readouterr().err


def stream(**overrides) -> StreamSpec:
    values = dict(name="s", source=PrecomputedSource([(1000,)]), n_frames=3, target_fps=72.0)
    values.update(overrides)
    return StreamSpec(**values)


def cohort(**overrides) -> CohortSpec:
    values = dict(name="c", n_members=4, payloads=((1000,),), n_frames=3)
    values.update(overrides)
    return CohortSpec(**values)


def client(**overrides) -> ClientConfig:
    return ClientConfig(name="c", **overrides)


STREAM_CASES = {
    "timing-inf-frames": ("n_frames", lambda: validate_stream_timing(n_frames=INF)),
    "timing-nan-fps": ("target_fps", lambda: validate_stream_timing(target_fps=NAN)),
    "timing-inf-throughput": (
        "encode_throughput_mpixels_s",
        lambda: validate_stream_timing(encode_throughput_mpixels_s=INF),
    ),
    "window-nan-start": ("start_s", lambda: validate_stream_window(NAN)),
    "window-nan-stop": ("stop_s", lambda: validate_stream_window(0.0, NAN)),
    "stream-nan-weight": ("weight", lambda: stream(weight=NAN)),
    "stream-inf-weight": ("weight", lambda: stream(weight=INF)),
    "stream-nan-fps": ("target_fps", lambda: stream(target_fps=NAN)),
    "stream-inf-fps": ("target_fps", lambda: stream(target_fps=INF)),
    "stream-nan-start": ("start_s", lambda: stream(start_s=NAN)),
    "stream-inf-start": ("start_s", lambda: stream(start_s=INF)),
    "stream-nan-stop": ("stop_s", lambda: stream(stop_s=NAN)),
    "stream-inf-stop": ("stop_s", lambda: stream(stop_s=INF)),
    "stream-nan-encode": ("encode_time_s", lambda: stream(encode_time_s=NAN)),
    "stream-inf-encode": ("encode_time_s", lambda: stream(encode_time_s=INF)),
    "cohort-nan-weight": ("weight", lambda: cohort(weight=NAN)),
    "cohort-nan-fps": ("target_fps", lambda: cohort(target_fps=NAN)),
    "cohort-nan-start": ("start_s", lambda: cohort(start_s=NAN)),
    "cohort-nan-encode": ("encode_time_s", lambda: cohort(encode_time_s=NAN)),
    "client-nan-weight": ("weight", lambda: client(weight=NAN)),
    "client-nan-fps": ("target_fps", lambda: client(target_fps=NAN)),
    "client-nan-start": ("start_s", lambda: client(start_s=NAN)),
    "client-inf-throughput": (
        "encode_throughput_mpixels_s", lambda: client(encode_throughput_mpixels_s=INF)
    ),
}


@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_non_finite_stream_input_is_rejected_by_name(case):
    name, build = STREAM_CASES[case]
    with pytest.raises(ValueError, match=name):
        build()


def test_no_departure_is_still_none():
    assert stream(stop_s=None).frames_to_stream == 3


def test_fair_weights_with_an_infinite_sum_are_rejected():
    streams = [stream(name=f"s{i}", weight=1e308) for i in range(2)]
    with pytest.raises(ValueError, match="weights"):
        StreamingEngine(CONSTANT_LINK).run(streams)
    assert PriorityScheduler().instantaneous_shares([1e308, 1e308]) == [1.0, 0.0]


def test_cohort_weights_with_an_infinite_sum_are_rejected():
    cohorts = [cohort(name=f"c{i}", n_members=2, weight=1e308) for i in range(2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no NumPy overflow on the way
        with pytest.raises(ValueError, match="weights"):
            plan_member_links(cohorts, CONSTANT_LINK)
