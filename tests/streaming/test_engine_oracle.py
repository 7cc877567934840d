"""The event kernel and the loss sampler, held equal to their oracles.

:meth:`~repro.streaming.engine.StreamingEngine._run_event_kernel`
prices one completion per reschedule: the least ``remaining_bits /
share`` key plus any key within a rounding margin of it.  It keeps one
FRAME_READY per stream on its heap, the built-in schedulers remember
each weight vector's shares, and a
:class:`~repro.streaming.traces.BandwidthTrace` remembers the last
instant it priced.  :meth:`~repro.streaming.loss.LossTrace.sample_packets`
walks the Gilbert–Elliott chain one state run at a time, and the
engine's loss runtime counts erasures from the same walk without a
mask.  ``engine_reference`` keeps the loops they replaced, which price
every flow and every packet and recompute every share.  These tests
hold outcomes, event logs, erasure masks, counts and random draws
exactly equal to the oracles, and pin the work saved by counting
:meth:`~repro.streaming.link.WirelessLink.serialization_time_s` calls,
share evaluations, trace searches and the NumPy calls left in the hot
loop.  The reference kernel prices a traced link through
``trace_reference``'s NumPy lookups, so a lookup slip cannot hide on
both sides.
"""

from __future__ import annotations

import dataclasses
import math
import pickle

import numpy as np
import pytest
from engine_reference import (
    ReferenceEngine,
    ReferenceFairScheduler,
    ReferencePriorityScheduler,
    sample_packets_reference,
)
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from trace_reference import ReferenceTrace

import repro.streaming.engine as engine_module
from repro.codecs.ladder import QualityLadder
from repro.streaming.adaptive import CONTROLLER_CHOICES, get_controller
from repro.streaming.engine import (
    FRAME_READY,
    TRANSMIT_DONE,
    TRANSMIT_START,
    AdaptationState,
    ControllerContext,
    Event,
    FairShareScheduler,
    FrameTiming,
    LinkScheduler,
    PrecomputedSource,
    PriorityScheduler,
    StreamingEngine,
    StreamSpec,
)
from repro.streaming.link import WirelessLink
from repro.streaming.loss import RECOVERY_CHOICES, LossTrace
from repro.streaming.traces import BandwidthTrace

LADDER = QualityLadder.default()
REFRESH_RATES = (60.0, 72.0, 90.0, 120.0)


def ladder_source(rng: np.random.Generator, n_frames: int) -> PrecomputedSource:
    """Per-frame sizes for every ladder rung, best (largest) rung first."""
    return PrecomputedSource(
        [
            tuple(sorted(rng.integers(20_000, 600_000, len(LADDER)).tolist(), reverse=True))
            for _ in range(n_frames)
        ]
    )


def make_link(rng, trace_kind: str, loss: str | None, jitter: bool) -> WirelessLink:
    """A constant, square or Markov link, optionally lossy and jittery."""
    loss_trace = None
    if loss is not None:
        loss_trace = (
            LossTrace.gilbert_elliott(float(rng.uniform(1e-3, 0.05)), mean_burst_packets=4.0)
            if rng.random() < 0.7
            else LossTrace.bernoulli(float(rng.uniform(0.0, 0.05)))
        )
    jitter_ms = 0.5 if jitter else 0.0
    if trace_kind == "const":
        return WirelessLink(
            bandwidth_mbps=float(rng.uniform(40.0, 800.0)),
            propagation_ms=2.0,
            jitter_ms=jitter_ms,
            loss=loss_trace,
        )
    if trace_kind == "square":
        trace = BandwidthTrace.square(
            float(rng.uniform(200.0, 1400.0)),
            float(rng.uniform(30.0, 200.0)),
            float(rng.uniform(0.005, 0.2)),
            horizon_s=30.0,
        )
    else:
        trace = BandwidthTrace.markov(
            [float(level) for level in rng.uniform(30.0, 1400.0, 3)],
            p_switch=0.3,
            dt_s=float(rng.uniform(0.005, 0.05)),
            horizon_s=30.0,
            seed=int(rng.integers(1000)),
        )
    return WirelessLink.traced(
        trace, propagation_ms=2.0, jitter_ms=jitter_ms, loss=loss_trace
    )


@st.composite
def fleets(draw, weights=(1.0, 1.0, 2.0, 3.5)):
    """A link, a scheduler, a recovery policy and a stream factory.

    Stream specs carry mutable adaptation state, so the factory builds
    a fresh, identical fleet for each engine.  Tie-heavy fleets share
    one source, refresh rate, start time and weight, as in the
    500-client cohort race; late fleets start hundreds of seconds in,
    where a time's ulp spans many bits of link capacity.  Other fleets
    draw each stream's weight from ``weights``.
    """
    n_streams = draw(st.integers(min_value=2, max_value=40))
    scheduler = draw(st.sampled_from(("fair", "priority")))
    trace_kind = draw(st.sampled_from(("const", "square", "markov")))
    recovery = draw(st.sampled_from((None,) + RECOVERY_CHOICES))
    jitter = draw(st.booleans())
    tie_heavy = draw(st.booleans())
    late = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    link = make_link(rng, trace_kind, recovery, jitter)
    offset_s = 500.0 if late else 0.0
    shared = (ladder_source(rng, 4), int(rng.integers(2, 9)), 72.0, offset_s, None, 1.0,
              draw(st.sampled_from((None,) + CONTROLLER_CHOICES)), 0)
    rows = []
    for index in range(n_streams):
        if tie_heavy:
            rows.append((f"s{index}",) + shared)
            continue
        fps = float(rng.choice(REFRESH_RATES))
        start_s = offset_s + float(rng.uniform(0.0, 0.1))
        stop_s = start_s + float(rng.uniform(0.02, 0.15)) if rng.random() < 0.3 else None
        controller = str(rng.choice(CONTROLLER_CHOICES)) if rng.random() < 0.6 else None
        rows.append(
            (f"s{index}", ladder_source(rng, int(rng.integers(1, 5))),
             int(rng.integers(2, 9)), fps, start_s, stop_s,
             float(rng.choice(weights)), controller,
             int(rng.integers(len(LADDER))))
        )

    def make_specs():
        return [
            StreamSpec(
                name=name,
                source=source,
                n_frames=n_frames,
                target_fps=fps,
                start_s=start_s,
                stop_s=stop_s,
                weight=weight,
                adaptation=(
                    AdaptationState(get_controller(controller), LADDER, start_rung, 1.0 / fps)
                    if controller is not None
                    else None
                ),
            )
            for (name, source, n_frames, fps, start_s, stop_s, weight, controller,
                 start_rung) in rows
        ]

    return link, scheduler, recovery, make_specs, seed


def reference_link(link: WirelessLink) -> WirelessLink:
    """``link`` with a traced link's trace swapped for its reference twin."""
    if link.trace is None:
        return link
    return dataclasses.replace(link, trace=ReferenceTrace.of(link.trace))


def run_both(link, scheduler, recovery, make_specs, seed):
    """Outcomes and event log of the fast kernel and of the oracle.

    The oracle's link carries the reference twin of a traced link's
    trace, so its lookups are the NumPy searches, and a scheduler name
    gives the oracle the reference scheduler, which shares nothing with
    the built-in's memo.
    """
    runs = []
    for engine_class, engine_link in (
        (StreamingEngine, link), (ReferenceEngine, reference_link(link))
    ):
        engine = engine_class(engine_link, scheduler=scheduler, recovery=recovery)
        outcomes = engine.run(make_specs(), seed=seed)
        runs.append((outcomes, engine.last_events))
    return runs


def reschedules_with_flows(events) -> int:
    """TRANSMIT events after which some flow is in flight.

    Both kernels reschedule at every TRANSMIT_START and TRANSMIT_DONE
    and ask the scheduler for shares only when a flow is in flight.
    """
    in_flight = 0
    count = 0
    for event in events:
        if event.kind == FRAME_READY:
            continue
        in_flight += 1 if event.kind == TRANSMIT_START else -1
        count += in_flight > 0
    return count


class AlternatingScheduler(LinkScheduler):
    """A stateful user scheduler: it counts its calls and reverses priority.

    Odd calls give all capacity to the last (lightest-ranked) flow; even
    calls share in proportion to weight.  An extra or a skipped call
    therefore changes the fleet, not only the count.
    """

    def __init__(self):
        self.calls = 0

    def instantaneous_shares(self, weights):
        self.calls += 1
        if self.calls % 2:
            return [1.0 if i == len(weights) - 1 else 0.0 for i in range(len(weights))]
        total = sum(weights)
        return [w / total for w in weights]


class TestKernelMatchesOracle:
    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(fleet=fleets())
    def test_random_fleets_match_the_reference_kernel(self, fleet):
        (outcomes, events), (ref_outcomes, ref_events) = run_both(*fleet)
        assert outcomes == ref_outcomes
        assert events == ref_events

    @pytest.mark.parametrize("reverse", (False, True))
    @pytest.mark.parametrize("trace", ("const", "square"))
    def test_near_tie_keys_resolve_as_the_reference_kernel(self, reverse, trace):
        """Two keys closer than a late time's ulp times the link rate.

        Two streams with weights ``a`` and ``b`` carry ``a P`` and
        ``b P`` bits.  Exactly, both keys are ``(a + b) P``; computed,
        they differ by the rounding of the two shares.  Both finish at
        the same computed time, so the lower stream index must complete
        first, whichever key is smaller.
        """
        start_s, payload = 1000.0, 100_000
        if trace == "const":
            link = WirelessLink(bandwidth_mbps=1000.0, propagation_ms=0.0)
        else:
            link = WirelessLink.traced(
                BandwidthTrace.square(1000.0, 600.0, 0.5, horizon_s=2000.0),
                propagation_ms=0.0,
            )
        rate_bps = link.at(start_s) * 1e6
        near_ties = []
        for a in range(1, 12):
            for b in range(a + 1, 12):
                share_a, share_b = FairShareScheduler().instantaneous_shares([a, b])
                gap = abs(a * payload / share_a - b * payload / share_b)
                if 0.0 < gap < math.ulp(start_s) * rate_bps:
                    near_ties.append((a, b))
        assert len(near_ties) >= 3, "too few weight pairs give distinct keys"
        for weights in near_ties:
            streams = [(f"w{w}", w * payload, float(w)) for w in weights]
            if reverse:
                streams.reverse()

            def make_specs():
                return [
                    StreamSpec(
                        name=name,
                        source=PrecomputedSource([(bits,)]),
                        n_frames=2,
                        target_fps=72.0,
                        start_s=start_s,
                        weight=weight,
                    )
                    for name, bits, weight in streams
                ]

            (outcomes, events), (ref_outcomes, ref_events) = run_both(
                link, "fair", None, make_specs, 0
            )
            assert outcomes == ref_outcomes
            assert events == ref_events


class TestSchedulerFastPaths:
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(fleet=fleets(weights=(0.7, 1.3, 2.9)))
    def test_non_integer_weights_match_the_reference_kernel(self, fleet):
        """Weights whose sums round go through the memo as the oracle divides."""
        (outcomes, events), (ref_outcomes, ref_events) = run_both(*fleet)
        assert outcomes == ref_outcomes
        assert events == ref_events

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(fleet=fleets())
    def test_a_stateful_user_scheduler_sees_one_call_per_reschedule(self, fleet):
        link, _, recovery, make_specs, seed = fleet
        runs = []
        for engine_class, engine_link in (
            (StreamingEngine, link), (ReferenceEngine, reference_link(link))
        ):
            scheduler = AlternatingScheduler()
            engine = engine_class(engine_link, scheduler=scheduler, recovery=recovery)
            outcomes = engine.run(make_specs(), seed=seed)
            runs.append((outcomes, engine.last_events, scheduler.calls))
        (outcomes, events, calls), (ref_outcomes, ref_events, ref_calls) = runs
        assert outcomes == ref_outcomes
        assert events == ref_events
        assert calls == ref_calls == reschedules_with_flows(events)

    @pytest.mark.parametrize(
        ("scheduler", "reference"),
        ((FairShareScheduler, ReferenceFairScheduler),
         (PriorityScheduler, ReferencePriorityScheduler)),
        ids=("fair", "priority"),
    )
    def test_remembered_shares_are_fresh_lists(self, scheduler, reference):
        """A caller that mutates its shares cannot change the next answer."""
        memoized = scheduler()
        for weights in ([0.7, 1.3, 2.9], [2.9, 0.7], [1.0] * 5, [3.5, 3.5, 1.0], [0.1],
                        [0.7, 1.3, 2.9]):
            want = reference().instantaneous_shares(weights)
            first = memoized.instantaneous_shares(weights)
            assert first == want
            first[0] = -1.0
            first.append(5.0)
            again = memoized.instantaneous_shares(tuple(weights))
            assert type(again) is list
            assert again == want
            assert again is not memoized.instantaneous_shares(weights)

    @pytest.mark.parametrize("scheduler", (FairShareScheduler, PriorityScheduler))
    def test_rejected_weights_are_checked_at_every_call(self, scheduler):
        """A vector that fails its check is never remembered."""
        memoized = scheduler()
        for weights in ([1.0, math.nan], [math.inf, 1.0], [1.0, 0.0], [-2.0]):
            for _ in range(2):
                with pytest.raises(ValueError, match="weights"):
                    memoized.instantaneous_shares(weights)

    def test_each_discipline_remembers_its_own_shares(self):
        """A priority scheduler asked for proportional shares gets them."""
        scheduler = PriorityScheduler()
        weights = [1.0, 3.0]
        assert scheduler.instantaneous_shares(weights) == [0.0, 1.0]
        assert LinkScheduler.instantaneous_shares(scheduler, weights) == [0.25, 0.75]
        assert scheduler.instantaneous_shares(weights) == [0.0, 1.0]


class TestSamplerMatchesOracle:
    probability = st.one_of(
        st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)
    )

    @settings(max_examples=300, deadline=None)
    @given(
        n_packets=st.integers(min_value=1, max_value=400),
        state=st.sampled_from((0, 1)),
        p_loss_good=probability,
        p_loss_bad=probability,
        p_good_to_bad=probability,
        p_bad_to_good=probability,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_state_runs_match_the_per_packet_chain(
        self, n_packets, state, p_loss_good, p_loss_bad, p_good_to_bad,
        p_bad_to_good, seed,
    ):
        assume(p_good_to_bad == 0.0 or p_bad_to_good > 0.0)  # every burst ends
        trace = LossTrace(
            p_loss_good=p_loss_good,
            p_loss_bad=p_loss_bad,
            p_good_to_bad=p_good_to_bad,
            p_bad_to_good=p_bad_to_good,
        )
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        lost, end_state = trace.sample_packets(rng, n_packets, state)
        ref_lost, ref_end_state = sample_packets_reference(trace, ref_rng, n_packets, state)
        assert lost.dtype == ref_lost.dtype == bool
        assert np.array_equal(lost, ref_lost)
        assert end_state == ref_end_state
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestCountMatchesOracle:
    """The engine counts erasures from the walk that builds the mask."""

    probability = st.one_of(
        st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)
    )

    @settings(max_examples=300, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=6),
        state=st.sampled_from((0, 1)),
        p_loss_good=probability,
        p_loss_bad=probability,
        p_good_to_bad=probability,
        p_bad_to_good=probability,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_counts_match_the_per_packet_chain(
        self, sizes, state, p_loss_good, p_loss_bad, p_good_to_bad, p_bad_to_good, seed,
    ):
        """Frame after frame, the chain state carried across as the engine does."""
        assume(p_good_to_bad == 0.0 or p_bad_to_good > 0.0)  # every burst ends
        trace = LossTrace(
            p_loss_good=p_loss_good,
            p_loss_bad=p_loss_bad,
            p_good_to_bad=p_good_to_bad,
            p_bad_to_good=p_bad_to_good,
        )
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ref_state = state
        for n_packets in sizes:
            n_lost, state = trace._count_lost(rng, n_packets, state)
            ref_lost, ref_state = sample_packets_reference(
                trace, ref_rng, n_packets, ref_state
            )
            assert n_lost == int(np.count_nonzero(ref_lost))
            assert state == ref_state
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize(
        "trace",
        (
            LossTrace.gilbert_elliott(0.05, mean_burst_packets=30.0, p_loss_bad=0.6,
                                      p_loss_good=0.02),
            LossTrace.gilbert_elliott(0.02, mean_burst_packets=60.0),
            LossTrace.bernoulli(0.1),
        ),
        ids=("leaky-bursts", "full-bursts", "bernoulli"),
    )
    def test_bursts_that_cross_frames(self, trace):
        """40-packet frames under bursts longer than a frame."""
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        state = ref_state = 0
        entered_bad = 0
        for _ in range(200):
            entered_bad += state == 1
            n_lost, state = trace._count_lost(rng, 40, state)
            ref_lost, ref_state = sample_packets_reference(trace, ref_rng, 40, ref_state)
            assert n_lost == int(np.count_nonzero(ref_lost))
            assert state == ref_state
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert entered_bad > 0 or not trace.is_bursty


def assert_same(got, want) -> None:
    """Equal and printed alike (a NumPy scalar prints differently)."""
    assert got == want
    assert repr(got) == repr(want)


class TestTraceMemo:
    """The last instant a trace priced answers as a search would."""

    @settings(max_examples=150, deadline=None)
    @given(
        period_s=st.floats(min_value=0.005, max_value=5.0),
        times=st.lists(
            st.one_of(
                st.sampled_from((0.0, -0.0)),
                st.floats(min_value=0.0, max_value=80.0),
            ),
            min_size=1,
            max_size=10,
        ),
    )
    def test_repeated_instants_match_the_numpy_searches(self, period_s, times):
        trace = BandwidthTrace.square(1400.0, 700.0, period_s, horizon_s=60.0)
        ref = ReferenceTrace.of(trace)
        for start_s in times + times[::-1]:
            for _ in range(2):  # the second ask is answered from the memo
                assert_same(trace.cumulative_bits(start_s), ref.cumulative_bits(start_s))
            assert_same(trace.capacity_bits(start_s, start_s), 0.0)
            end_s = start_s + period_s
            assert_same(trace.capacity_bits(start_s, end_s), ref.capacity_bits(start_s, end_s))
            assert_same(
                trace.finish_time_s(end_s, 12_000.0), ref.finish_time_s(end_s, 12_000.0)
            )

    def test_signed_zero_and_nan(self):
        trace = BandwidthTrace.step_down(400.0, 50.0, 2.0)
        ref = ReferenceTrace.of(trace)
        for time_s in (0.0, -0.0, -0.0, 0.0, 3.0, 3.0):
            assert_same(trace.cumulative_bits(time_s), ref.cumulative_bits(time_s))
        assert_same(trace.capacity_bits(-0.0, 0.0), 0.0)
        assert_same(trace.capacity_bits(0.0, -0.0), 0.0)
        for primed_s in (None, 0.0, 3.0):
            fresh = BandwidthTrace.step_down(400.0, 50.0, 2.0)
            if primed_s is not None:
                fresh.cumulative_bits(primed_s)
            with pytest.raises(ValueError, match="time_s must be >= 0"):
                fresh.cumulative_bits(math.nan)
            with pytest.raises(ValueError, match="time_s must be >= 0"):
                fresh.capacity_bits(3.0, math.nan)
            with pytest.raises(ValueError, match="time_s must be >= 0"):
                fresh.finish_time_s(math.nan, 12_000.0)


class TestSlottedRecords:
    """The kernel's positional constructors build ordinary frozen records."""

    @pytest.mark.parametrize(
        ("cls", "build", "values"),
        (
            (Event, engine_module._event, (0.25, TRANSMIT_DONE, "s0", 3)),
            (FrameTiming, engine_module._frame_timing,
             (3, 120_000, 0.002, 0.0041, 0.0093, "perceptual")),
            (ControllerContext, engine_module._controller_context,
             (3, 0.25, 1 / 72, (900, 400, 120), 0.004, None, 4.0e8, 2)),
        ),
        ids=("Event", "FrameTiming", "ControllerContext"),
    )
    def test_records_round_trip(self, cls, build, values):
        record = build(*values)
        assert type(record) is cls
        assert record == cls(*values)
        assert hash(record) == hash(cls(*values))
        assert repr(record) == repr(cls(*values))
        assert tuple(getattr(record, field.name) for field in dataclasses.fields(cls)) == values
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(record, protocol=protocol))
            assert type(copy) is cls
            assert copy == record
        assert dataclasses.replace(record) == record
        first = dataclasses.fields(cls)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, first, values[0])
        assert not hasattr(record, "__dict__")
        with pytest.raises(TypeError):
            vars(record)

    def test_frame_timing_keeps_its_default_rung(self):
        timing = FrameTiming(0, 1, 0.0, 0.5, 0.75)
        assert timing.rung == ""
        assert timing == engine_module._frame_timing(0, 1, 0.0, 0.5, 0.75, "")
        assert timing.motion_to_photon_s == 0.75


def count_pricing(monkeypatch, engine, specs):
    """``serialization_time_s`` calls, reschedules and outcomes of one run."""
    calls = 0
    original = WirelessLink.serialization_time_s

    def counting(self, payload_bits, *, start_s=0.0):
        nonlocal calls
        calls += 1
        return original(self, payload_bits, start_s=start_s)

    monkeypatch.setattr(WirelessLink, "serialization_time_s", counting)
    outcomes = engine.run(specs, seed=3)
    reschedules = sum(
        event.kind in (TRANSMIT_START, TRANSMIT_DONE) for event in engine.last_events
    )
    return calls, reschedules, outcomes


def count_share_evaluations(monkeypatch) -> dict:
    """Calls of the built-in proportional scheduler, its distinct weight
    vectors and its evaluations (checked weights)."""
    counts = {"calls": 0, "vectors": set(), "evaluations": 0}
    original_shares = LinkScheduler.instantaneous_shares
    original_check = engine_module._check_weights

    def shares(self, weights):
        counts["calls"] += 1
        counts["vectors"].add(tuple(weights))
        return original_shares(self, weights)

    def check(weights):
        counts["evaluations"] += 1
        return original_check(weights)

    monkeypatch.setattr(LinkScheduler, "instantaneous_shares", shares)
    monkeypatch.setattr(engine_module, "_check_weights", check)
    return counts


def count_segment_searches(monkeypatch) -> dict:
    """Calls of ``BandwidthTrace._segment_at``, the trace's one search."""
    counts = {"calls": 0}
    original = BandwidthTrace._segment_at

    def counting(self, time_s):
        counts["calls"] += 1
        return original(self, time_s)

    monkeypatch.setattr(BandwidthTrace, "_segment_at", counting)
    return counts


def count_numpy_calls(monkeypatch, *names):
    """Calls of each ``np.<name>`` from now on, counted by name."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(np, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    return counts


class TestOneCompletionPerReschedule:
    """The kernel prices at most one key per reschedule, ties aside."""

    def test_fleet_sim_shaped_run(self, monkeypatch):
        """16 adaptive streams × 72 frames on a fading, lossy link."""
        rng = np.random.default_rng(5)
        source = PrecomputedSource(
            [
                tuple(int(bits * scale) for bits in (1_800_000, 1_100_000, 900_000,
                                                     800_000, 570_000))
                for scale in rng.uniform(0.9, 1.1, 24)
            ]
        )
        link = WirelessLink.traced(
            BandwidthTrace.square(1400.0, 700.0, 0.5, horizon_s=60.0),
            propagation_ms=2.0,
            jitter_ms=0.5,
            loss=LossTrace.gilbert_elliott(2e-4, mean_burst_packets=4.0),
        )
        controller = get_controller("throughput")
        specs = [
            StreamSpec(
                name=f"stream{i}",
                source=source,
                n_frames=72,
                target_fps=72.0,
                start_s=float(start_s),
                adaptation=AdaptationState(controller, LADDER, 0, 1.0 / 72.0),
            )
            for i, start_s in enumerate(np.sort(rng.uniform(0.0, 0.5, 16)))
        ]
        engine = StreamingEngine(link, scheduler="fair", recovery="arq")
        numpy_calls = count_numpy_calls(
            monkeypatch, "searchsorted", "flatnonzero", "empty", "count_nonzero"
        )
        shares = count_share_evaluations(monkeypatch)
        searches = count_segment_searches(monkeypatch)
        calls, reschedules, outcomes = count_pricing(monkeypatch, engine, specs)
        frames = sum(len(outcome.frames) for outcome in outcomes)
        events = len(engine.last_events)
        assert frames == 16 * 72
        assert events == 3 * frames
        assert calls <= reschedules
        # Trace lookups bisect lists: no scalar NumPy search is left.  A
        # frame builds a chain state's fire list only once the chain is
        # in that state, and most frames never leave the good state.
        assert numpy_calls["searchsorted"] == 0
        assert numpy_calls["flatnonzero"] < 1.5 * frames
        # One scheduler call per reschedule, but each distinct in-flight
        # weight vector is checked and divided once.
        assert shares["calls"] == reschedules_with_flows(engine.last_events)
        assert shares["evaluations"] <= len(shares["vectors"])
        # A drain ends where the next one and the completion pricing
        # start, so an event searches the trace at most once.
        assert searches["calls"] <= events
        # Erasures are counted, not masked.  The good state loses no
        # packet and the bad state every one, so no draw is compared:
        # np.count_nonzero runs only in ARQ rounds, each resending at
        # least one packet.  np.empty runs inside each rng.random draw,
        # once per frame and once per ARQ round; a per-packet erasure
        # mask would add one per frame.
        retransmits = sum(outcome.loss.retransmits for outcome in outcomes)
        assert numpy_calls["count_nonzero"] <= retransmits
        assert numpy_calls["empty"] <= frames + retransmits

    def test_tie_heavy_run(self, monkeypatch):
        """40 identical streams starting together on a constant link."""
        source = PrecomputedSource([(120_000,)])
        specs = [
            StreamSpec(name=f"s{i}", source=source, n_frames=8, target_fps=72.0)
            for i in range(40)
        ]
        engine = StreamingEngine(WirelessLink(bandwidth_mbps=400.0, propagation_ms=3.0))
        calls, reschedules, outcomes = count_pricing(monkeypatch, engine, specs)
        frames = sum(len(outcome.frames) for outcome in outcomes)
        assert frames == 40 * 8
        assert reschedules == 2 * frames
        assert calls <= reschedules
