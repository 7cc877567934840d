"""The event kernel and the loss sampler, held equal to their oracles.

:meth:`~repro.streaming.engine.StreamingEngine._run_event_kernel`
prices one completion per reschedule: the least ``remaining_bits /
share`` key plus any key within a rounding margin of it.
:meth:`~repro.streaming.loss.LossTrace.sample_packets` walks the
Gilbert–Elliott chain one state run at a time.  ``engine_reference``
keeps the loops they replaced, which price every flow and every packet.
These tests hold outcomes, event logs, erasure masks and random draws
exactly equal to the oracles, and pin the work saved by counting
:meth:`~repro.streaming.link.WirelessLink.serialization_time_s` calls
and the NumPy calls left in the hot loop.  The reference kernel prices
a traced link through ``trace_reference``'s NumPy lookups, so a lookup
slip cannot hide on both sides.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from engine_reference import ReferenceEngine, sample_packets_reference
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from trace_reference import ReferenceTrace

from repro.codecs.ladder import QualityLadder
from repro.streaming.adaptive import CONTROLLER_CHOICES, get_controller
from repro.streaming.engine import (
    TRANSMIT_DONE,
    TRANSMIT_START,
    AdaptationState,
    FairShareScheduler,
    PrecomputedSource,
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
def fleets(draw):
    """A link, a scheduler, a recovery policy and a stream factory.

    Stream specs carry mutable adaptation state, so the factory builds
    a fresh, identical fleet for each engine.  Tie-heavy fleets share
    one source, refresh rate, start time and weight, as in the
    500-client cohort race; late fleets start hundreds of seconds in,
    where a time's ulp spans many bits of link capacity.
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
             float(rng.choice((1.0, 1.0, 2.0, 3.5))), controller,
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


def run_both(link, scheduler, recovery, make_specs, seed):
    """Outcomes and event log of the fast kernel and of the oracle.

    The oracle's link carries the reference twin of a traced link's
    trace, so its lookups are the NumPy searches.
    """
    reference_link = (
        link if link.trace is None
        else dataclasses.replace(link, trace=ReferenceTrace.of(link.trace))
    )
    runs = []
    for engine_class, engine_link in (
        (StreamingEngine, link), (ReferenceEngine, reference_link)
    ):
        engine = engine_class(engine_link, scheduler=scheduler, recovery=recovery)
        outcomes = engine.run(make_specs(), seed=seed)
        runs.append((outcomes, engine.last_events))
    return runs


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


def count_pricing(monkeypatch, engine, specs):
    """``serialization_time_s`` calls and reschedules of one engine run."""
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
    frames = sum(len(outcome.frames) for outcome in outcomes)
    return calls, reschedules, frames


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
        numpy_calls = count_numpy_calls(monkeypatch, "searchsorted", "flatnonzero")
        calls, reschedules, frames = count_pricing(monkeypatch, engine, specs)
        assert frames == 16 * 72
        assert len(engine.last_events) == 3 * frames
        assert calls <= reschedules
        # Trace lookups bisect lists: no scalar NumPy search is left.  A
        # frame builds a chain state's fire list only once the chain is
        # in that state, and most frames never leave the good state.
        assert numpy_calls["searchsorted"] == 0
        assert numpy_calls["flatnonzero"] < 1.5 * frames

    def test_tie_heavy_run(self, monkeypatch):
        """40 identical streams starting together on a constant link."""
        source = PrecomputedSource([(120_000,)])
        specs = [
            StreamSpec(name=f"s{i}", source=source, n_frames=8, target_fps=72.0)
            for i in range(40)
        ]
        engine = StreamingEngine(WirelessLink(bandwidth_mbps=400.0, propagation_ms=3.0))
        calls, reschedules, frames = count_pricing(monkeypatch, engine, specs)
        assert frames == 40 * 8
        assert reschedules == 2 * frames
        assert calls <= reschedules
