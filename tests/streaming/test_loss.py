"""Packet-loss model and recovery-policy tests.

Three layers of pinning:

* **unit** — spec parsing, validation, the backoff schedule, and each
  policy's wire/resolve contract on crafted inputs;
* **statistical** — the Gilbert–Elliott sampler's empirical loss rate
  and burst-length distribution against the analytic values the
  docstrings promise;
* **determinism** — same-seed lossy runs are bit-identical (frames and
  serialized loss stats), and a lossless configuration stays
  byte-identical to the pre-loss engine (the PR's acceptance gate).
"""

from __future__ import annotations

import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.adaptive import BufferController, ThroughputController
from repro.streaming.engine import PrecomputedSource, StreamingEngine, StreamSpec
from repro.streaming.link import WirelessLink
from repro.streaming.loss import (
    DEFAULT_PACKET_BITS,
    LOSS_SPEC_KINDS,
    RECOVERY_CHOICES,
    ArqPolicy,
    Backoff,
    DropSkipPolicy,
    FecPolicy,
    LossRuntime,
    LossTrace,
    get_recovery_policy,
    parse_loss_spec,
)
from repro.streaming.fleet import FleetReport
from repro.streaming.session import SessionReport
from repro.streaming.validation import (
    validate_backoff,
    validate_burst_length,
    validate_probability,
)

CALM_LINK = WirelessLink(bandwidth_mbps=200.0, propagation_ms=3.0)


def _lossy_link(trace: LossTrace) -> WirelessLink:
    return WirelessLink(bandwidth_mbps=200.0, propagation_ms=3.0, loss=trace)


def _payload_stream(seed: int, n_frames: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(b) for b in rng.integers(30_000, 150_000, size=n_frames)]


def _session(outcome) -> SessionReport:
    """An engine outcome as a session report, for serialization checks."""
    return SessionReport(
        encoder="bd", target_fps=72.0, frames=outcome.frames, loss=outcome.loss
    )


def _fleet(link: WirelessLink) -> FleetReport:
    """An empty fleet report on ``link``, for link serialization checks."""
    return FleetReport(clients=(), link=link, scheduler="fair", n_frames=0)


def frame_fields(outcome):
    return [
        (f.frame_index, f.payload_bits, f.serialization_time_s, f.transmit_time_s)
        for f in outcome.frames
    ]


class TestLossTraceConstruction:
    def test_bernoulli_analytics(self):
        trace = LossTrace.bernoulli(0.03)
        assert not trace.is_bursty
        assert trace.stationary_bad_fraction == 0.0
        assert trace.steady_state_loss_rate == pytest.approx(0.03)
        assert trace.steady_state_loss_rate != 0.0
        assert LossTrace.bernoulli(0.0).steady_state_loss_rate == 0.0

    def test_gilbert_elliott_analytics(self):
        trace = LossTrace.gilbert_elliott(p_enter_bad=0.01, mean_burst_packets=5.0)
        # pi_bad = 0.01 / (0.01 + 0.2)
        assert trace.stationary_bad_fraction == pytest.approx(0.01 / 0.21)
        assert trace.steady_state_loss_rate == pytest.approx(0.01 / 0.21)
        assert trace.mean_burst_packets == pytest.approx(5.0)
        assert trace.is_bursty

    def test_packet_fragmentation(self):
        trace = LossTrace.bernoulli(0.1, packet_bits=1000)
        assert trace.n_packets(1) == 1
        assert trace.n_packets(1000) == 1
        assert trace.n_packets(1001) == 2
        assert trace.n_packets(0) == 1  # a frame is never zero packets

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.01, 1.01])
    def test_rejects_bad_probabilities(self, bad):
        with pytest.raises(ValueError):
            LossTrace.bernoulli(bad)
        with pytest.raises(ValueError):
            LossTrace(p_good_to_bad=bad)

    def test_rejects_unending_bursts(self):
        with pytest.raises(ValueError, match="p_bad_to_good"):
            LossTrace(p_good_to_bad=0.1, p_bad_to_good=0.0)

    def test_rejects_bad_packet_and_reorder_shapes(self):
        with pytest.raises(ValueError, match="packet_bits"):
            LossTrace.bernoulli(0.1, packet_bits=0)
        # Packets arrive in order: a trace has no reordering to configure.
        with pytest.raises(TypeError, match="reorder_prob"):
            LossTrace(reorder_prob=0.5)

    def test_trace_is_hashable_and_value_compared(self):
        a = LossTrace.bernoulli(0.02)
        b = LossTrace.bernoulli(0.02)
        assert a == b and hash(a) == hash(b)
        assert a != LossTrace.bernoulli(0.03)


class TestParseLossSpec:
    def test_bernoulli_spec(self):
        trace = parse_loss_spec("bern:0.02")
        assert trace == LossTrace.bernoulli(0.02)

    def test_gilbert_elliott_spec_defaults(self):
        trace = parse_loss_spec("ge:0.01:5")
        assert trace == LossTrace.gilbert_elliott(0.01, 5.0)

    def test_gilbert_elliott_spec_full(self):
        trace = parse_loss_spec("ge:0.01:8:0.9:0.001")
        assert trace.p_loss_bad == pytest.approx(0.9)
        assert trace.p_loss_good == pytest.approx(0.001)
        assert trace.mean_burst_packets == pytest.approx(8.0)

    @pytest.mark.parametrize(
        "spec",
        ["drop:0.1", "bern", "bern:0.1:2", "ge:0.1", "ge:a:b", "bern:nope", ""],
    )
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            parse_loss_spec(spec)

    def test_kinds_constant_matches_parser(self):
        for kind in LOSS_SPEC_KINDS:
            assert kind in ("bern", "ge")


class TestValidationProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_valid_probabilities_pass_through(self, p):
        assert validate_probability(p, "p") == p

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            st.floats(min_value=1.0, max_value=1e9, exclude_min=True),
            st.floats(max_value=0.0, exclude_max=True, allow_nan=False),
            st.just(float("nan")),
            st.just(float("inf")),
            st.just(float("-inf")),
        )
    )
    def test_invalid_probabilities_rejected_by_name(self, p):
        with pytest.raises(ValueError, match="prob_name"):
            validate_probability(p, "prob_name")

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=1.0, max_value=1e6, allow_nan=False))
    def test_valid_burst_lengths_pass_through(self, burst):
        assert validate_burst_length(burst, "burst") == burst

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            st.floats(max_value=1.0, exclude_max=True, allow_nan=False),
            st.just(float("nan")),
            st.just(float("inf")),
        )
    )
    def test_invalid_burst_lengths_rejected(self, burst):
        with pytest.raises(ValueError, match="burst_name"):
            validate_burst_length(burst, "burst_name")

    @settings(max_examples=60, deadline=None)
    @given(
        base=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        factor=st.floats(min_value=1.0, max_value=10.0, allow_nan=False),
        extra=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    def test_valid_backoffs_pass(self, base, factor, extra):
        validate_backoff(base, factor, base + extra)

    @pytest.mark.parametrize(
        "base, factor, max_s",
        [
            (-0.1, 2.0, 1.0),
            (float("nan"), 2.0, 1.0),
            (0.1, 0.5, 1.0),
            (0.1, float("inf"), 1.0),
            (0.5, 2.0, 0.1),
            (0.1, 2.0, float("nan")),
        ],
    )
    def test_invalid_backoffs_rejected(self, base, factor, max_s):
        with pytest.raises(ValueError, match="backoff"):
            validate_backoff(base, factor, max_s)


class TestBackoff:
    def test_schedule_and_cap(self):
        backoff = Backoff(base_s=0.002, factor=2.0, max_s=0.064)
        delays = [backoff.delay_s(n) for n in range(1, 8)]
        assert delays[:5] == pytest.approx([0.002, 0.004, 0.008, 0.016, 0.032])
        assert delays[5] == pytest.approx(0.064)
        assert delays[6] == pytest.approx(0.064)  # capped

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            Backoff().delay_s(0)

    def test_invalid_schedule_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Backoff(base_s=-1.0)
        with pytest.raises(ValueError):
            Backoff(factor=0.9)
        with pytest.raises(ValueError):
            Backoff(base_s=1.0, max_s=0.5)


class TestPolicies:
    def test_registry(self):
        assert isinstance(get_recovery_policy(None), ArqPolicy)
        assert isinstance(get_recovery_policy("arq"), ArqPolicy)
        assert isinstance(get_recovery_policy("fec"), FecPolicy)
        assert isinstance(get_recovery_policy("skip"), DropSkipPolicy)
        assert tuple(sorted(RECOVERY_CHOICES)) == ("arq", "fec", "skip")

    def test_registry_kwargs_and_passthrough(self):
        instance = DropSkipPolicy()
        assert get_recovery_policy(instance) is instance
        with pytest.raises(ValueError, match="unknown recovery policy"):
            get_recovery_policy("hope")

    def test_fec_wire_inflation(self):
        fec = FecPolicy()
        assert fec.wire_bits(100_000, 12_000) == 124_000
        assert fec.wire_bits(0, 12_000) == 0  # empty frames ship nothing
        arq = ArqPolicy()
        assert arq.wire_bits(100_000, 12_000) == 100_000

    def test_fec_absorbs_up_to_k_losses(self):
        rng = np.random.default_rng(0)
        fec = FecPolicy()
        kwargs = dict(packet_time_s=1e-4, rtt_s=6e-3, deadline_s=0.01,
                      retx_loss_rate=0.1)
        assert fec.k == 2
        assert fec.resolve(rng, 0, **kwargs).delivered
        assert fec.resolve(rng, fec.k, **kwargs).delivered
        assert not fec.resolve(rng, fec.k + 1, **kwargs).delivered
        assert fec.resolve(rng, fec.k + 1, **kwargs).delay_s == 0.0

    def test_skip_gives_up_immediately(self):
        rng = np.random.default_rng(0)
        skip = DropSkipPolicy()
        kwargs = dict(packet_time_s=1e-4, rtt_s=6e-3, deadline_s=0.01,
                      retx_loss_rate=0.1)
        assert skip.resolve(rng, 0, **kwargs).delivered
        result = skip.resolve(rng, 1, **kwargs)
        assert not result.delivered
        assert result.delay_s == 0.0 and result.retransmits == 0

    def test_arq_clean_retransmission_round(self):
        """retx_loss_rate=0: one round recovers everything, and the
        delay is exactly backoff + RTT + missing airtime."""
        rng = np.random.default_rng(0)
        arq = ArqPolicy()
        assert arq.backoff == Backoff(0.002, 2.0, 0.064)
        result = arq.resolve(
            rng, 3, packet_time_s=1e-4, rtt_s=6e-3, deadline_s=0.05,
            retx_loss_rate=0.0,
        )
        assert result.delivered
        assert result.retransmits == 3
        assert result.delay_s == pytest.approx(0.002 + 6e-3 + 3e-4)

    def test_arq_gives_up_at_retry_cap(self):
        """retx_loss_rate=1: every round fails, the cap ends it."""
        rng = np.random.default_rng(0)
        arq = ArqPolicy()
        result = arq.resolve(
            rng, 2, packet_time_s=1e-4, rtt_s=6e-3, deadline_s=10.0,
            retx_loss_rate=1.0,
        )
        assert not result.delivered
        assert result.retransmits == ArqPolicy.max_retries * 2

    def test_arq_gives_up_at_deadline(self):
        rng = np.random.default_rng(0)
        arq = ArqPolicy()
        result = arq.resolve(
            rng, 5, packet_time_s=1e-4, rtt_s=6e-3, deadline_s=1e-6,
            retx_loss_rate=0.5,
        )
        assert not result.delivered
        assert result.retransmits == 5  # one round: the deadline, not the cap

    def test_arq_no_loss_is_free(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        result = ArqPolicy().resolve(
            rng, 0, packet_time_s=1e-4, rtt_s=6e-3, deadline_s=0.01,
            retx_loss_rate=0.1,
        )
        assert result.delivered and result.delay_s == 0.0
        assert rng.bit_generator.state == state  # zero draws

    @pytest.mark.parametrize(
        "cls",
        [ArqPolicy, FecPolicy, DropSkipPolicy, BufferController, ThroughputController],
        ids=lambda cls: cls.__name__,
    )
    def test_policies_take_no_tuning_parameters(self, cls):
        """Tuning is class constants: a constructor parameter would be a
        setting that only its own tests reach."""
        assert inspect.signature(cls).parameters == {}


class TestGilbertElliottStatistics:
    """Pin the sampler's empirics to the analytic values."""

    def _sample_stream(self, trace: LossTrace, n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        lost, _ = trace.sample_packets(rng, n)
        return lost

    def test_bernoulli_empirical_rate(self):
        trace = LossTrace.bernoulli(0.05)
        lost = self._sample_stream(trace, 200_000, seed=1)
        rate = lost.mean()
        # 4-sigma band around the analytic rate.
        sigma = math.sqrt(0.05 * 0.95 / lost.size)
        assert abs(rate - trace.steady_state_loss_rate) < 4 * sigma

    def test_gilbert_elliott_empirical_rate(self):
        trace = LossTrace.gilbert_elliott(p_enter_bad=0.02, mean_burst_packets=8.0)
        lost = self._sample_stream(trace, 400_000, seed=2)
        expected = trace.steady_state_loss_rate
        # Correlated stream: use a generous relative band instead of
        # the iid sigma.
        assert abs(lost.mean() - expected) < 0.10 * expected

    def test_gilbert_elliott_burst_length_distribution(self):
        """Maximal loss runs are geometric with the configured mean."""
        mean_burst = 6.0
        trace = LossTrace.gilbert_elliott(
            p_enter_bad=0.004, mean_burst_packets=mean_burst
        )
        lost = self._sample_stream(trace, 500_000, seed=3)
        # Run lengths of consecutive losses.
        padded = np.concatenate([[0], lost.astype(np.int8), [0]])
        edges = np.flatnonzero(np.diff(padded))
        starts, ends = edges[::2], edges[1::2]
        runs = ends - starts
        assert runs.size > 100  # enough bursts to estimate from
        # Mean dwell: 4-sigma band with the geometric variance.
        sigma = math.sqrt(mean_burst * (mean_burst - 1.0) / runs.size)
        assert abs(float(runs.mean()) - mean_burst) < 4 * sigma
        # Geometric shape: P(run > 2*mean) ~ (1-1/mean)^(2*mean).
        tail = float((runs > 2 * mean_burst).mean())
        expected_tail = (1.0 - 1.0 / mean_burst) ** (2 * mean_burst)
        assert abs(tail - expected_tail) < 0.05

    def test_bernoulli_draw_count_is_shape_stable(self):
        """Exactly one (n, 2) uniform block per call, regardless of
        parameters — the cohort-equivalence contract."""
        for p in (0.0, 0.3, 1.0):
            trace = LossTrace.bernoulli(p)
            rng_a = np.random.default_rng(7)
            rng_b = np.random.default_rng(7)
            trace.sample_packets(rng_a, 10)
            rng_b.random((10, 2))
            assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestLossRuntimeStateMachine:
    def _runtime(self, policy, trace=None) -> LossRuntime:
        trace = trace or LossTrace.bernoulli(0.5)
        return LossRuntime(trace, policy, interval_s=1 / 72.0, rtt_s=6e-3)

    def test_poisoning_until_resync(self):
        """lost, delivered => the delivered frame is the resync."""
        rt = self._runtime(DropSkipPolicy())
        rt._classify(False, 1000, time_s=0.0)
        rt._classify(True, 1000, time_s=0.5)
        rt._classify(True, 1000, time_s=1.0)
        stats = rt.stats()
        assert stats.frames_lost == 1
        assert stats.frames_poisoned == 0
        assert stats.frames_displayed == 2
        assert stats.resyncs == 1
        assert stats.recovery_time_s == pytest.approx(0.5)
        assert stats.goodput_bits == 2000
        assert stats.wasted_bits == 1000

    def test_consecutive_losses_are_one_resync(self):
        rt = self._runtime(DropSkipPolicy())
        for k in range(3):
            rt._classify(False, 1000, time_s=float(k))
        rt._classify(True, 1000, time_s=3.0)
        stats = rt.stats()
        assert stats.frames_lost == 3
        assert stats.resyncs == 1
        assert stats.recovery_time_s == pytest.approx(3.0)

    def test_stats_bins_partition_frames(self):
        trace = LossTrace.bernoulli(0.4, packet_bits=4000)
        rt = self._runtime(DropSkipPolicy(), trace=trace)
        rng = np.random.default_rng(9)
        n_frames = 200
        for k in range(n_frames):
            rt.on_frame(rng, 20_000, serialization_s=1e-4, time_s=k / 72.0)
        stats = rt.stats()
        assert stats.n_frames == n_frames
        assert 0.0 < stats.delivered_quality < 1.0
        assert stats.packets_sent == n_frames * 5
        assert 0 < stats.packets_lost < stats.packets_sent
        assert stats.goodput_bits + stats.wasted_bits == pytest.approx(
            n_frames * 20_000
        )

    def test_empty_frames_never_hit_the_channel(self):
        rt = self._runtime(DropSkipPolicy())
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert rt.on_frame(rng, 0, serialization_s=0.0, time_s=0.0) == 0.0
        assert rng.bit_generator.state == state
        assert rt.stats().frames_displayed == 1

    def test_fec_overhead_accounting(self):
        trace = LossTrace.bernoulli(0.0, packet_bits=12_000)
        rt = LossRuntime(trace, FecPolicy(), interval_s=1 / 72.0, rtt_s=6e-3)
        assert rt.wire_bits(100_000) == 124_000
        rng = np.random.default_rng(0)
        rt.on_frame(rng, 100_000, serialization_s=1e-3, time_s=0.0)
        stats = rt.stats()
        assert stats.overhead_bits == pytest.approx(24_000)
        assert stats.goodput_fraction == pytest.approx(100_000 / 124_000)


class TestSameSeedLossyDeterminism:
    """Same seed, same config => byte-identical lossy outcomes."""

    def _run(self, policy_name: str, seed: int):
        trace = LossTrace.gilbert_elliott(
            p_enter_bad=0.02, mean_burst_packets=4.0, packet_bits=6000
        )
        link = WirelessLink(
            bandwidth_mbps=200.0, propagation_ms=3.0, jitter_ms=0.5, loss=trace
        )
        engine = StreamingEngine(link, recovery=policy_name)
        streams = [
            StreamSpec(
                name=f"s{i}",
                source=PrecomputedSource([_payload_stream(10 * i, 12)]),
                n_frames=12,
                target_fps=72.0,
            )
            for i in range(3)
        ]
        return engine.run(streams, seed=seed)

    @pytest.mark.parametrize("policy", RECOVERY_CHOICES)
    def test_two_runs_bit_identical(self, policy):
        first = self._run(policy, seed=42)
        second = self._run(policy, seed=42)
        for a, b in zip(first, second):
            assert frame_fields(a) == frame_fields(b)
            assert a.loss == b.loss
            # Byte-identical serialization, not just value equality.
            assert _session(a).to_json() == _session(b).to_json()

    def test_different_seeds_diverge(self):
        first = self._run("arq", seed=1)
        second = self._run("arq", seed=2)
        assert any(
            frame_fields(a) != frame_fields(b) for a, b in zip(first, second)
        )


class TestLosslessBitIdentity:
    """The acceptance gate: a lossless configuration makes zero loss
    draws and zero arithmetic changes."""

    def test_lossless_outcome_has_no_loss_stats(self):
        engine = StreamingEngine(CALM_LINK)
        (outcome,) = engine.run(
            [
                StreamSpec(
                    name="s",
                    source=PrecomputedSource([_payload_stream(0, 6)]),
                    n_frames=6,
                    target_fps=72.0,
                )
            ],
            seed=0,
        )
        assert outcome.loss is None

    def test_recovery_without_lossy_link_is_an_error(self):
        with pytest.raises(ValueError, match="lossy link"):
            StreamingEngine(CALM_LINK, recovery="arq")

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n_frames=st.integers(min_value=1, max_value=8),
    )
    def test_zero_probability_skip_matches_lossless_timings(self, seed, n_frames):
        """On a jitter-free link the jitter path makes no draws, so a
        p=0 loss trace (which draws but never loses) must reproduce the
        lossless timings exactly — the loss arithmetic is provably a
        no-op when nothing is lost."""
        payloads = [_payload_stream(seed, n_frames)]
        spec = dict(n_frames=n_frames, target_fps=72.0)
        lossless = StreamingEngine(CALM_LINK).run(
            [StreamSpec(name="s", source=PrecomputedSource(payloads), **spec)],
            seed=seed,
        )
        lossy_link = _lossy_link(LossTrace.bernoulli(0.0))
        lossy = StreamingEngine(lossy_link, recovery="skip").run(
            [StreamSpec(name="s", source=PrecomputedSource(payloads), **spec)],
            seed=seed,
        )
        assert frame_fields(lossless[0]) == frame_fields(lossy[0])
        stats = lossy[0].loss
        assert stats.delivered_quality == 1.0
        assert stats.resyncs == 0
        assert stats.packets_lost == 0

    def test_lossless_link_serialization_has_no_loss_key(self):
        assert "loss" not in json.loads(_fleet(CALM_LINK).to_json())["link"]
        lossy = json.loads(_fleet(_lossy_link(LossTrace.bernoulli(0.02))).to_json())
        assert lossy["link"]["loss"]["p_loss_good"] == pytest.approx(0.02)

    def test_loss_trace_serialization_round_trips(self):
        trace = LossTrace.gilbert_elliott(0.01, 5.0, packet_bits=9000)
        report = _fleet(_lossy_link(trace))
        assert FleetReport.from_json(report.to_json()).link.loss == trace

    @pytest.mark.parametrize(
        "key, value", [("reorder_prob", 0.2), ("reorder_depth", 2)]
    )
    def test_reordering_loss_trace_is_rejected(self, key, value):
        """Packets arrive in order; a report written with a reordering
        trace names the key and points at the migration notes."""
        data = json.loads(_fleet(_lossy_link(LossTrace.bernoulli(0.1))).to_json())
        assert data["link"]["loss"]["reorder_prob"] == 0.0
        assert data["link"]["loss"]["reorder_depth"] == 0
        data["link"]["loss"][key] = value
        with pytest.raises(ValueError, match=rf"{key}={value}.*docs/migration\.md"):
            FleetReport.from_json(json.dumps(data))

    def test_default_packet_is_an_mtu(self):
        assert DEFAULT_PACKET_BITS == 12_000  # 1500 bytes
