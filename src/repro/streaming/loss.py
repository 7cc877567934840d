"""Packet-level link impairments and frame recovery policies.

The bandwidth traces in :mod:`repro.streaming.traces` make links
*slow*; this module makes them *lossy*.  A :class:`LossTrace` models
per-packet erasure — independent (Bernoulli) or bursty
(Gilbert–Elliott two-state) — and a :class:`RecoveryPolicy` decides
what the transport does about a frame that lost packets:

* :class:`ArqPolicy` retransmits the missing packets in rounds under
  capped exponential :class:`Backoff`, giving up at the frame deadline;
* :class:`FecPolicy` ships ``FecPolicy.k`` parity packets with every
  frame and absorbs up to that many losses with zero recovery latency;
* :class:`DropSkipPolicy` gives up immediately — cheapest on the wire,
  harshest on the decoder.

The decoder consequence is explicit: the temporal-BD codec path
predicts each frame from the previous one, so an undelivered frame
*poisons* its successors until the policy forces an I-frame resync,
which the first delivered frame after the loss run carries.
:class:`LossRuntime` runs that state machine per stream and rolls the
outcome up into :class:`LossStats` — resync counts, recovery latency,
and goodput versus delivered quality — surfaced on
:class:`~repro.streaming.session.SessionReport` and
:class:`~repro.streaming.fleet.FleetReport`.

Determinism contract: all randomness comes from the engine's
per-stream ``Generator`` (the ``SeedSequence.spawn`` scheme), and the
draw order per frame is fixed — packet erasures
(:meth:`LossTrace.sample_packets`), then any policy retransmission
draws, then the link's jitter draw.  A ``None`` loss trace makes *no*
draws and *no* arithmetic changes, which is what keeps lossless
configurations bit-for-bit identical to the pre-loss engine.

Examples
--------
>>> trace = LossTrace.gilbert_elliott(p_enter_bad=0.01, mean_burst_packets=5)
>>> round(trace.steady_state_loss_rate, 4)
0.0476
>>> parse_loss_spec("bern:0.02").steady_state_loss_rate
0.02
"""

from __future__ import annotations

import bisect
import math
import types
from dataclasses import dataclass

import numpy as np

from .validation import (
    validate_backoff,
    validate_burst_length,
    validate_probability,
)

__all__ = [
    "LOSS_SPEC_KINDS",
    "RECOVERY_CHOICES",
    "LossTrace",
    "parse_loss_spec",
    "Backoff",
    "RecoveryPolicy",
    "ArqPolicy",
    "FecPolicy",
    "DropSkipPolicy",
    "get_recovery_policy",
    "RecoveryResult",
    "LossRuntime",
    "LossStats",
]

#: Spec prefixes :func:`parse_loss_spec` understands.
LOSS_SPEC_KINDS = ("bern", "ge")

#: Recovery policy names :func:`get_recovery_policy` understands.
RECOVERY_CHOICES = ("arq", "fec", "skip")

#: Default packet size: a 1500-byte MTU in bits.
DEFAULT_PACKET_BITS = 12_000

#: Channel states for the Gilbert–Elliott chain.
_GOOD, _BAD = 0, 1


@dataclass(frozen=True)
class LossTrace:
    """A packet-erasure profile for a wireless hop.

    The channel is a two-state (good/bad) discrete-time Markov chain
    advanced once per packet: in the good state packets are lost with
    probability ``p_loss_good``, in the bad state with ``p_loss_bad``.
    ``p_good_to_bad == 0`` degenerates to the memoryless Bernoulli
    channel.

    Instances are immutable, hashable, and value-comparable so they can
    ride on the frozen :class:`~repro.streaming.link.WirelessLink`.

    Parameters
    ----------
    p_loss_good:
        Per-packet loss probability in the good state.
    p_loss_bad:
        Per-packet loss probability in the bad state.
    p_good_to_bad:
        Per-packet probability of entering a burst (good → bad).
    p_bad_to_good:
        Per-packet probability of a burst ending (bad → good); must be
        positive whenever bursts can start, so every burst ends.
    packet_bits:
        Packet size in bits; frames are fragmented into
        ``ceil(wire_bits / packet_bits)`` packets.
    """

    p_loss_good: float = 0.0
    p_loss_bad: float = 1.0
    p_good_to_bad: float = 0.0
    p_bad_to_good: float = 1.0
    packet_bits: int = DEFAULT_PACKET_BITS

    # Packets arrive in order; the constant keys keep serialized links
    # byte-identical to earlier writers, and the reader rejects traces
    # that reordered packets.
    _constants = types.MappingProxyType({"reorder_prob": 0.0, "reorder_depth": 0})

    def __post_init__(self) -> None:
        for name in ("p_loss_good", "p_loss_bad", "p_good_to_bad", "p_bad_to_good"):
            object.__setattr__(
                self, name, validate_probability(getattr(self, name), name)
            )
        if self.p_good_to_bad > 0.0 and self.p_bad_to_good <= 0.0:
            raise ValueError(
                "p_bad_to_good must be positive when p_good_to_bad > 0, "
                "or every burst would last forever"
            )
        if int(self.packet_bits) <= 0:
            raise ValueError(
                f"packet_bits must be a positive packet size in bits, "
                f"got {self.packet_bits!r}"
            )
        object.__setattr__(self, "packet_bits", int(self.packet_bits))

    # -- constructors ---------------------------------------------------

    @classmethod
    def bernoulli(cls, p: float, packet_bits: int = DEFAULT_PACKET_BITS) -> "LossTrace":
        """Independent per-packet loss with probability ``p``."""
        return cls(
            p_loss_good=p,
            p_loss_bad=p,
            p_good_to_bad=0.0,
            p_bad_to_good=1.0,
            packet_bits=packet_bits,
        )

    @classmethod
    def gilbert_elliott(
        cls,
        p_enter_bad: float,
        mean_burst_packets: float = 5.0,
        p_loss_bad: float = 1.0,
        p_loss_good: float = 0.0,
        packet_bits: int = DEFAULT_PACKET_BITS,
    ) -> "LossTrace":
        """Bursty loss: bad states entered at ``p_enter_bad`` per packet.

        Parameters
        ----------
        p_enter_bad:
            Per-packet probability of entering the bad state.
        mean_burst_packets:
            Mean bad-state dwell in packets (geometric, so the exit
            probability is its reciprocal); must be >= 1.
        p_loss_bad, p_loss_good:
            Loss probabilities inside and outside bursts.
        packet_bits:
            As on the class.
        """
        mean_burst = validate_burst_length(mean_burst_packets, "mean_burst_packets")
        return cls(
            p_loss_good=p_loss_good,
            p_loss_bad=p_loss_bad,
            p_good_to_bad=p_enter_bad,
            p_bad_to_good=1.0 / mean_burst,
            packet_bits=packet_bits,
        )

    # -- analytic properties --------------------------------------------

    @property
    def is_bursty(self) -> bool:
        """Whether the bad state is reachable (Gilbert–Elliott proper)."""
        return self.p_good_to_bad > 0.0

    @property
    def stationary_bad_fraction(self) -> float:
        """Stationary probability of the bad state."""
        if not self.is_bursty:
            return 0.0
        return self.p_good_to_bad / (self.p_good_to_bad + self.p_bad_to_good)

    @property
    def steady_state_loss_rate(self) -> float:
        """Long-run per-packet loss probability (analytic).

        The statistical tests pin the empirical loss rate of sampled
        packet streams to this value.
        """
        pi_bad = self.stationary_bad_fraction
        return pi_bad * self.p_loss_bad + (1.0 - pi_bad) * self.p_loss_good

    @property
    def mean_burst_packets(self) -> float:
        """Mean bad-state dwell in packets (geometric)."""
        return 1.0 / self.p_bad_to_good

    # -- sampling -------------------------------------------------------

    def n_packets(self, wire_bits: float) -> int:
        """Packets needed to carry ``wire_bits`` on this trace."""
        return max(1, int(math.ceil(wire_bits / self.packet_bits)))

    def sample_packets(
        self, rng: np.random.Generator, n_packets: int, state: int = _GOOD
    ) -> tuple[np.ndarray, int]:
        """Draw per-packet loss for ``n_packets``, advancing the chain.

        Exactly one ``rng.random((n_packets, 2))`` draw is made
        regardless of parameters (column 0 drives the state transition,
        column 1 the erasure), so the draw count — and therefore every
        later draw in the stream — depends only on the packet count.
        For each packet the erasure is evaluated in the *current* state,
        then the chain transitions; a burst therefore starts losing
        packets one slot after ``p_good_to_bad`` fires.

        Parameters
        ----------
        rng:
            The stream's generator.
        n_packets:
            Number of packet slots to draw.
        state:
            Chain state carried over from the previous frame.

        Returns
        -------
        tuple
            ``(lost, state)``: a boolean erasure mask of length
            ``n_packets`` and the chain state after the last packet.
        """
        u, runs, state = self._state_runs(rng, n_packets, state)
        lost = np.empty(n_packets, dtype=bool)
        for start, end, p_loss in runs:
            lost[start:end] = u[start:end, 1] < p_loss
        return lost, state

    def _count_lost(
        self, rng: np.random.Generator, n_packets: int, state: int
    ) -> tuple[int, int]:
        """:meth:`sample_packets`' erasure count and end state, mask-free.

        Same draw, same walk.  A run whose loss probability is 0 loses
        nothing and one whose probability is 1 loses every packet
        (``rng.random`` is below 1), so neither compares a draw.
        """
        u, runs, state = self._state_runs(rng, n_packets, state)
        n_lost = 0
        for start, end, p_loss in runs:
            if p_loss == 1.0:
                n_lost += end - start
            elif p_loss > 0.0:
                n_lost += int(np.count_nonzero(u[start:end, 1] < p_loss))
        return n_lost, state

    def _state_runs(
        self, rng: np.random.Generator, n_packets: int, state: int
    ) -> tuple[np.ndarray, list[tuple[int, int, float]], int]:
        """The frame's one draw, split into runs of one chain state.

        Returns ``(u, runs, state)``: the ``rng.random((n_packets, 2))``
        draw, one ``(start, end, p_loss)`` per run of packets
        ``start:end`` sent in one state (erased where ``u[:, 1] <
        p_loss``), and the state after the last packet.
        """
        u = rng.random((n_packets, 2))
        if not self.is_bursty:
            return u, [(0, n_packets, self.p_loss_good)], state
        # Walk the chain one state run at a time.  A run ends at the first
        # packet at or after its start whose transition draw fires in the
        # run's state; every packet up to and including that one is
        # erased with the state's loss probability.  A state's fire list
        # is built when the chain first enters it, and only if a draw
        # fires: most frames never leave the good state.
        fires: list[list[int] | None] = [None, None]
        p_leave = (self.p_good_to_bad, self.p_bad_to_good)
        p_loss = (self.p_loss_good, self.p_loss_bad)
        runs = []
        start = 0
        while start < n_packets:
            state_fires = fires[state]
            if state_fires is None:
                fired = u[:, 0] < p_leave[state]
                state_fires = fires[state] = (
                    np.flatnonzero(fired).tolist() if fired.any() else []
                )
            k = bisect.bisect_left(state_fires, start)
            if k == len(state_fires):  # the run outlasts the frame
                runs.append((start, n_packets, p_loss[state]))
                break
            end = state_fires[k] + 1
            runs.append((start, end, p_loss[state]))
            state = _BAD if state == _GOOD else _GOOD
            start = end
        return u, runs, state

    def __repr__(self) -> str:
        kind = "GE" if self.is_bursty else "bernoulli"
        return (
            f"LossTrace({kind}, loss {self.steady_state_loss_rate:.4f}, "
            f"burst {self.mean_burst_packets:.1f} pkt, "
            f"packet {self.packet_bits} b)"
        )


def parse_loss_spec(spec: str) -> LossTrace:
    """Build a :class:`LossTrace` from a CLI spec string.

    Supported forms (fields are colon-separated, mirroring
    :func:`~repro.streaming.traces.parse_trace_spec`):

    * ``bern:P`` — independent per-packet loss with probability ``P``;
    * ``ge:P_ENTER:MEAN_BURST[:P_LOSS_BAD[:P_LOSS_GOOD]]`` —
      Gilbert–Elliott bursts entered at ``P_ENTER`` per packet with
      mean length ``MEAN_BURST`` packets.

    Raises
    ------
    ValueError
        For an unknown kind, wrong field count, or invalid values
        (via the validators, with the offending field named).
    """
    kind, _, rest = str(spec).partition(":")
    kind = kind.strip().lower()
    fields = [f.strip() for f in rest.split(":")] if rest else []

    def numbers(n_min: int, n_max: int) -> list[float]:
        """The spec's fields as floats, arity-checked."""
        if not n_min <= len(fields) <= n_max:
            raise ValueError(
                f"loss spec {spec!r}: {kind!r} takes "
                f"{n_min if n_min == n_max else f'{n_min}-{n_max}'} fields"
            )
        try:
            return [float(f) for f in fields]
        except ValueError:
            raise ValueError(
                f"loss spec {spec!r}: non-numeric field in {fields}"
            ) from None

    if kind == "bern":
        (p,) = numbers(1, 1)
        return LossTrace.bernoulli(p)
    if kind == "ge":
        values = numbers(2, 4)
        p_loss_bad = values[2] if len(values) >= 3 else 1.0
        p_loss_good = values[3] if len(values) == 4 else 0.0
        return LossTrace.gilbert_elliott(
            values[0], values[1], p_loss_bad=p_loss_bad, p_loss_good=p_loss_good
        )
    raise ValueError(
        f"unknown loss spec kind {kind!r}; expected one of {LOSS_SPEC_KINDS}"
    )


@dataclass(frozen=True)
class Backoff:
    """Capped exponential backoff: ``min(max_s, base_s * factor**n)``.

    One schedule, two users: :class:`ArqPolicy` waits this long before
    each retransmission round, and the serving client
    (:mod:`repro.serving.client`) waits this long before each
    reconnection attempt — the "same backoff policy" the chaos tests
    lean on.

    Parameters
    ----------
    base_s:
        Delay before the first retry, in seconds.
    factor:
        Multiplier applied per subsequent retry; >= 1.
    max_s:
        Ceiling on any single delay, in seconds.
    """

    base_s: float = 0.002
    factor: float = 2.0
    max_s: float = 0.064

    def __post_init__(self) -> None:
        validate_backoff(self.base_s, self.factor, self.max_s)

    def delay_s(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based), in seconds."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        return min(self.max_s, self.base_s * self.factor ** (attempt - 1))


class RecoveryResult:
    """Outcome of one frame's recovery attempt (a plain record)."""

    __slots__ = ("delivered", "delay_s", "retransmits")

    def __init__(self, delivered: bool, delay_s: float, retransmits: int):
        self.delivered = delivered
        self.delay_s = delay_s
        self.retransmits = retransmits


@dataclass(frozen=True)
class RecoveryPolicy:
    """What the transport does about a frame that lost packets.

    Subclasses override :meth:`wire_bits` (deterministic per-frame
    overhead, charged to the link before any loss is drawn) and
    :meth:`resolve` (whether the frame is ultimately delivered, at what
    extra latency).  Policies are frozen, stateless, and picklable —
    one instance is shared across streams and process-pool tasks; all
    per-stream state lives in :class:`LossRuntime`.  Their tuning is
    class constants, not constructor parameters.
    """

    #: Registry name; subclasses set it.
    name = "abstract"

    def wire_bits(self, payload_bits: float, packet_bits: int) -> float:
        """Bits actually offered to the link for this payload."""
        return payload_bits

    def resolve(
        self,
        rng: np.random.Generator,
        n_lost: int,
        *,
        packet_time_s: float,
        rtt_s: float,
        deadline_s: float,
        retx_loss_rate: float,
    ) -> RecoveryResult:
        """Decide the frame's fate given ``n_lost`` erased packets."""
        raise NotImplementedError


@dataclass(frozen=True)
class ArqPolicy(RecoveryPolicy):
    """Retransmit missing packets in rounds under a frame deadline.

    Each round waits the backoff delay, spends one RTT plus the
    serialization time of the still-missing packets, and redraws their
    fate at the trace's steady-state loss rate (retransmissions are
    spaced far enough apart to decorrelate from the burst that killed
    the originals).  The frame is delivered when no packets remain
    missing; it is abandoned when :attr:`max_retries` rounds have run or
    the accumulated delay passes the deadline of one frame interval.
    """

    #: Maximum retransmission rounds per frame.
    max_retries = 4
    #: Delay schedule between rounds.
    backoff = Backoff()

    name = "arq"

    def resolve(
        self,
        rng: np.random.Generator,
        n_lost: int,
        *,
        packet_time_s: float,
        rtt_s: float,
        deadline_s: float,
        retx_loss_rate: float,
    ) -> RecoveryResult:
        if n_lost == 0:
            return RecoveryResult(True, 0.0, 0)
        missing = n_lost
        delay_s = 0.0
        retransmits = 0
        for attempt in range(1, self.max_retries + 1):
            delay_s += (
                self.backoff.delay_s(attempt)
                + rtt_s
                + missing * packet_time_s
            )
            retransmits += missing
            missing = int(
                np.count_nonzero(rng.random(missing) < retx_loss_rate)
            )
            if missing == 0 or delay_s > deadline_s:
                break
        delivered = missing == 0 and delay_s <= deadline_s
        return RecoveryResult(delivered, delay_s, retransmits)


@dataclass(frozen=True)
class FecPolicy(RecoveryPolicy):
    """Ship ``k`` parity packets per frame; absorb up to ``k`` losses.

    Overhead is deterministic — ``k * packet_bits`` on every non-empty
    frame, inflating serialization time and therefore backlog exactly
    as real FEC inflates airtime — and recovery is instantaneous: the
    frame decodes iff at most ``k`` of its data+parity packets were
    erased.
    """

    #: Parity packets per frame (also the per-frame loss budget).
    k = 2

    name = "fec"

    def wire_bits(self, payload_bits: float, packet_bits: int) -> float:
        if payload_bits <= 0:
            return payload_bits
        return payload_bits + self.k * packet_bits

    def resolve(
        self,
        rng: np.random.Generator,
        n_lost: int,
        *,
        packet_time_s: float,
        rtt_s: float,
        deadline_s: float,
        retx_loss_rate: float,
    ) -> RecoveryResult:
        return RecoveryResult(n_lost <= self.k, 0.0, 0)


@dataclass(frozen=True)
class DropSkipPolicy(RecoveryPolicy):
    """Give up on any frame that lost a packet; lean on resync."""

    name = "skip"

    def resolve(
        self,
        rng: np.random.Generator,
        n_lost: int,
        *,
        packet_time_s: float,
        rtt_s: float,
        deadline_s: float,
        retx_loss_rate: float,
    ) -> RecoveryResult:
        return RecoveryResult(n_lost == 0, 0.0, 0)


def get_recovery_policy(policy: "str | RecoveryPolicy | None") -> RecoveryPolicy:
    """Resolve a recovery policy by name or pass an instance through.

    Mirrors :func:`~repro.streaming.adaptive.get_controller`: ``None``
    and ``"arq"`` both give the ARQ policy.  A policy takes no
    constructor arguments; its tuning is class constants
    (:attr:`ArqPolicy.max_retries`, :attr:`FecPolicy.k`).

    Raises
    ------
    ValueError
        For unknown policy names (listing :data:`RECOVERY_CHOICES`).
    """
    if isinstance(policy, RecoveryPolicy):
        return policy
    if policy is None:
        policy = "arq"
    classes = {"arq": ArqPolicy, "fec": FecPolicy, "skip": DropSkipPolicy}
    try:
        cls = classes[policy]
    except KeyError:
        raise ValueError(
            f"unknown recovery policy {policy!r}; "
            f"expected one of {RECOVERY_CHOICES}"
        ) from None
    return cls()


@dataclass(frozen=True)
class LossStats:
    """Per-stream loss/recovery telemetry, attached to session reports.

    Every frame lands in exactly one of two bins: *displayed*
    (delivered to a synchronized decoder, including the forced resync
    I-frames) or *lost* (undelivered).  The first delivered frame after
    a loss run carries the resync, so no delivered frame is poisoned.

    Parameters
    ----------
    policy:
        Recovery policy name (``"arq"``, ``"fec"``, or ``"skip"``).
    frames_displayed, frames_lost:
        The two frame bins.
    frames_poisoned:
        Always 0; the key stays so report JSON keeps its key order.
    resyncs:
        Completed forced I-frame resynchronizations.
    recovery_time_s:
        Summed loss-to-resync latency across all resyncs.
    packets_sent, packets_lost:
        First-transmission packet counts (retransmissions excluded).
    retransmits:
        Packets retransmitted by ARQ.
    overhead_bits:
        FEC parity plus retransmitted bits — airtime spent on
        protection rather than payload.
    goodput_bits:
        Payload bits of displayed frames.
    wasted_bits:
        Payload bits of lost frames.
    """

    policy: str = "skip"
    frames_displayed: int = 0
    frames_lost: int = 0
    frames_poisoned: int = 0
    resyncs: int = 0
    recovery_time_s: float = 0.0
    packets_sent: int = 0
    packets_lost: int = 0
    retransmits: int = 0
    overhead_bits: float = 0.0
    goodput_bits: float = 0.0
    wasted_bits: float = 0.0

    @property
    def n_frames(self) -> int:
        """Total frames classified."""
        return self.frames_displayed + self.frames_lost + self.frames_poisoned

    @property
    def delivered_quality(self) -> float:
        """Fraction of frames the viewer actually saw decoded."""
        total = self.n_frames
        return self.frames_displayed / total if total else 1.0

    @property
    def mean_recovery_latency_s(self) -> float:
        """Mean loss-to-resync latency, 0 when nothing was lost."""
        return self.recovery_time_s / self.resyncs if self.resyncs else 0.0

    @property
    def goodput_fraction(self) -> float:
        """Displayed payload bits over all bits offered to the link."""
        total = self.goodput_bits + self.wasted_bits + self.overhead_bits
        return self.goodput_bits / total if total else 1.0


class LossRuntime:
    """Per-stream impairment state machine.

    Owns the Gilbert–Elliott chain state carried across frames, the
    decoder poisoning/resync state, and the running telemetry counters.
    The engine calls :meth:`on_frame` once a frame's serialization is
    priced, before its jitter draw, passing the same per-stream
    ``rng``.

    Parameters
    ----------
    trace:
        The link's loss profile.
    policy:
        Recovery policy (shared, stateless).
    interval_s:
        The stream's frame interval (sets the ARQ deadline).
    rtt_s:
        Link round-trip time (propagation both ways).
    """

    __slots__ = (
        "trace",
        "policy",
        "interval_s",
        "rtt_s",
        "_retx_loss_rate",
        "_state",
        "_poisoned",
        "_loss_time_s",
        "_frames_displayed",
        "_frames_lost",
        "_resyncs",
        "_recovery_time_s",
        "_packets_sent",
        "_packets_lost",
        "_retransmits",
        "_overhead_bits",
        "_goodput_bits",
        "_wasted_bits",
    )

    def __init__(
        self,
        trace: LossTrace,
        policy: RecoveryPolicy,
        interval_s: float,
        rtt_s: float,
    ):
        self.trace = trace
        self.policy = policy
        self.interval_s = interval_s
        self.rtt_s = rtt_s
        self._retx_loss_rate = trace.steady_state_loss_rate
        self._state = _GOOD
        self._poisoned = False
        self._loss_time_s = 0.0
        self._frames_displayed = 0
        self._frames_lost = 0
        self._resyncs = 0
        self._recovery_time_s = 0.0
        self._packets_sent = 0
        self._packets_lost = 0
        self._retransmits = 0
        self._overhead_bits = 0.0
        self._goodput_bits = 0.0
        self._wasted_bits = 0.0

    def wire_bits(self, payload_bits: float) -> float:
        """Bits the link must carry for this payload (FEC-inflated)."""
        return self.policy.wire_bits(payload_bits, self.trace.packet_bits)

    def on_frame(
        self,
        rng: np.random.Generator,
        payload_bits: float,
        serialization_s: float,
        time_s: float,
    ) -> float:
        """Impair one transmitted frame; return the recovery delay.

        Draw order (fixed, replicated by cohort tracers): packet
        erasures, then policy retransmission rounds.  The returned
        delay — the retransmission rounds' — is added to the frame's
        transmit time but, like jitter, never fed back into the
        sender's backlog.

        Parameters
        ----------
        rng:
            The stream's generator (same one the jitter draw uses,
            *after* this call).
        payload_bits:
            The frame's useful payload (pre-FEC).
        serialization_s:
            Wire serialization time of the (FEC-inflated) frame.
        time_s:
            The frame's nominal ready time, used to timestamp loss
            runs for recovery-latency accounting.

        Returns
        -------
        float
            Extra seconds to add to the frame's transmit time.
        """
        wire = self.wire_bits(payload_bits)
        if wire <= 0:
            self._classify(True, payload_bits, time_s)
            return 0.0
        n_packets = self.trace.n_packets(wire)
        packet_time_s = serialization_s / n_packets
        n_lost, self._state = self.trace._count_lost(rng, n_packets, self._state)
        result = self.policy.resolve(
            rng,
            n_lost,
            packet_time_s=packet_time_s,
            rtt_s=self.rtt_s,
            deadline_s=self.interval_s,
            retx_loss_rate=self._retx_loss_rate,
        )
        self._packets_sent += n_packets
        self._packets_lost += n_lost
        self._retransmits += result.retransmits
        self._overhead_bits += (
            (wire - payload_bits) + result.retransmits * self.trace.packet_bits
        )
        self._classify(result.delivered, payload_bits, time_s)
        return result.delay_s

    def _classify(self, delivered: bool, payload_bits: float, time_s: float) -> None:
        """Advance the decoder poisoning/resync state machine."""
        if not delivered:
            if not self._poisoned:
                self._poisoned = True
                self._loss_time_s = time_s
            self._frames_lost += 1
            self._wasted_bits += payload_bits
            return
        if self._poisoned:
            # This delivered frame is the forced I-frame resync.
            self._poisoned = False
            self._resyncs += 1
            self._recovery_time_s += time_s - self._loss_time_s
        self._frames_displayed += 1
        self._goodput_bits += payload_bits

    def stats(self) -> LossStats:
        """Snapshot the counters as an immutable :class:`LossStats`."""
        return LossStats(
            policy=self.policy.name,
            frames_displayed=self._frames_displayed,
            frames_lost=self._frames_lost,
            resyncs=self._resyncs,
            recovery_time_s=self._recovery_time_s,
            packets_sent=self._packets_sent,
            packets_lost=self._packets_lost,
            retransmits=self._retransmits,
            overhead_bits=self._overhead_bits,
            goodput_bits=self._goodput_bits,
            wasted_bits=self._wasted_bits,
        )
