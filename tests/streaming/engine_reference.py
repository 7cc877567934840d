"""Reference event kernel and loss sampler: price every flow, every packet.

:meth:`repro.streaming.engine.StreamingEngine._run_event_kernel` prices
only the next completion at each reschedule, the built-in schedulers
remember each weight vector's shares, and
:meth:`repro.streaming.loss.LossTrace.sample_packets` walks the
Gilbert–Elliott chain one state run at a time.  This module keeps the
loops they replaced, as the oracles the fast paths must match exactly:

* :class:`ReferenceEngine` inverts the link trace for every in-flight
  flow at every reschedule, pushes one versioned TRANSMIT_DONE per flow
  onto the event heap (every frame's FRAME_READY from the start) and
  skips the entries a later reschedule made stale;
* a scheduler named to :class:`ReferenceEngine` is the matching
  :data:`REFERENCE_SCHEDULERS` class, which checks and divides the
  weights at every call;
* :func:`sample_packets_reference` advances the chain one packet at a
  time.

All consume the same random draws, in the same order, as the code
under test.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.streaming.engine import (
    _DRAIN_EPSILON_BITS,
    FRAME_READY,
    TRANSMIT_DONE,
    TRANSMIT_START,
    FrameTiming,
    LinkScheduler,
    StreamingEngine,
)

_GOOD, _BAD = 0, 1

#: Same-time events pop completions first, then ready frames, then starts.
_EVENT_ORDER = {TRANSMIT_DONE: 0, FRAME_READY: 1, TRANSMIT_START: 2}


class _VersionedFlow:
    """An in-flight transmission whose heap entries carry a version."""

    __slots__ = (
        "frame_index",
        "payload_bits",
        "wire_bits",
        "rung_name",
        "nominal_s",
        "send_start_s",
        "remaining_bits",
        "share",
        "version",
    )

    def __init__(
        self, frame_index, payload_bits, wire_bits, rung_name, nominal_s, send_start_s
    ):
        self.frame_index = frame_index
        self.payload_bits = payload_bits
        self.wire_bits = wire_bits
        self.rung_name = rung_name
        self.nominal_s = nominal_s
        self.send_start_s = send_start_s
        self.remaining_bits = float(wire_bits)
        self.share = 0.0
        self.version = 0


def _check_weights(weights) -> None:
    for weight in weights:
        if not 0.0 < weight < math.inf:
            raise ValueError(
                f"scheduler weights must be positive and finite, got {weight!r}"
            )


class ReferenceFairScheduler(LinkScheduler):
    """Proportional shares, checked and summed at every call."""

    name = "fair"

    def instantaneous_shares(self, weights):
        _check_weights(weights)
        total = sum(weights)
        if total == math.inf:
            raise ValueError(
                f"scheduler weights must have a finite sum, got {list(weights)!r}"
            )
        return [w / total for w in weights]


class ReferencePriorityScheduler(LinkScheduler):
    """All capacity to the heaviest flow (ties: first), checked at every call."""

    name = "priority"

    def instantaneous_shares(self, weights):
        _check_weights(weights)
        top = min(range(len(weights)), key=lambda i: (-weights[i], i))
        return [1.0 if i == top else 0.0 for i in range(len(weights))]


#: Scheduler name -> its reference class.
REFERENCE_SCHEDULERS = {
    cls.name: cls for cls in (ReferenceFairScheduler, ReferencePriorityScheduler)
}


class ReferenceEngine(StreamingEngine):
    """A :class:`StreamingEngine` whose kernel prices every flow.

    A scheduler given by name is its reference class; an instance is
    used as it is.
    """

    def __init__(self, link, scheduler="fair", recovery=None):
        super().__init__(link, scheduler=scheduler, recovery=recovery)
        if isinstance(scheduler, str):
            self.scheduler = REFERENCE_SCHEDULERS[scheduler]()

    def _run_event_kernel(self, runtimes) -> None:
        """Event-driven backlog pricing for contending streams."""
        heap: list[tuple] = []
        seq = 0

        def push(time_s, kind, stream_index, frame_index=-1, version=-1):
            nonlocal seq
            heapq.heappush(
                heap,
                (time_s, _EVENT_ORDER[kind], seq, kind, stream_index, frame_index, version),
            )
            seq += 1

        for index, rt in enumerate(runtimes):
            interval_s = rt.spec.interval_s
            for frame_index in range(rt.spec.frames_to_stream):
                push(
                    rt.spec.start_s + frame_index * interval_s,
                    FRAME_READY,
                    index,
                    frame_index,
                )

        clock = 0.0
        version_counter = 0

        def advance(now: float) -> None:
            """Drain every in-flight flow at its share up to ``now``."""
            nonlocal clock
            if now <= clock:
                return
            capacity = self.link.capacity_bits(clock, now)
            for rt in runtimes:
                flow = rt.flow
                if flow is not None and flow.share > 0.0:
                    flow.remaining_bits = max(
                        0.0, flow.remaining_bits - flow.share * capacity
                    )
            clock = now

        def reschedule(now: float) -> None:
            """Re-divide the link after the active set changed."""
            nonlocal version_counter
            active = [i for i, rt in enumerate(runtimes) if rt.flow is not None]
            if not active:
                return
            shares = self.scheduler.instantaneous_shares(
                [runtimes[i].spec.weight for i in active]
            )
            for i, share in zip(active, shares):
                flow = runtimes[i].flow
                version_counter += 1
                flow.version = version_counter
                flow.share = share
                if share <= 0.0:
                    continue  # re-priced when the active set next changes
                if flow.remaining_bits <= _DRAIN_EPSILON_BITS:
                    finish = now
                else:
                    finish = now + self.link.serialization_time_s(
                        flow.remaining_bits / share, start_s=now
                    )
                push(finish, TRANSMIT_DONE, i, flow.frame_index, flow.version)

        while heap:
            time_s, _, _, kind, index, frame_index, version = heapq.heappop(heap)
            rt = runtimes[index]
            spec = rt.spec
            if kind == FRAME_READY:
                self._log(time_s, FRAME_READY, spec.name, frame_index)
                payload, rung_name = self._choose_payload(spec, frame_index, time_s)
                wire = self._wire_bits(payload)
                rt.queue.append((frame_index, payload, wire, rung_name, time_s))
                if rt.flow is None and not rt.pending_start:
                    rt.pending_start = True
                    push(time_s, TRANSMIT_START, index)
            elif kind == TRANSMIT_START:
                rt.pending_start = False
                frame_index, payload, wire, rung_name, nominal_s = rt.queue.popleft()
                self._log(time_s, TRANSMIT_START, spec.name, frame_index)
                advance(time_s)
                rt.flow = _VersionedFlow(
                    frame_index, payload, wire, rung_name, nominal_s, time_s
                )
                reschedule(time_s)
            else:  # TRANSMIT_DONE
                flow = rt.flow
                if flow is None or flow.version != version:
                    continue  # superseded by a later reschedule
                self._log(time_s, TRANSMIT_DONE, spec.name, flow.frame_index)
                advance(time_s)
                serialization = time_s - flow.send_start_s
                queue_wait_s = flow.send_start_s - flow.nominal_s
                recovery_s = (
                    rt.loss.on_frame(
                        rt.rng, flow.payload_bits, serialization, flow.nominal_s
                    )
                    if rt.loss is not None
                    else 0.0
                )
                overhead = self.link.overhead_time_s(rt.rng)
                if spec.adaptation is not None:
                    spec.adaptation.record(flow.payload_bits, serialization)
                rt.timings.append(
                    FrameTiming(
                        frame_index=flow.frame_index,
                        payload_bits=flow.payload_bits,
                        encode_time_s=spec.encode_time_s,
                        serialization_time_s=serialization,
                        transmit_time_s=queue_wait_s + serialization + overhead
                        + recovery_s,
                        rung=flow.rung_name,
                    )
                )
                rt.flow = None
                if rt.queue and not rt.pending_start:
                    rt.pending_start = True
                    push(time_s, TRANSMIT_START, index)
                reschedule(time_s)
        for rt in runtimes:
            rt.timings.sort(key=lambda timing: timing.frame_index)


def sample_packets_reference(trace, rng, n_packets, state=_GOOD):
    """Per-packet loss for ``n_packets``, advancing the chain packet by packet."""
    u = rng.random((n_packets, 2))
    lost = np.empty(n_packets, dtype=bool)
    if not trace.is_bursty:
        lost[:] = u[:, 1] < trace.p_loss_good
        return lost, state
    p_gb, p_bg = trace.p_good_to_bad, trace.p_bad_to_good
    for i in range(n_packets):
        lost[i] = u[i, 1] < (
            trace.p_loss_bad if state == _BAD else trace.p_loss_good
        )
        if state == _GOOD:
            if u[i, 0] < p_gb:
                state = _BAD
        elif u[i, 0] < p_bg:
            state = _GOOD
    return lost, state
