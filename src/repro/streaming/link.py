"""Wireless link model for remote VR rendering (paper Sec. 2.2, Fig. 3).

The paper's traffic taxonomy includes the wireless path between a
rendering server (cloud or nearby base station) and the headset, and
notes that its compression scheme also applies "in scenarios where
remotely rendered frames are transmitted one by one (rather than as a
video)".  This module models that link at frame granularity:

    transmit_time = payload_bits / bandwidth  +  propagation delay

with optional jitter, so the remote-rendering session simulator can
turn encoded-frame sizes into motion-to-photon latency and achievable
frame rates.

A link is constant-rate by default.  Attach a
:class:`~repro.streaming.traces.BandwidthTrace` (or build the link with
:meth:`WirelessLink.traced`) and it becomes time-varying: serialization
time then depends on *when* a payload starts transmitting, and
:meth:`WirelessLink.at` exposes the instantaneous rate — both cheap,
via the trace's precomputed cumulative-capacity arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .loss import LossTrace
from .reports import OMIT_DEFAULT
from .traces import BandwidthTrace
from .validation import validate_finite

__all__ = ["WirelessLink", "WIFI6_LINK", "WIGIG_LINK"]


@dataclass(frozen=True)
class WirelessLink:
    """A point-to-point wireless link.

    Attributes
    ----------
    bandwidth_mbps:
        Effective (post-MAC) throughput in megabits per second.  For a
        traced link this is the *nominal* rate used for capacity
        bookkeeping (e.g. utilization); the instantaneous rate comes
        from the trace.
    propagation_ms:
        One-way propagation plus fixed protocol delay, milliseconds.
    jitter_ms:
        Scale parameter of a **half-normal** per-frame delay jitter:
        each frame adds ``abs(N(0, jitter_ms))`` milliseconds, so the
        mean added delay is ``jitter_ms * sqrt(2 / pi)`` (~0.80 x the
        scale).  Zero gives a deterministic link.
    trace:
        Optional :class:`~repro.streaming.traces.BandwidthTrace`
        making the link's rate time-varying.  ``None`` (default) keeps
        the constant-rate behavior.
    loss:
        Optional :class:`~repro.streaming.loss.LossTrace` making the
        link erase (and reorder) packets.  ``None`` (default) keeps
        the lossless behavior — the engine then makes no loss draws at
        all, so lossless runs stay bit-for-bit identical.
    """

    bandwidth_mbps: float
    propagation_ms: float = 2.0
    jitter_ms: float = 0.0
    trace: BandwidthTrace | None = None
    loss: LossTrace | None = field(default=None, metadata=OMIT_DEFAULT)

    def __post_init__(self):
        for name in ("bandwidth_mbps", "propagation_ms", "jitter_ms"):
            validate_finite(getattr(self, name), name)
        if self.bandwidth_mbps <= 0:
            raise ValueError(f"bandwidth_mbps must be positive, got {self.bandwidth_mbps}")
        if self.propagation_ms < 0:
            raise ValueError(f"propagation_ms must be >= 0, got {self.propagation_ms}")
        if self.jitter_ms < 0:
            raise ValueError(f"jitter_ms must be >= 0, got {self.jitter_ms}")

    @classmethod
    def traced(
        cls,
        trace: BandwidthTrace,
        *,
        propagation_ms: float = 2.0,
        jitter_ms: float = 0.0,
        loss: LossTrace | None = None,
    ) -> "WirelessLink":
        """A time-varying link driven by a bandwidth trace.

        Parameters
        ----------
        trace:
            The bandwidth profile; the link's nominal
            ``bandwidth_mbps`` is set to the trace's time-averaged
            rate.
        propagation_ms, jitter_ms, loss:
            As on the constructor.

        Returns
        -------
        WirelessLink
            A link whose serialization times depend on send time.
        """
        return cls(
            bandwidth_mbps=trace.mean_mbps,
            propagation_ms=propagation_ms,
            jitter_ms=jitter_ms,
            trace=trace,
            loss=loss,
        )

    @property
    def rtt_s(self) -> float:
        """Round-trip propagation in seconds (no airtime, no jitter).

        What an ARQ retransmission round pays to learn which packets
        are missing — the :mod:`~repro.streaming.loss` policies charge
        one of these per round.
        """
        return 2.0 * self.propagation_ms * 1e-3

    def at(self, time_s: float = 0.0) -> float:
        """Instantaneous bandwidth in Mbps at a session time.

        Constant links return ``bandwidth_mbps`` for every time; traced
        links answer from the trace's precomputed segment arrays in
        O(log segments).

        Parameters
        ----------
        time_s:
            Session time in seconds (>= 0).
        """
        if self.trace is None:
            if time_s < 0:
                raise ValueError(f"time_s must be >= 0, got {time_s}")
            return self.bandwidth_mbps
        return self.trace.bandwidth_mbps_at(time_s)

    def capacity_bits(self, start_s: float, end_s: float) -> float:
        """Bits the link can deliver between two session times.

        The engine's fluid scheduler charges concurrent transmissions
        their share of exactly this capacity, so contended drains on a
        traced link integrate the same trace as dedicated ones.

        Parameters
        ----------
        start_s, end_s:
            Interval bounds in seconds, ``start_s <= end_s``.

        Returns
        -------
        float
            Deliverable capacity in bits over ``[start_s, end_s]``.
        """
        if end_s < start_s:
            raise ValueError(
                f"end_s must be >= start_s, got [{start_s}, {end_s}]"
            )
        if self.trace is None:
            return self.bandwidth_mbps * 1e6 * (end_s - start_s)
        return self.trace.capacity_bits(start_s, end_s)

    def serialization_time_s(self, payload_bits: int, *, start_s: float = 0.0) -> float:
        """Time to push a payload onto the air.

        Parameters
        ----------
        payload_bits:
            Payload size in bits.
        start_s:
            Session time the transmission starts.  Irrelevant for a
            constant link; on a traced link the payload drains through
            whatever rates the trace holds from ``start_s`` onward.

        Returns
        -------
        float
            Airtime in seconds.
        """
        if payload_bits < 0:
            raise ValueError(f"payload_bits must be >= 0, got {payload_bits}")
        if self.trace is None:
            return payload_bits / (self.bandwidth_mbps * 1e6)
        return self.trace.finish_time_s(start_s, payload_bits) - start_s

    def overhead_time_s(self, rng: np.random.Generator | None = None) -> float:
        """Propagation plus (optional) jitter — everything but airtime.

        The fleet engine adds this on top of scheduler-computed drain
        times, so contended and dedicated transmissions price the fixed
        per-frame overhead identically.

        Parameters
        ----------
        rng:
            Source for the half-normal jitter draw; without one (or
            with ``jitter_ms == 0``) the overhead is deterministic.

        Returns
        -------
        float
            Overhead in seconds: ``propagation_ms`` plus a half-normal
            jitter sample with scale ``jitter_ms`` (mean
            ``jitter_ms * sqrt(2 / pi)`` ms).
        """
        base = self.propagation_ms * 1e-3
        if self.jitter_ms > 0 and rng is not None:
            base += abs(float(rng.normal(0.0, self.jitter_ms))) * 1e-3
        return base

    def transmit_time_s(
        self,
        payload_bits: int,
        rng: np.random.Generator | None = None,
        *,
        start_s: float = 0.0,
    ) -> float:
        """Total one-way latency for a payload, with optional jitter.

        Parameters
        ----------
        payload_bits:
            Payload size in bits.
        rng:
            Jitter source, forwarded to :meth:`overhead_time_s`.
        start_s:
            Send time, forwarded to :meth:`serialization_time_s`
            (matters only for traced links).
        """
        return self.serialization_time_s(payload_bits, start_s=start_s) + self.overhead_time_s(rng)

    def sustainable_fps(self, payload_bits: int, *, at_s: float = 0.0) -> float:
        """Frame rate the link alone can sustain for this payload size.

        Serialization is the recurring cost; propagation pipelines
        away.  For traced links the rate is evaluated at ``at_s``.

        Parameters
        ----------
        payload_bits:
            Per-frame payload size in bits.
        at_s:
            Session time at which to evaluate a traced link's rate.
        """
        if payload_bits < 0:
            raise ValueError(f"payload_bits must be >= 0, got {payload_bits}")
        if payload_bits == 0:
            return float("inf")
        return self.at(at_s) * 1e6 / payload_bits


#: A realistic effective Wi-Fi 6 link for untethered streaming.
WIFI6_LINK = WirelessLink(bandwidth_mbps=400.0, propagation_ms=3.0)

#: A 60 GHz (WiGig-class) link, the tethered-quality wireless option.
WIGIG_LINK = WirelessLink(bandwidth_mbps=1800.0, propagation_ms=1.5)
