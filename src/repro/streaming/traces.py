"""Time-varying link capacity: bandwidth traces for fading channels.

The constant-bandwidth :class:`~repro.streaming.link.WirelessLink` is
the right model for a benchmark, but real Wi-Fi fades: rate adaptation
drops the PHY rate when the channel degrades, neighbors steal airtime,
and people walk between the headset and the access point.  A
:class:`BandwidthTrace` captures that as a piecewise-constant bandwidth
profile — step patterns, a two-state Markov channel, or a measured
trace loaded from a file — and answers the two questions a
frame-granularity simulator asks:

* what is the link rate *right now* (``bandwidth_mbps_at``), and
* when does a payload that starts transmitting at ``t`` finish
  (``finish_time_s``)?

Both are O(log segments) bisections of precomputed cumulative-capacity
lists — as is the capacity integral (``capacity_bits``) the
discrete-event kernel in :mod:`repro.streaming.engine` charges
concurrent transmissions against — so the simulators can query the
trace at every event without rescanning it.  The lists hold Python
floats: a scalar NumPy call costs more than the whole lookup.

Examples
--------
>>> trace = BandwidthTrace.square(high_mbps=400, low_mbps=100, period_s=5)
>>> trace.bandwidth_mbps_at(2.0), trace.bandwidth_mbps_at(7.0)
(400.0, 100.0)
>>> trace.capacity_bits(0.0, 10.0) == (400 + 100) / 2 * 10 * 1e6
True
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .validation import validate_finite

__all__ = ["BandwidthTrace", "parse_trace_spec", "TRACE_SPEC_KINDS"]

#: Spec prefixes :func:`parse_trace_spec` understands.
TRACE_SPEC_KINDS = ("const", "step", "markov", "file")


@dataclass(frozen=True)
class BandwidthTrace:
    """A piecewise-constant bandwidth profile over time.

    The trace is a sequence of segments: segment ``i`` starts at
    ``times_s[i]`` and carries ``rates_mbps[i]`` until the next
    boundary; the last segment extends forever.  Construction
    precomputes the cumulative capacity delivered by each boundary, so
    instantaneous-rate, capacity-integral, and finish-time queries are
    all binary searches (``bisect`` over lists of Python floats).

    The two fields are the trace's value: equality, hash and the report
    JSON all read them.

    Attributes
    ----------
    times_s:
        Segment start times in seconds, strictly ascending, beginning
        at ``0.0``.  Any sequence is accepted; a tuple of floats is kept.
    rates_mbps:
        Bandwidth of each segment in megabits per second, all positive,
        same length as ``times_s``.  Kept as each rate in bits per
        second over ``1e6``, so ``BandwidthTrace(trace.times_s,
        trace.rates_mbps)`` rebuilds an equal trace.

    Raises
    ------
    ValueError
        If the boundary times do not start at zero or are not strictly
        ascending, if any rate is non-positive, or if the two sequences
        differ in length.
    """

    times_s: tuple[float, ...]
    rates_mbps: tuple[float, ...]

    def __post_init__(self) -> None:
        times = np.asarray(self.times_s, dtype=np.float64)
        rates = np.asarray(self.rates_mbps, dtype=np.float64)
        if times.ndim != 1 or rates.ndim != 1 or times.size != rates.size:
            raise ValueError(
                f"times_s and rates_mbps must be 1-D and equal length, "
                f"got shapes {times.shape} and {rates.shape}"
            )
        if times.size == 0:
            raise ValueError("a trace needs at least one segment")
        if not np.all(np.isfinite(times)):
            raise ValueError(f"times_s must be finite, got {self.times_s!r}")
        if not np.all(np.isfinite(rates)):
            raise ValueError(f"rates_mbps must be finite, got {self.rates_mbps!r}")
        if times[0] != 0.0:
            raise ValueError(f"the first segment must start at 0.0 s, got {times[0]}")
        if np.any(np.diff(times) <= 0):
            raise ValueError("segment start times must be strictly ascending")
        if np.any(rates <= 0):
            raise ValueError("all rates must be positive Mbps")
        rates_bps = rates * 1e6
        # Capacity (bits) delivered by each segment boundary; the open
        # last segment contributes beyond _cum_bits[-1] at _rates_bps[-1].
        cum_bits = np.concatenate(([0.0], np.cumsum(rates_bps[:-1] * np.diff(times))))
        object.__setattr__(self, "_times", times.tolist())
        object.__setattr__(self, "_rates_bps", rates_bps.tolist())
        object.__setattr__(self, "_cum_bits", cum_bits.tolist())
        # One slot holding (time_s, bits) of the last cumulative_bits
        # search; NaN matches no time, so the first call searches.
        object.__setattr__(self, "_last_cumulative", [(math.nan, math.nan)])
        object.__setattr__(self, "times_s", tuple(self._times))
        object.__setattr__(self, "rates_mbps", tuple(r / 1e6 for r in self._rates_bps))

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, mbps: float) -> "BandwidthTrace":
        """A degenerate single-segment trace with a fixed rate."""
        return cls([0.0], [mbps])

    @classmethod
    def square(
        cls,
        high_mbps: float,
        low_mbps: float,
        period_s: float,
        horizon_s: float = 240.0,
    ) -> "BandwidthTrace":
        """Alternate between two rates, ``period_s`` seconds each.

        Starts high; the pattern repeats out to ``horizon_s`` (far
        beyond any frame-granularity session) and holds the last level
        afterwards.

        Parameters
        ----------
        high_mbps, low_mbps:
            The two bandwidth levels in Mbps.
        period_s:
            Dwell time at each level in seconds.
        horizon_s:
            How far out to materialize segments; the last one extends
            forever.
        """
        for name, value in (("high_mbps", high_mbps), ("low_mbps", low_mbps),
                            ("period_s", period_s), ("horizon_s", horizon_s)):
            validate_finite(value, name)
        if period_s <= 0:
            raise ValueError(f"period_s must be positive, got {period_s}")
        n_segments = max(2, int(np.ceil(horizon_s / period_s)))
        times = [i * period_s for i in range(n_segments)]
        rates = [high_mbps if i % 2 == 0 else low_mbps for i in range(n_segments)]
        return cls(times, rates)

    @classmethod
    def step_down(
        cls, before_mbps: float, after_mbps: float, at_s: float
    ) -> "BandwidthTrace":
        """A single permanent rate change at ``at_s`` seconds."""
        for name, value in (("before_mbps", before_mbps), ("after_mbps", after_mbps),
                            ("at_s", at_s)):
            validate_finite(value, name)
        if at_s <= 0:
            raise ValueError(f"at_s must be positive, got {at_s}")
        return cls([0.0, at_s], [before_mbps, after_mbps])

    @classmethod
    def markov(
        cls,
        levels_mbps: Sequence[float],
        p_switch: float,
        dt_s: float = 0.5,
        horizon_s: float = 240.0,
        seed: int = 0,
    ) -> "BandwidthTrace":
        """A discrete-time Markov channel over a set of rate levels.

        Every ``dt_s`` seconds the channel jumps, with probability
        ``p_switch``, to one of the *other* levels chosen uniformly —
        the classic Gilbert-Elliott channel when two levels are given.

        Parameters
        ----------
        levels_mbps:
            The bandwidth states in Mbps (at least two).
        p_switch:
            Per-step probability of leaving the current state, in
            ``[0, 1]``.
        dt_s:
            Step duration in seconds.
        horizon_s:
            Trace length; the final state holds forever after.
        seed:
            Seed for the state sequence (traces are reproducible).
        """
        levels = [float(level) for level in levels_mbps]
        if len(levels) < 2:
            raise ValueError("a Markov trace needs at least two levels")
        for value in levels:
            validate_finite(value, "levels_mbps")
        for name, value in (("dt_s", dt_s), ("horizon_s", horizon_s)):
            validate_finite(value, name)
        if not 0.0 <= p_switch <= 1.0:
            raise ValueError(f"p_switch must be in [0, 1], got {p_switch}")
        if dt_s <= 0:
            raise ValueError(f"dt_s must be positive, got {dt_s}")
        rng = np.random.default_rng(seed)
        n_steps = max(1, int(np.ceil(horizon_s / dt_s)))
        state = 0
        times, rates = [0.0], [levels[0]]
        for step in range(1, n_steps):
            if rng.random() < p_switch:
                others = [i for i in range(len(levels)) if i != state]
                state = others[int(rng.integers(len(others)))]
                times.append(step * dt_s)
                rates.append(levels[state])
        return cls(times, rates)

    @classmethod
    def from_file(cls, path) -> "BandwidthTrace":
        """Load a trace from a ``time_s,mbps`` CSV file.

        Blank lines and lines starting with ``#`` are skipped.  The
        first sample must be at time 0, times must ascend and rates be
        positive; each sample is checked against the one before it as
        it is read, so a bad line raises ``ValueError`` naming its file
        and line number.
        """
        times, rates = [], []
        with open(path) as handle:
            for lineno, line in enumerate(handle, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                try:
                    time_s, mbps = map(float, text.replace(",", " ").split())
                except ValueError:
                    time_s = mbps = math.nan
                if not (math.isfinite(time_s) and math.isfinite(mbps)):
                    problem = "expected 'time_s,mbps' as two finite numbers"
                elif not times and time_s != 0.0:
                    problem = "the first segment must start at 0.0 s"
                elif times and time_s <= times[-1]:
                    problem = "segment start times must be strictly ascending"
                elif mbps <= 0:
                    problem = "all rates must be positive Mbps"
                else:
                    times.append(time_s)
                    rates.append(mbps)
                    continue
                raise ValueError(f"{path}:{lineno}: {problem}, got {line!r}")
        if not times:
            raise ValueError(f"{path}: no samples found")
        return cls(times, rates)

    # -- queries --------------------------------------------------------

    @property
    def n_segments(self) -> int:
        """Number of piecewise-constant segments."""
        return len(self._times)

    @property
    def duration_s(self) -> float:
        """Start time of the last (open-ended) segment."""
        return self._times[-1]

    @property
    def mean_mbps(self) -> float:
        """Time-averaged bandwidth over the materialized span.

        For a single-segment (constant) trace this is just its rate;
        otherwise the open-ended tail is excluded from the average.
        """
        if self.n_segments == 1:
            return self._rates_bps[0] / 1e6
        return self._cum_bits[-1] / self._times[-1] / 1e6

    @property
    def min_mbps(self) -> float:
        """Lowest rate anywhere in the trace."""
        return min(self._rates_bps) / 1e6

    def _segment_at(self, time_s: float) -> int:
        if not time_s >= 0:  # NaN fails too
            raise ValueError(f"time_s must be >= 0, got {time_s}")
        return bisect_right(self._times, time_s) - 1

    def bandwidth_mbps_at(self, time_s: float) -> float:
        """Instantaneous bandwidth in Mbps at ``time_s``."""
        return self._rates_bps[self._segment_at(time_s)] / 1e6

    def cumulative_bits(self, time_s: float) -> float:
        """Total capacity (bits) the link delivered over ``[0, time_s]``.

        The last instant searched is remembered, and a time equal to it
        is answered without a search.  The event kernel's drain to
        ``now`` searches ``now``; its completion pricing and the next
        event's drain both start at ``now``, so an event searches once.
        Equal times give equal answers: ``-0.0`` and ``0.0`` both
        deliver ``0.0`` bits, and NaN equals nothing, so it is always
        searched and rejected.
        """
        last = self._last_cumulative
        last_s, last_bits = last[0]
        if time_s == last_s:
            return last_bits
        index = self._segment_at(time_s)
        bits = float(
            self._cum_bits[index]
            + self._rates_bps[index] * (time_s - self._times[index])
        )
        last[0] = (time_s, bits)
        return bits

    def capacity_bits(self, start_s: float, end_s: float) -> float:
        """Capacity (bits) deliverable over ``[start_s, end_s]``.

        ``start_s`` is read first: in the event kernel it is the
        instant the previous event priced, so it is remembered, and only
        ``end_s`` searches.
        """
        if end_s < start_s:
            raise ValueError(f"end_s {end_s} precedes start_s {start_s}")
        last_s, start_bits = self._last_cumulative[0]
        if start_s != last_s:
            start_bits = self.cumulative_bits(start_s)
        return self.cumulative_bits(end_s) - start_bits

    def finish_time_s(self, start_s: float, payload_bits: float) -> float:
        """Earliest time a payload starting at ``start_s`` fully drains.

        The inverse of :meth:`capacity_bits`: the smallest ``t`` with
        ``capacity_bits(start_s, t) >= payload_bits``.  Computed by
        binary search over the cumulative-capacity list, then linear
        interpolation inside the final segment.
        """
        if not payload_bits >= 0:  # NaN fails too
            raise ValueError(f"payload_bits must be >= 0, got {payload_bits}")
        if payload_bits == 0:
            # Validate start_s even though no bits move.
            self._segment_at(start_s)
            return float(start_s)
        target = self.cumulative_bits(start_s) + payload_bits
        cum_bits = self._cum_bits
        if target >= cum_bits[-1]:
            # Drains inside the open-ended last segment.
            residual = target - cum_bits[-1]
            return float(self._times[-1] + residual / self._rates_bps[-1])
        index = bisect_right(cum_bits, target) - 1
        residual = target - cum_bits[index]
        return float(self._times[index] + residual / self._rates_bps[index])

    def __repr__(self) -> str:
        return (
            f"BandwidthTrace({self.n_segments} segments, "
            f"mean {self.mean_mbps:.1f} Mbps, min {self.min_mbps:.1f} Mbps)"
        )


def parse_trace_spec(spec: str) -> BandwidthTrace:
    """Build a :class:`BandwidthTrace` from a CLI spec string.

    Supported forms (fields are colon-separated):

    * ``const:MBPS`` — constant rate;
    * ``step:HIGH:LOW:PERIOD`` — square wave alternating between
      ``HIGH`` and ``LOW`` Mbps every ``PERIOD`` seconds;
    * ``markov:HIGH:LOW:P_SWITCH[:SEED]`` — two-state Markov channel
      switching with per-half-second probability ``P_SWITCH``;
    * ``file:PATH`` — ``time_s,mbps`` CSV trace.

    Raises
    ------
    ValueError
        For an unknown kind, wrong field count, or non-numeric fields.
    """
    kind, _, rest = str(spec).partition(":")
    kind = kind.strip().lower()
    fields = [field.strip() for field in rest.split(":")] if rest else []

    def numbers(n_min: int, n_max: int) -> list[float]:
        """The spec's fields as floats, arity-checked."""
        if not n_min <= len(fields) <= n_max:
            raise ValueError(
                f"trace spec {spec!r}: {kind!r} takes "
                f"{n_min if n_min == n_max else f'{n_min}-{n_max}'} fields"
            )
        try:
            return [float(field) for field in fields]
        except ValueError:
            raise ValueError(
                f"trace spec {spec!r}: non-numeric field in {fields}"
            ) from None

    if kind == "const":
        (mbps,) = numbers(1, 1)
        return BandwidthTrace.constant(mbps)
    if kind == "step":
        high, low, period = numbers(3, 3)
        return BandwidthTrace.square(high, low, period)
    if kind == "markov":
        values = numbers(3, 4)
        seed = int(values[3]) if len(values) == 4 else 0
        return BandwidthTrace.markov(values[:2], values[2], seed=seed)
    if kind == "file":
        if len(fields) != 1 or not fields[0]:
            raise ValueError(f"trace spec {spec!r}: 'file' takes one path field")
        return BandwidthTrace.from_file(fields[0])
    raise ValueError(
        f"unknown trace spec kind {kind!r}; expected one of {TRACE_SPEC_KINDS}"
    )
