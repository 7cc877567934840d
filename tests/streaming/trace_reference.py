"""Reference trace lookups: the NumPy searches ``BandwidthTrace`` used to run.

:class:`repro.streaming.traces.BandwidthTrace` keeps its boundary times,
rates and cumulative bits as lists of Python floats and bisects them.
This module keeps the code they replaced — float64 arrays built by the
old constructor and scalar ``np.searchsorted`` lookups — as the oracle
the lists must match exactly, value and type.

Only the constructor and the lookups are the reference; every other
method is inherited and has not been checked against arrays.
"""

from __future__ import annotations

import numpy as np

from repro.streaming.traces import BandwidthTrace


class ReferenceTrace(BandwidthTrace):
    """A :class:`BandwidthTrace` whose lookups search NumPy arrays.

    Built from the same ``times_s`` and ``rates_mbps`` (the inherited
    ``square``, ``markov`` and ``step_down`` constructors build one too),
    after the new constructor has validated them.
    """

    def __init__(self, times_s, rates_mbps):
        super().__init__(times_s, rates_mbps)
        times = np.asarray(times_s, dtype=np.float64)
        rates = np.asarray(rates_mbps, dtype=np.float64)
        self._times = times
        self._rates_bps = rates * 1e6
        # Capacity (bits) delivered by each segment boundary; the open
        # last segment contributes beyond _cum_bits[-1] at _rates_bps[-1].
        self._cum_bits = np.concatenate(
            ([0.0], np.cumsum(self._rates_bps[:-1] * np.diff(times)))
        )

    @classmethod
    def of(cls, trace: BandwidthTrace) -> "ReferenceTrace":
        """The reference twin of ``trace``, rebuilt from its segments.

        Asserts that the Mbps round trip rebuilt the same segments, so
        the twin cannot differ from ``trace`` in anything but its code.
        """
        twin = cls(trace.times_s, trace.rates_mbps)
        assert twin._times.tolist() == trace._times
        assert twin._rates_bps.tolist() == trace._rates_bps
        return twin

    def _segment_at(self, time_s: float) -> int:
        if time_s < 0:
            raise ValueError(f"time_s must be >= 0, got {time_s}")
        return int(np.searchsorted(self._times, time_s, side="right") - 1)

    def bandwidth_mbps_at(self, time_s: float) -> float:
        """Instantaneous bandwidth in Mbps at ``time_s``."""
        return float(self._rates_bps[self._segment_at(time_s)] / 1e6)

    def cumulative_bits(self, time_s: float) -> float:
        """Total capacity (bits) the link delivered over ``[0, time_s]``."""
        index = self._segment_at(time_s)
        return float(
            self._cum_bits[index]
            + self._rates_bps[index] * (time_s - self._times[index])
        )

    def finish_time_s(self, start_s: float, payload_bits: float) -> float:
        """Earliest time a payload starting at ``start_s`` fully drains."""
        if payload_bits < 0:
            raise ValueError(f"payload_bits must be >= 0, got {payload_bits}")
        if payload_bits == 0:
            # Validate start_s even though no bits move.
            self._segment_at(start_s)
            return float(start_s)
        target = self.cumulative_bits(start_s) + payload_bits
        if target >= self._cum_bits[-1]:
            # Drains inside the open-ended last segment.
            residual = target - self._cum_bits[-1]
            return float(self._times[-1] + residual / self._rates_bps[-1])
        index = int(np.searchsorted(self._cum_bits, target, side="right") - 1)
        residual = target - self._cum_bits[index]
        return float(self._times[index] + residual / self._rates_bps[index])
