"""Bandwidth-trace lookups, held equal to the NumPy searches they replaced.

:class:`~repro.streaming.traces.BandwidthTrace` bisects lists of Python
floats; ``trace_reference`` keeps the ``np.searchsorted`` lookups over
float64 arrays it used to run.  Every answer must be equal and have the
same ``repr``: reports and perfbench's digests print these times.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from trace_reference import ReferenceTrace

from repro.streaming.traces import BandwidthTrace

RATES_MBPS = st.floats(min_value=0.5, max_value=2000.0)


def assert_same(got, want) -> None:
    """Equal and printed alike (a NumPy scalar prints differently)."""
    assert got == want
    assert repr(got) == repr(want)


@st.composite
def trace_pairs(draw):
    """A step, square or Markov trace and its reference twin, same inputs."""
    kind = draw(st.sampled_from(("step_down", "square", "markov")))
    if kind == "step_down":
        args = (draw(RATES_MBPS), draw(RATES_MBPS),
                draw(st.floats(min_value=1e-3, max_value=800.0)))
    elif kind == "square":
        args = (draw(RATES_MBPS), draw(RATES_MBPS),
                draw(st.floats(min_value=0.05, max_value=50.0)),
                draw(st.sampled_from((60.0, 240.0, 800.0))))
    else:
        args = ([draw(RATES_MBPS) for _ in range(draw(st.integers(2, 4)))],
                draw(st.floats(min_value=0.0, max_value=1.0)),
                draw(st.floats(min_value=0.1, max_value=5.0)),
                draw(st.sampled_from((60.0, 240.0, 800.0))),
                draw(st.integers(0, 2**16)))
    return getattr(BandwidthTrace, kind)(*args), getattr(ReferenceTrace, kind)(*args)


def times(trace: BandwidthTrace):
    """Segment starts, times anywhere in the trace or past it, and late times."""
    return st.one_of(
        st.sampled_from(trace.times_s),
        st.floats(min_value=0.0, max_value=trace.duration_s * 1.25 + 1.0),
        st.floats(min_value=500.0, max_value=1e5),
    )


def payloads(trace: BandwidthTrace, start_s: float):
    """Zero, any size, or exactly the bits up to a later segment boundary."""
    before = trace.cumulative_bits(start_s)
    boundaries = [bits - before for bits in trace._cum_bits if bits > before]
    options = [
        st.sampled_from((0, 0.0)),
        st.integers(min_value=1, max_value=10**9),
        st.floats(min_value=0.0, max_value=1e10),
    ]
    if boundaries:
        options.append(st.sampled_from(boundaries))
    return st.one_of(options)


class TestLookupsMatchOracle:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_lookups_match_the_numpy_searches(self, data):
        trace, ref = data.draw(trace_pairs())
        start_s = data.draw(times(trace))
        end_s = start_s + data.draw(st.floats(min_value=0.0, max_value=600.0))
        payload = data.draw(payloads(trace, start_s))
        assert_same(trace.bandwidth_mbps_at(start_s), ref.bandwidth_mbps_at(start_s))
        assert_same(trace.cumulative_bits(start_s), ref.cumulative_bits(start_s))
        assert_same(trace.capacity_bits(start_s, end_s), ref.capacity_bits(start_s, end_s))
        assert_same(
            trace.finish_time_s(start_s, payload), ref.finish_time_s(start_s, payload)
        )

    @pytest.mark.parametrize(
        "trace",
        (
            BandwidthTrace.step_down(400.0, 50.0, 2.0),
            BandwidthTrace.square(1400.0, 700.0, 5.0, horizon_s=600.0),
            BandwidthTrace.markov([900.0, 120.0, 35.5], p_switch=0.4, dt_s=1.0, seed=5),
        ),
        ids=("step", "square", "markov"),
    )
    def test_every_boundary_start_and_target(self, trace):
        """From each segment start, drain exactly to each later boundary.

        From 0 s the target lands on the boundary's cumulative bits
        exactly; from later starts it lands within rounding of it.
        Both sides of each boundary, and 500 s into the open last
        segment, are probed too.
        """
        ref = ReferenceTrace.of(trace)
        starts = trace._times
        bits = trace._cum_bits
        for i, start_s in enumerate(starts):
            for time_s in (math.nextafter(start_s, -1.0), start_s):
                if time_s >= 0.0:
                    assert_same(trace.bandwidth_mbps_at(time_s), ref.bandwidth_mbps_at(time_s))
                    assert_same(trace.cumulative_bits(time_s), ref.cumulative_bits(time_s))
            for j in range(i, len(bits)):
                payload = bits[j] - bits[i]
                assert_same(
                    trace.finish_time_s(start_s, payload), ref.finish_time_s(start_s, payload)
                )
        late = trace.duration_s + 500.0
        assert_same(trace.cumulative_bits(late), ref.cumulative_bits(late))
        assert_same(trace.finish_time_s(late, 12_000), ref.finish_time_s(late, 12_000))
        assert trace.finish_time_s(0.0, bits[-1]) == trace.duration_s
