"""Tests for synthetic gaze traces."""

import numpy as np
import pytest

from repro.scenes.gaze import saccade_trace


@pytest.fixture(scope="module")
def trace():
    return saccade_trace(2.0, rng=np.random.default_rng(3))


class TestSaccadeTrace:
    def test_samples_cover_duration(self, trace):
        assert trace[0].time_s == 0.0
        assert trace[-1].time_s <= 2.0
        assert len(trace) > 100

    def test_times_monotone(self, trace):
        times = [s.time_s for s in trace]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_positions_in_unit_square(self, trace):
        assert all(0.0 <= s.x <= 1.0 and 0.0 <= s.y <= 1.0 for s in trace)

    def test_contains_fixations_and_saccades(self, trace):
        """Speeds must be bimodal: slow tremor in fixations, ballistic
        saccades in between."""
        speeds = np.array([
            np.hypot(b.x - a.x, b.y - a.y) / (b.time_s - a.time_s)
            for a, b in zip(trace, trace[1:])
        ])
        assert (speeds < 1.0).mean() > 0.5    # plenty of fixation samples
        assert speeds.max() > 5.0             # and genuine saccades

    def test_deterministic_given_rng(self):
        a = saccade_trace(1.0, rng=np.random.default_rng(9))
        b = saccade_trace(1.0, rng=np.random.default_rng(9))
        assert [(s.x, s.y) for s in a] == [(s.x, s.y) for s in b]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="duration_s"):
            saccade_trace(0.0)
        with pytest.raises(ValueError, match="sample_rate_hz"):
            saccade_trace(1.0, sample_rate_hz=0.0)
