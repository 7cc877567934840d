"""Tests for summary statistics helpers."""

import numpy as np
import pytest

from repro.metrics.stats import summarize


class TestSummarize:
    def test_known_values(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.mean == pytest.approx(2.0)
        assert summary.std == pytest.approx(np.sqrt(2 / 3))
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert summary.count == 3

    def test_flattens_arrays(self):
        summary = summarize(np.arange(6).reshape(2, 3))
        assert summary.count == 6

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            summarize([])

    def test_string_rendering(self):
        text = str(summarize([1.0, 1.0]))
        assert "mean=1.000" in text and "n=2" in text

    def test_summary_frozen(self):
        summary = summarize([1.0])
        with pytest.raises(AttributeError):
            summary.mean = 5.0
