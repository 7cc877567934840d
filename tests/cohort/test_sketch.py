"""QuantileSketch unit tests: exactness, accuracy, mergeability, codec.

The sketch carries the entire fleet's latency distribution in at most
``max_centroids`` weighted centroids.  Its contract has two regimes:
below the budget it must reproduce ``numpy.percentile`` bit for bit
(so small fleets keep their historic report values); above it, p50-p99
must stay within 1% relative error, with the count actually capped.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.sketch import QuantileSketch

PERCENTILES = (50.0, 90.0, 95.0, 99.0)


def lognormal_samples(n: int = 50_000, seed: int = 42) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.lognormal(mean=-4.0, sigma=0.6, size=n)


# -- exactness below the budget ----------------------------------------


def test_uncompressed_unit_weights_match_numpy_exactly():
    values = lognormal_samples(400)
    sketch = QuantileSketch()
    sketch.add(values)
    for p in (0.0, 12.5, *PERCENTILES, 100.0):
        assert sketch.quantile(p / 100.0) == float(np.percentile(values, p))


def test_uncompressed_weighted_matches_expanded_population_exactly():
    """A weight-w centroid is w identical samples; below the budget the
    sketch must answer exactly what numpy says about the expansion."""
    rng = np.random.default_rng(7)
    values = rng.lognormal(mean=-4.0, sigma=0.6, size=60)
    weights = rng.integers(low=1, high=40, size=60)
    sketch = QuantileSketch()
    sketch.add_weighted(values, weights.astype(float))
    expanded = np.repeat(values, weights)
    for p in (0.0, 12.5, *PERCENTILES, 100.0):
        assert sketch.quantile(p / 100.0) == float(np.percentile(expanded, p))


def test_two_samples_at_the_median_match_numpy():
    """The smallest case a one-sided ``a + (b - a) * t`` lerp gets wrong:
    numpy anchors on the upper sample once ``t >= 0.5``."""
    sketch = QuantileSketch()
    sketch.add([0.787, 0.192])
    assert sketch.quantile(0.5) == float(np.percentile([0.787, 0.192], 50.0))
    assert sketch.quantile(0.5) == 0.48950000000000005


@settings(max_examples=500, deadline=None)
@given(
    samples=st.lists(
        # Three-decimal latencies, like the counterexample above: they
        # rarely lerp exactly, so a one-sided lerp shows up quickly.
        st.tuples(st.integers(0, 1000).map(lambda k: k / 1000), st.integers(1, 8)),
        min_size=1,
        max_size=40,
    ),
    unit_weights=st.booleans(),
    percentile=st.floats(0.0, 100.0),
)
def test_uncompressed_sketch_is_numpy_percentile(samples, unit_weights, percentile):
    """Below the budget the sketch is numpy.percentile over the expanded
    population, bit for bit, for unit and integer weights alike."""
    values = np.asarray([value for value, _ in samples])
    sketch = QuantileSketch(max_centroids=max(8, len(samples)))
    if unit_weights:
        sketch.add(values)
        population = values
    else:
        weights = np.asarray([weight for _, weight in samples])
        sketch.add_weighted(values, weights.astype(float))
        population = np.repeat(values, weights)
    expected = float(np.percentile(population, percentile))
    assert sketch.quantile(percentile / 100.0) == expected


def test_singleton_and_mean():
    sketch = QuantileSketch()
    sketch.add(0.0125)
    assert sketch.quantile(0.5) == 0.0125
    assert sketch.mean() == 0.0125
    sketch.add(0.0375, weight=3.0)
    assert sketch.mean() == pytest.approx((0.0125 + 3 * 0.0375) / 4.0)


# -- accuracy above the budget -----------------------------------------


def test_compressed_accuracy_on_lognormal_within_one_percent():
    values = lognormal_samples()
    sketch = QuantileSketch()
    sketch.add(values)
    assert sketch.n_centroids <= sketch.max_centroids
    for p in PERCENTILES:
        exact = float(np.percentile(values, p))
        assert abs(sketch.quantile(p / 100.0) - exact) <= 0.01 * exact
    assert sketch.mean() == pytest.approx(float(np.mean(values)))


def test_centroid_budget_is_a_hard_cap():
    """The k2 bound alone leaves tail singletons over budget; the
    compressor must relax until the cap genuinely holds."""
    sketch = QuantileSketch(max_centroids=32)
    sketch.add(lognormal_samples(10_000, seed=3))
    assert sketch.n_centroids <= 32
    assert sketch.total_weight == 10_000.0


def test_extremes_are_pinned_to_true_min_max():
    values = lognormal_samples(20_000, seed=11)
    sketch = QuantileSketch(max_centroids=64)
    sketch.add(values)
    assert sketch.quantile(0.0) == float(np.min(values))
    assert sketch.quantile(1.0) == float(np.max(values))


# -- mergeability -------------------------------------------------------


def test_merge_equals_single_stream_below_budget():
    """Sharded ingestion folded back in order must equal one stream —
    the property that keeps sharded fleet reports byte-identical."""
    chunks = [lognormal_samples(50, seed=s) for s in range(4)]
    flat = QuantileSketch()
    for chunk in chunks:
        flat.add(chunk)

    shards = []
    for chunk in chunks:
        shard = QuantileSketch()
        shard.add(chunk)
        shards.append(shard)
    merged = QuantileSketch()
    for shard in shards:
        merged.merge(shard)

    hierarchical = QuantileSketch()
    left, right = QuantileSketch(), QuantileSketch()
    left.merge(shards[0])
    left.merge(shards[1])
    right.merge(shards[2])
    right.merge(shards[3])
    hierarchical.merge(left)
    hierarchical.merge(right)

    assert merged == flat
    # Two-level merging reassociates the float mean accumulator, so
    # only the centroid state (hence every quantile) is bit-equal.
    for p in PERCENTILES:
        assert hierarchical.quantile(p / 100.0) == flat.quantile(p / 100.0)
    assert hierarchical.mean() == pytest.approx(flat.mean(), rel=1e-12)


def test_merge_is_deterministic_when_compressed():
    shards = []
    for s in range(6):
        shard = QuantileSketch()
        shard.add(lognormal_samples(5_000, seed=s))
        shards.append(shard)

    def fold():
        out = QuantileSketch()
        for shard in shards:
            out.merge(shard)
        return out

    first, second = fold(), fold()
    assert first == second
    assert first.n_centroids <= first.max_centroids


# -- serialization ------------------------------------------------------


@pytest.mark.parametrize("n", [5, 5_000])
def test_dict_round_trip(n):
    sketch = QuantileSketch(max_centroids=128)
    sketch.add(lognormal_samples(n, seed=1))
    rebuilt = QuantileSketch.from_dict(sketch.to_dict())
    assert rebuilt == sketch
    for p in PERCENTILES:
        assert rebuilt.quantile(p / 100.0) == sketch.quantile(p / 100.0)
    assert rebuilt.mean() == sketch.mean()


# -- validation ---------------------------------------------------------


def test_rejects_bad_inputs():
    sketch = QuantileSketch()
    with pytest.raises(ValueError, match="weight"):
        sketch.add(1.0, weight=0.0)
    with pytest.raises(ValueError, match="finite"):
        sketch.add([1.0, float("nan")])
    with pytest.raises(ValueError, match="weights"):
        sketch.add_weighted([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="max_centroids"):
        QuantileSketch(max_centroids=4)
    with pytest.raises(ValueError, match="empty"):
        sketch.quantile(0.5)
    with pytest.raises(ValueError, match="empty"):
        sketch.mean()
    sketch.add(1.0)
    with pytest.raises(ValueError, match="quantile"):
        sketch.quantile(1.5)
