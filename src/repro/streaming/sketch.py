"""Streaming quantile sketch for fleet-scale latency roll-ups.

A million-client cohort fleet stands for millions of per-frame
latencies, and :class:`~repro.streaming.cohort.CohortFleetReport`
cannot materialize every one of them just to answer ``p95``.  This
module provides the constant-memory alternative: a deterministic,
mergeable t-digest-style :class:`QuantileSketch` that keeps at most
``max_centroids`` weighted centroids and answers quantile queries by
interpolating between them.

Design constraints, in order:

* **Determinism.**  Two runs that feed the same values in the same
  order produce byte-identical sketches (compression is a pure
  function of the sorted centroid list — no randomness, no wall
  clocks), so sketch-backed reports keep the repository's two-runs-
  serialize-identically hyperproperty.
* **Exactness at small scale.**  Compression only starts once the
  centroid count exceeds ``max_centroids``; below that every sample is
  its own (possibly weighted) centroid and quantile queries reproduce
  ``numpy.percentile`` over the expanded population, bit for bit.
* **Mergeability.**  Pool tasks build per-cohort sketches
  independently; :meth:`merge` folds them together.  Merging in a fixed
  (cohort) order yields byte-identical results for any pool width.

Accuracy: the compression bound keeps each centroid's quantile span
within ``4 q (1 - q) / max_centroids``, the t-digest ``k2`` scale —
tails stay sharp (spans shrink toward q = 0 and q = 1) and p50–p99
queries land well within 1% relative error at the default budget
(property-tested in ``tests/cohort/test_sketch.py``).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

__all__ = ["QuantileSketch"]


class QuantileSketch:
    """Mergeable t-digest-style sketch over a stream of weighted values.

    Parameters
    ----------
    max_centroids:
        Compression budget.  The sketch stores every sample exactly
        until the centroid count exceeds this, then merges adjacent
        centroids under the t-digest ``k2`` size bound.
    """

    def __init__(self, max_centroids: int = 512):
        if max_centroids < 8:
            raise ValueError(f"max_centroids must be >= 8, got {max_centroids}")
        self.max_centroids = int(max_centroids)
        self._means = np.empty(0, dtype=np.float64)
        self._weights = np.empty(0, dtype=np.float64)
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        self._compressed = False
        self._total_weight = 0.0
        self._weighted_sum = 0.0
        self._min_value = float("inf")
        self._max_value = float("-inf")

    # -- ingest ---------------------------------------------------------

    def add(self, values: float | Sequence[float] | np.ndarray, weight: float = 1.0) -> None:
        """Fold values into the sketch, each carrying ``weight``.

        A weight above 1 records that many statistically identical
        observations at once — how a jitter-free cohort accounts for
        all of its members in O(frames) work.
        """
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        values = np.atleast_1d(np.asarray(values, dtype=np.float64))
        if values.size == 0:
            return
        if not np.all(np.isfinite(values)):
            raise ValueError("sketch values must be finite")
        self.add_weighted(values, np.full(values.size, float(weight)))

    def add_weighted(
        self, values: Sequence[float] | np.ndarray, weights: Sequence[float] | np.ndarray
    ) -> None:
        """Fold values with per-value weights into the sketch."""
        values = np.atleast_1d(np.asarray(values, dtype=np.float64)).ravel()
        weights = np.atleast_1d(np.asarray(weights, dtype=np.float64)).ravel()
        if values.size == 0:
            return
        if values.shape != weights.shape:
            raise ValueError(
                f"{values.size} values but {weights.size} weights"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("sketch values must be finite")
        if np.any(weights <= 0):
            raise ValueError("sketch weights must be positive")
        self._pending.append((values, weights))
        self._total_weight += float(np.sum(weights))
        self._weighted_sum += float(np.sum(values * weights))
        self._min_value = min(self._min_value, float(np.min(values)))
        self._max_value = max(self._max_value, float(np.max(values)))

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch's centroids into this one.

        Merging per-cohort sketches in a fixed order is deterministic
        whichever process built each one, which is what keeps pooled
        fleet reports byte-identical to single-process runs.
        """
        other._flush()
        if not other._means.size:
            return
        # Carry the donor's tracked aggregates verbatim rather than
        # recomputing them from its (sorted, possibly compressed)
        # centroids: summation order stays that of the original stream,
        # so merging cohorts reproduces the single-stream sums bit for
        # bit, and min/max survive compression.
        self._pending.append((other._means.copy(), other._weights.copy()))
        self._total_weight += other._total_weight
        self._weighted_sum += other._weighted_sum
        self._min_value = min(self._min_value, other._min_value)
        self._max_value = max(self._max_value, other._max_value)
        # A compressed donor's centroids are sample *means*, not exact
        # samples, so the merged sketch loses exactness too.
        self._compressed = self._compressed or other._compressed

    # -- queries --------------------------------------------------------

    @property
    def total_weight(self) -> float:
        """Summed weight of every observation folded in so far."""
        return self._total_weight

    @property
    def n_centroids(self) -> int:
        """Centroids currently retained (post-compression)."""
        self._flush()
        return int(self._means.size)

    def mean(self) -> float:
        """Exact weighted mean of every observation (never sketched)."""
        if self._total_weight <= 0:
            raise ValueError("cannot query an empty sketch")
        return self._weighted_sum / self._total_weight

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in ``[0, 1]``.

        Exact (``numpy.percentile`` semantics over the weighted
        population) while the sketch is uncompressed; once compression
        has run it interpolates between centroid means at their
        cumulative-weight midpoints, pinning the extremes to the
        tracked true min/max.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        self._flush()
        if self._means.size == 0:
            raise ValueError("cannot query an empty sketch")
        if self._means.size == 1:
            return float(self._means[0])
        if not self._compressed:
            # Every centroid is still `weight` identical copies of an
            # exact sample: emulate numpy.percentile over that expanded
            # population without materializing it, so small fleets keep
            # their historic exact percentiles bit for bit.
            cum = np.cumsum(self._weights)
            position = q * (self._total_weight - 1.0)
            low = np.floor(position)
            last = self._means.size - 1
            value_low = float(
                self._means[min(int(np.searchsorted(cum, low, side="right")), last)]
            )
            value_high = float(
                self._means[
                    min(int(np.searchsorted(cum, np.ceil(position), side="right")), last)
                ]
            )
            # numpy's two-sided lerp: anchor on the nearer sample.
            fraction = float(position - low)
            if fraction >= 0.5:
                return value_high - (value_high - value_low) * (1.0 - fraction)
            return value_low + (value_high - value_low) * fraction
        cum = np.cumsum(self._weights)
        centers = cum - self._weights / 2.0
        target = q * self._total_weight
        if target <= centers[0]:
            span = centers[0]
            frac = target / span if span > 0 else 1.0
            return float(self._min_value + (self._means[0] - self._min_value) * frac)
        if target >= centers[-1]:
            span = self._total_weight - centers[-1]
            frac = (target - centers[-1]) / span if span > 0 else 0.0
            return float(self._means[-1] + (self._max_value - self._means[-1]) * frac)
        index = int(np.searchsorted(centers, target, side="right")) - 1
        step = centers[index + 1] - centers[index]
        frac = (target - centers[index]) / step if step > 0 else 0.0
        return float(
            self._means[index] + (self._means[index + 1] - self._means[index]) * frac
        )

    # -- compression ----------------------------------------------------

    def _flush(self) -> None:
        """Fold pending batches into the sorted centroid arrays."""
        if not self._pending:
            return
        means = np.concatenate([self._means] + [v for v, _ in self._pending])
        weights = np.concatenate([self._weights] + [w for _, w in self._pending])
        self._pending = []
        order = np.argsort(means, kind="stable")
        self._means = means[order]
        self._weights = weights[order]
        if self._means.size > self.max_centroids:
            self._compress()

    def _compress(self) -> None:
        """Merge adjacent centroids until the budget holds.

        One k2 pass alone cannot guarantee the cap — the bound shrinks
        toward the tails, so extreme samples survive as singletons — so
        the bound is relaxed geometrically until the count fits.  Still
        a pure function of the sorted centroid list, hence
        deterministic.
        """
        self._compressed = True
        scale = 1.0
        while self._means.size > self.max_centroids:
            self._compress_pass(scale)
            scale *= 2.0

    def _compress_pass(self, scale: float) -> None:
        """Greedy left-to-right adjacent merge under ``scale`` x k2."""
        means = self._means
        weights = self._weights
        total = self._total_weight
        out_means: list[float] = []
        out_weights: list[float] = []
        cur_mean = float(means[0])
        cur_weight = float(weights[0])
        cum = 0.0  # weight fully emitted so far
        for mean, weight in zip(means[1:], weights[1:]):
            candidate = cur_weight + float(weight)
            q_mid = (cum + candidate / 2.0) / total
            limit = scale * 4.0 * total * q_mid * (1.0 - q_mid) / self.max_centroids
            if candidate <= limit:
                cur_mean = (cur_mean * cur_weight + float(mean) * float(weight)) / candidate
                cur_weight = candidate
            else:
                out_means.append(cur_mean)
                out_weights.append(cur_weight)
                cum += cur_weight
                cur_mean = float(mean)
                cur_weight = float(weight)
        out_means.append(cur_mean)
        out_weights.append(cur_weight)
        self._means = np.asarray(out_means, dtype=np.float64)
        self._weights = np.asarray(out_weights, dtype=np.float64)

    # -- serialization and equality -------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping (flushed centroid form)."""
        self._flush()
        return {
            "max_centroids": self.max_centroids,
            "means": [float(m) for m in self._means],
            "weights": [float(w) for w in self._weights],
            "compressed": self._compressed,
            "total_weight": self._total_weight,
            "weighted_sum": self._weighted_sum,
            "min": None if not np.isfinite(self._min_value) else self._min_value,
            "max": None if not np.isfinite(self._max_value) else self._max_value,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "QuantileSketch":
        """Rebuild a sketch serialized by :meth:`to_dict`."""
        sketch = cls(max_centroids=int(data["max_centroids"]))
        sketch._means = np.asarray(data["means"], dtype=np.float64)
        sketch._weights = np.asarray(data["weights"], dtype=np.float64)
        sketch._compressed = bool(data["compressed"])
        sketch._total_weight = float(data["total_weight"])
        sketch._weighted_sum = float(data["weighted_sum"])
        sketch._min_value = float("inf") if data["min"] is None else float(data["min"])
        sketch._max_value = float("-inf") if data["max"] is None else float(data["max"])
        return sketch

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        self._flush()
        other._flush()
        return (
            self.max_centroids == other.max_centroids
            and np.array_equal(self._means, other._means)
            and np.array_equal(self._weights, other._weights)
            and self._compressed == other._compressed
            and self._total_weight == other._total_weight
            and self._weighted_sum == other._weighted_sum
            and self._min_value == other._min_value
            and self._max_value == other._max_value
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        self._flush()
        return (
            f"QuantileSketch(n_centroids={self._means.size}, "
            f"total_weight={self._total_weight:g})"
        )
