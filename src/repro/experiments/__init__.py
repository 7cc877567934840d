"""Experiment runners: one module per paper table/figure.

Each module exposes ``run(config) -> result`` returning a dataclass
with a ``table()`` rendering; the ``benchmarks/`` suite wraps these in
pytest-benchmark targets, and the modules are runnable directly
(``python -m repro.experiments.fig10_bandwidth``).
"""
