"""Remote-rendering streaming substrate (paper Sec. 2.2, Fig. 3).

Layers, bottom up: :mod:`~repro.streaming.traces` models time-varying
link capacity, :mod:`~repro.streaming.link` the wireless hop,
:mod:`~repro.streaming.engine` the discrete-event kernel every
simulator dispatches through (shared with
:mod:`~repro.streaming.validation` for parameter guards),
:mod:`~repro.streaming.session` a single client's stream,
:mod:`~repro.streaming.adaptive` per-frame rate control, and
:mod:`~repro.streaming.fleet` a fleet of clients contending for one
link.  A solo session is a fleet of one: all three public simulators
are thin wrappers over the same :class:`StreamingEngine`.

For fleets far beyond what per-frame events can carry,
:mod:`~repro.streaming.cohort` advances groups of statistically
identical clients in O(cohorts) work — proven against the exact engine
by tracer clients — with tail latencies rolled up through the
:mod:`~repro.streaming.sketch` quantile sketch.
"""
