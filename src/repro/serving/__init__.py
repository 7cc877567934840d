"""A real async streaming server with the engine as its digital twin.

The discrete-event engine (:mod:`repro.streaming.engine`) prices
adaptive streaming analytically; this package performs the same loop
over real sockets and measures it:

* :mod:`~repro.serving.protocol` — the pure wire protocol: framed
  messages, the HELLO/WELCOME handshake, an incremental decoder safe
  against arbitrary TCP chunking;
* :mod:`~repro.serving.frames` — :class:`FrameBank`, pre-encoded
  ladder payloads (real BD bitstreams where available) that double as
  an engine :class:`~repro.streaming.engine.PrecomputedSource`;
* :mod:`~repro.serving.server` — the asyncio server: paced frame
  loops, per-client send-queue backpressure, deadline drops, and live
  rung selection through the *same*
  :class:`~repro.streaming.engine.AdaptationState` the simulators use;
* :mod:`~repro.serving.client` — the load generator: N concurrent
  connections with trace-shaped read throttling, per-frame ACKs, and
  optional backoff-paced reconnection after mid-stream losses;
* :mod:`~repro.serving.chaos` — fault injection: a
  :class:`ChaosConfig` that drops, delays, or resets outgoing frames
  so the reconnect/resync path is exercised against real sockets.

``repro serve`` and ``repro loadgen`` expose both ends on the command
line; reports serialize through :mod:`repro.streaming.reports`, so
simulated and served metrics diff with the same tooling.
"""
