"""Fault injection for the serving stack: drops, delays, resets.

The simulator's loss model (:mod:`repro.streaming.loss`) erases
packets analytically; this module is its live counterpart — a
:class:`ChaosConfig` the server (or the loadgen's spawned server)
applies to real connections: FRAME messages are dropped before they
reach the socket, delayed by a fixed stall, or the connection is reset
mid-stream (after writing a truncated frame, which is what a
connection dying mid-segment actually looks like to the peer).

Chaos is *injected above the protocol layer on purpose*: a dropped
frame is simply never written, a reset aborts the transport, so a
correct client observes gaps and EOFs — never malformed bytes.  That
is the contract the chaos smoke test enforces: under injected faults
the fleet reconnects and degrades, with **zero protocol errors** on
either side.

Randomness is numpy (``default_rng`` over a ``SeedSequence`` keyed on
the config seed and the connection index), matching the determinism
rules the invariant linter enforces on the simulation side: two runs
with the same seed inject the same fault sequence per connection
index, which keeps chaos failures reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..streaming.validation import validate_probability

__all__ = ["ChaosConfig", "ChaosInjector", "parse_chaos_spec"]


@dataclass(frozen=True)
class ChaosConfig:
    """Fault-injection rates for a serving run.

    Each outgoing FRAME message independently draws one action:
    ``reset`` (probability ``reset_prob``), else ``drop``
    (``drop_prob``), else ``delay`` (``delay_prob``, stalling the
    sender ``delay_ms`` before the write), else a normal send.

    Attributes
    ----------
    drop_prob:
        Per-frame probability the frame is silently not sent.
    delay_prob:
        Per-frame probability the send stalls ``delay_ms`` first.
    delay_ms:
        Stall applied to a delayed frame, in milliseconds.
    reset_prob:
        Per-frame probability the connection is reset instead of
        sending: the server writes a truncated prefix of the frame,
        then aborts the transport, so the peer sees a mid-message EOF —
        the realistic shape of a connection dying mid-segment.
        Truncation only ever pairs with a reset: truncating on a healthy
        connection would desynchronize the byte stream and manufacture
        protocol errors.
    seed:
        Master seed; each connection draws from an independent child
        stream keyed on its connection index.
    """

    drop_prob: float = 0.0
    delay_prob: float = 0.0
    delay_ms: float = 25.0
    reset_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        validate_probability(self.drop_prob, "drop_prob")
        validate_probability(self.delay_prob, "delay_prob")
        validate_probability(self.reset_prob, "reset_prob")
        total = self.drop_prob + self.delay_prob + self.reset_prob
        if total > 1.0 + 1e-12:
            raise ValueError(
                f"drop_prob + delay_prob + reset_prob must be <= 1, "
                f"got {total}"
            )
        if not np.isfinite(self.delay_ms) or self.delay_ms < 0:
            raise ValueError(f"delay_ms must be >= 0, got {self.delay_ms}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def is_active(self) -> bool:
        """Whether any fault has a nonzero rate."""
        return self.drop_prob > 0 or self.delay_prob > 0 or self.reset_prob > 0

    def injector(self, connection_index: int) -> "ChaosInjector":
        """The per-connection fault stream for connection ``connection_index``."""
        return ChaosInjector(self, connection_index)


def parse_chaos_spec(spec: str) -> ChaosConfig:
    """Parse a ``--chaos`` flag value into a :class:`ChaosConfig`.

    The grammar is comma-separated ``key=value`` fields::

        drop=0.05,delay=0.1:25,reset=0.02,seed=7

    ``drop``, ``reset``, and ``seed`` take one number; ``delay`` takes
    ``PROB`` or ``PROB:MS`` (milliseconds default 25).  Unknown or
    repeated keys and malformed numbers raise ``ValueError`` with the
    offending field named.
    """
    kwargs: dict = {}
    seen: set[str] = set()
    for field_text in spec.split(","):
        field_text = field_text.strip()
        if not field_text:
            continue
        key, sep, value = field_text.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(
                f"bad chaos field {field_text!r}: expected KEY=VALUE "
                f"(e.g. drop=0.05)"
            )
        if key in seen:
            raise ValueError(f"repeated chaos key {key!r} in {spec!r}")
        seen.add(key)
        try:
            if key == "drop":
                kwargs["drop_prob"] = float(value)
            elif key == "reset":
                kwargs["reset_prob"] = float(value)
            elif key == "delay":
                prob, sep, ms = value.partition(":")
                kwargs["delay_prob"] = float(prob)
                if sep:
                    kwargs["delay_ms"] = float(ms)
            elif key == "seed":
                kwargs["seed"] = int(value)
            else:
                raise ValueError(
                    f"unknown chaos key {key!r}; "
                    f"expected drop, delay, reset, or seed"
                )
        except ValueError as exc:
            if "chaos" in str(exc):
                raise
            raise ValueError(
                f"bad chaos field {field_text!r}: {exc}"
            ) from None
    if not kwargs:
        raise ValueError(
            f"empty chaos spec {spec!r}; expected e.g. "
            f"'drop=0.05,delay=0.1:25,reset=0.02'"
        )
    return ChaosConfig(**kwargs)


class ChaosInjector:
    """One connection's deterministic fault stream.

    Draws exactly one uniform per frame, so the fault sequence a
    connection index sees depends only on the config seed — never on
    timing or on what other connections did.
    """

    __slots__ = ("config", "rng", "drops", "delays", "resets")

    def __init__(self, config: ChaosConfig, connection_index: int):
        if connection_index < 0:
            raise ValueError(
                f"connection_index must be >= 0, got {connection_index}"
            )
        self.config = config
        self.rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, connection_index])
        )
        self.drops = 0
        self.delays = 0
        self.resets = 0

    def frame_action(self) -> str:
        """Draw this frame's fate: ``"reset"``, ``"drop"``, ``"delay"`` or
        ``"send"``, checked in that order, so a configured reset rate is
        not shadowed by a high drop rate."""
        config = self.config
        draw = float(self.rng.random())
        if draw < config.reset_prob:
            self.resets += 1
            return "reset"
        draw -= config.reset_prob
        if draw < config.drop_prob:
            self.drops += 1
            return "drop"
        draw -= config.drop_prob
        if draw < config.delay_prob:
            self.delays += 1
            return "delay"
        return "send"

    @property
    def delay_s(self) -> float:
        """The stall a delayed frame pays, in seconds."""
        return self.config.delay_ms * 1e-3
