"""Shared parameter validation for the streaming simulators.

Every public simulator — :func:`~repro.streaming.session.simulate_session`,
:func:`~repro.streaming.adaptive.simulate_adaptive_session`, and
:func:`~repro.streaming.fleet.simulate_fleet` — used to carry its own
copy of the same guard clauses, with error messages drifting apart one
review at a time.  They now all validate here, as does the
:class:`~repro.streaming.engine.StreamingEngine` they dispatch through,
so a bad ``n_frames`` raises the same message whichever door it comes
in by.
"""

from __future__ import annotations

import math

__all__ = [
    "validate_finite",
    "validate_stream_timing",
    "validate_stream_window",
    "validate_probability",
    "validate_burst_length",
    "validate_backoff",
]


def validate_finite(value: float, name: str, owner: str | None = None) -> None:
    """Reject a NaN or infinite parameter, naming it.

    A NaN compares false both ways, so it slips past every ``<= 0``
    guard and then reorders the event kernel's completions; an infinity
    prices a payload at zero or infinite time.  Links, traces and
    streams therefore reject both by name before any arithmetic sees
    them.

    Parameters
    ----------
    value:
        The candidate value.
    name:
        Parameter name used in the error message.
    owner:
        Optional stream/client name used to prefix the message.

    Raises
    ------
    ValueError
        If ``value`` is NaN or infinite.
    """
    if not math.isfinite(value):
        prefix = f"{owner!r}: " if owner else ""
        raise ValueError(f"{prefix}{name} must be finite, got {value!r}")


def validate_stream_timing(
    n_frames: int | None = None,
    target_fps: float | None = None,
    encode_throughput_mpixels_s: float | None = None,
) -> None:
    """Reject non-positive or non-finite stream-timing parameters.

    Pass only the parameters the caller actually has; ``None`` skips a
    check.  Error messages for non-positive values are the historical
    ones, so callers (and tests) matching on them keep working.

    Parameters
    ----------
    n_frames:
        Number of frames to stream; must be positive.
    target_fps:
        Display refresh rate in frames per second; must be positive.
    encode_throughput_mpixels_s:
        Server-side encoder rate; must be positive.

    Raises
    ------
    ValueError
        On the first non-positive or non-finite value, with the
        parameter named.
    """
    if n_frames is not None and n_frames <= 0:
        raise ValueError(f"n_frames must be positive, got {n_frames}")
    if target_fps is not None and target_fps <= 0:
        raise ValueError(f"target_fps must be positive, got {target_fps}")
    if encode_throughput_mpixels_s is not None and encode_throughput_mpixels_s <= 0:
        raise ValueError("encode_throughput_mpixels_s must be positive")
    for name, value in (
        ("n_frames", n_frames),
        ("target_fps", target_fps),
        ("encode_throughput_mpixels_s", encode_throughput_mpixels_s),
    ):
        if value is not None:
            validate_finite(value, name)


def validate_stream_window(
    start_s: float = 0.0, stop_s: float | None = None, name: str | None = None
) -> None:
    """Reject an impossible join/leave window.

    A stream joins the session at ``start_s`` and (optionally) departs
    at ``stop_s``: frames whose ready time falls at or after ``stop_s``
    are never streamed.  Both the fleet's
    :class:`~repro.streaming.fleet.ClientConfig` and the engine's
    :class:`~repro.streaming.engine.StreamSpec` validate here, so a bad
    window raises the same message whichever door it comes in by.

    Parameters
    ----------
    start_s:
        Session time the stream joins; must be finite and >= 0.
    stop_s:
        Session time the stream departs, or ``None`` for no departure.
        Must be finite and leave room for at least the first frame
        (``stop_s > start_s``).
    name:
        Optional stream/client name used to prefix error messages.

    Raises
    ------
    ValueError
        On a negative or non-finite ``start_s``, or a ``stop_s`` that is
        non-finite or at or before ``start_s``.
    """
    prefix = f"{name!r}: " if name else ""
    if start_s < 0:
        raise ValueError(f"{prefix}start_s must be >= 0, got {start_s}")
    validate_finite(start_s, "start_s", name)
    if stop_s is not None and stop_s <= start_s:
        raise ValueError(
            f"{prefix}stop_s must be > start_s ({start_s}), got {stop_s}"
        )
    if stop_s is not None:
        validate_finite(stop_s, "stop_s", name)


def validate_probability(value: float, name: str) -> float:
    """Reject a probability outside ``[0, 1]`` (or NaN/inf).

    Loss traces and chaos configs are parameterized almost entirely by
    probabilities, and a NaN smuggled through an arithmetic pipeline
    turns every comparison silently false — so non-finite values are
    rejected by name rather than allowed to propagate.

    Parameters
    ----------
    value:
        The candidate probability.
    name:
        Parameter name used in the error message.

    Returns
    -------
    float
        The validated value as a ``float``.

    Raises
    ------
    ValueError
        If ``value`` is NaN, infinite, negative, or greater than 1.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(
            f"{name} must be a finite probability in [0, 1], got {value!r}"
        )
    if not 0.0 <= value <= 1.0:
        raise ValueError(
            f"{name} must be a probability in [0, 1], got {value!r}"
        )
    return value


def validate_burst_length(value: float, name: str) -> float:
    """Reject a non-positive or non-finite mean burst length.

    A Gilbert–Elliott burst is parameterized by its mean length in
    packets; zero would mean bursts that end before they begin and a
    NaN would silently disable the bad state.

    Parameters
    ----------
    value:
        Mean burst length in packets; must be finite and >= 1.
    name:
        Parameter name used in the error message.

    Returns
    -------
    float
        The validated value as a ``float``.

    Raises
    ------
    ValueError
        If ``value`` is NaN, infinite, or below 1.
    """
    value = float(value)
    if not math.isfinite(value) or value < 1.0:
        raise ValueError(
            f"{name} must be a finite mean burst length >= 1 packet, "
            f"got {value!r}"
        )
    return value


def validate_backoff(base_s: float, factor: float, max_s: float) -> None:
    """Reject an impossible exponential-backoff schedule.

    Shared by the ARQ retransmission policy and the serving client's
    reconnect loop, so both fail identically on the same bad schedule.

    Parameters
    ----------
    base_s:
        First-attempt delay in seconds; must be finite and >= 0.
    factor:
        Per-attempt multiplier; must be finite and >= 1 (a factor
        below 1 would make later retries *faster*, defeating backoff).
    max_s:
        Delay cap in seconds; must be finite and >= ``base_s``.

    Raises
    ------
    ValueError
        On the first offending parameter, with the constraint named.
    """
    base_s = float(base_s)
    factor = float(factor)
    max_s = float(max_s)
    if not math.isfinite(base_s) or base_s < 0.0:
        raise ValueError(
            f"backoff base_s must be finite and >= 0 seconds, got {base_s!r}"
        )
    if not math.isfinite(factor) or factor < 1.0:
        raise ValueError(
            f"backoff factor must be finite and >= 1, got {factor!r}"
        )
    if not math.isfinite(max_s) or max_s < base_s:
        raise ValueError(
            f"backoff max_s must be finite and >= base_s ({base_s}), "
            f"got {max_s!r}"
        )
