"""Serving-test helpers: synthetic frame banks and frame conservation.

Imported by bare module name from ``tests/serving/`` and
``tests/test_serving_twin.py``.
"""

from __future__ import annotations

from repro.codecs.ladder import QualityLadder
from repro.serving.frames import FrameBank, filler_payload


def synthetic_bank(rung_streams, ladder=None, encode_time_s=0.0) -> FrameBank:
    """A bank of prescribed per-rung bit sizes, each payload filler of its size.

    The twin tests hand the same ``rung_streams`` to
    :func:`~repro.streaming.adaptive.simulate_adaptive_session`, so the
    simulator and the server stream byte-for-bit the same ladder sizes.
    """
    rung_streams = [tuple(int(bits) for bits in frame) for frame in rung_streams]
    return FrameBank(
        ladder if ladder is not None else QualityLadder.default(),
        rung_streams,
        [
            [filler_payload(bits, frame, rung) for rung, bits in enumerate(sizes)]
            for frame, sizes in enumerate(rung_streams)
        ],
        encode_time_s=encode_time_s,
        scene_name="synthetic",
    )


def assert_conserved(report, n_frames: int) -> None:
    """Each client's stream of ``n_frames`` ends frame by frame in one
    outcome: ACKed, dropped for some cause, or in flight at close."""
    for client in report.clients:
        accounted = len(client.frames) + client.dropped_frames + client.in_flight_at_close
        assert accounted == n_frames, (
            f"{client.name}: {len(client.frames)} ACKed + {client.dropped_frames} "
            f"dropped + {client.in_flight_at_close} in flight != {n_frames} frames"
        )
