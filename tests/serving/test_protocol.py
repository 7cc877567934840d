"""Wire-protocol tests: round-trips at hypothesis-chosen byte splits.

The contract under test is the one TCP forces on every receiver: the
encoded stream may arrive split at *any* byte boundary, and the
incremental :class:`~repro.serving.protocol.MessageDecoder` must
recover exactly the encoded message sequence regardless of where the
splits fall.
"""

import dataclasses
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.protocol import (
    MAX_BODY_BYTES,
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
    Ack,
    Bye,
    Frame,
    Hello,
    MessageDecoder,
    ProtocolError,
    StreamSetup,
    Welcome,
    encode_message,
)

# -- message strategies -------------------------------------------------

_names = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF),
    max_size=24,
)

_setups = st.builds(
    StreamSetup,
    scene=_names,
    height=st.integers(min_value=1, max_value=4096),
    width=st.integers(min_value=1, max_value=4096),
    target_fps=st.floats(min_value=1.0, max_value=240.0, allow_nan=False),
    n_frames=st.integers(min_value=1, max_value=10_000),
    controller=_names,
    start_rung=st.none() | _names,
)

_hellos = st.builds(
    Hello,
    setup=_setups,
    client_name=_names,
    version=st.integers(min_value=0, max_value=255),
)

_welcomes = st.builds(
    Welcome,
    ladder=st.tuples(_names) | st.tuples(_names, _names, _names),
    interval_s=st.floats(min_value=1e-4, max_value=10.0, allow_nan=False),
    n_frames=st.integers(min_value=1, max_value=10_000),
    session=_names,
)

_frames = st.builds(
    Frame,
    frame_index=st.integers(min_value=0, max_value=2**32 - 1),
    rung=st.integers(min_value=0, max_value=2**16 - 1),
    ready_time_s=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    payload=st.binary(max_size=512),
    flags=st.integers(min_value=0, max_value=2**16 - 1),
)

_acks = st.builds(
    Ack,
    frame_index=st.integers(min_value=0, max_value=2**32 - 1),
    recv_time_s=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)

_byes = st.builds(
    Bye,
    reason=_names,
    stats=st.dictionaries(
        _names, st.integers() | st.floats(allow_nan=False) | _names, max_size=4
    ),
)

_messages = st.one_of(_hellos, _welcomes, _frames, _acks, _byes)


def _chunked(blob: bytes, cut_points: list[int]) -> list[bytes]:
    """Split ``blob`` at the given sorted offsets."""
    bounds = [0, *sorted(point % (len(blob) + 1) for point in cut_points), len(blob)]
    return [blob[a:b] for a, b in zip(bounds, bounds[1:])]


def _body(msg_type: int, data: dict) -> bytes:
    """A raw frame of ``msg_type`` whose body is ``data`` as JSON."""
    encoded = json.dumps(data).encode()
    return struct.pack(">2sBI", PROTOCOL_MAGIC, msg_type, len(encoded)) + encoded


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(
        messages=st.lists(_messages, min_size=1, max_size=6),
        cuts=st.lists(st.integers(min_value=0), max_size=12),
    )
    def test_stream_split_anywhere_decodes_identically(self, messages, cuts):
        blob = b"".join(encode_message(m) for m in messages)
        decoder = MessageDecoder()
        decoded = []
        for chunk in _chunked(blob, cuts):
            decoded.extend(decoder.feed(chunk))
        assert decoded == messages
        assert decoder.buffered_bytes == 0

    @settings(max_examples=60, deadline=None)
    @given(message=_messages)
    def test_byte_at_a_time(self, message):
        blob = encode_message(message)
        decoder = MessageDecoder()
        decoded = []
        for index in range(len(blob)):
            decoded.extend(decoder.feed(blob[index : index + 1]))
        assert decoded == [message]

    def test_partial_frame_stays_buffered(self):
        blob = encode_message(Ack(frame_index=7, recv_time_s=1.5))
        decoder = MessageDecoder()
        assert decoder.feed(blob[:-1]) == []
        assert decoder.buffered_bytes == len(blob) - 1
        assert decoder.feed(blob[-1:]) == [Ack(frame_index=7, recv_time_s=1.5)]

    def test_empty_feed_is_a_no_op(self):
        decoder = MessageDecoder()
        assert decoder.feed(b"") == []
        assert decoder.buffered_bytes == 0


class TestErrors:
    def test_bad_magic_raises(self):
        decoder = MessageDecoder()
        with pytest.raises(ProtocolError, match="magic"):
            decoder.feed(b"XX" + bytes(5))

    def test_unknown_type_raises(self):
        blob = struct.pack(">2sBI", PROTOCOL_MAGIC, 0x7F, 0)
        with pytest.raises(ProtocolError, match="unknown message type"):
            MessageDecoder().feed(blob)

    def test_oversize_length_fails_before_buffering(self):
        blob = struct.pack(">2sBI", PROTOCOL_MAGIC, 0x04, MAX_BODY_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            MessageDecoder().feed(blob)

    def test_decoder_is_poisoned_after_error(self):
        decoder = MessageDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(b"XX" + bytes(5))
        good = encode_message(Bye())
        with pytest.raises(ProtocolError):
            decoder.feed(good)

    def test_malformed_json_control_body(self):
        blob = struct.pack(">2sBI", PROTOCOL_MAGIC, 0x05, 4) + b"!!!!"
        with pytest.raises(ProtocolError, match="BYE"):
            MessageDecoder().feed(blob)

    def test_short_frame_body_raises(self):
        blob = struct.pack(">2sBI", PROTOCOL_MAGIC, 0x03, 4) + bytes(4)
        with pytest.raises(ProtocolError, match="shorter"):
            MessageDecoder().feed(blob)

    def test_wrong_size_ack_raises(self):
        blob = struct.pack(">2sBI", PROTOCOL_MAGIC, 0x04, 3) + bytes(3)
        with pytest.raises(ProtocolError, match="ACK"):
            MessageDecoder().feed(blob)

    def test_encode_rejects_non_message(self):
        with pytest.raises(TypeError):
            encode_message(object())

    def test_hello_with_non_numeric_version_is_protocol_error(self):
        # version/client_name coercion belongs to the decoder's error
        # contract: a bare ValueError would escape every
        # ``except ProtocolError`` caller and skip poisoning.
        setup = dataclasses.asdict(StreamSetup(scene="office"))
        decoder = MessageDecoder()
        with pytest.raises(ProtocolError, match="HELLO"):
            decoder.feed(_body(0x01, {"setup": setup, "version": "abc"}))
        with pytest.raises(ProtocolError):
            decoder.feed(b"")  # poisoned, like every other decode error

    def test_hello_version_default(self):
        hello = Hello(setup=StreamSetup(scene="office"))
        assert hello.version == PROTOCOL_VERSION

    @pytest.mark.parametrize(
        "msg_type, body",
        [
            (0x01, {"setup": "office"}),
            (0x01, {"setup": ["office"]}),
            (0x01, {"version": 1}),
            (0x01, {"setup": {"height": 96}}),
            (0x02, {"ladder": ["bd"], "n_frames": 3}),
            (0x02, {"ladder": ["bd"], "interval_s": "fast", "n_frames": 3}),
            (0x02, {"ladder": ["bd"], "interval_s": 0.1, "n_frames": float("inf")}),
            (0x01, {"version": float("inf"), "setup": {"scene": "office"}}),
            (0x05, {"stats": ["frames", 3]}),
            (0x05, {"stats": None}),
        ],
    )
    def test_malformed_control_body_poisons(self, msg_type, body):
        decoder = MessageDecoder()
        with pytest.raises(ProtocolError, match="malformed|must be"):
            decoder.feed(_body(msg_type, body))
        with pytest.raises(ProtocolError):
            decoder.feed(b"")


def test_bye_without_reason_reads_as_its_default():
    (bye,) = MessageDecoder().feed(_body(0x05, {"stats": {"frames": 3}}))
    assert bye == Bye(reason="complete", stats={"frames": 3})


#: Wire bytes of one message of each JSON type, recorded before the
#: control messages moved onto the report codec.
GOLDEN_MESSAGES = [
    (
        Hello(
            setup=StreamSetup(
                scene="office", height=64, width=48, target_fps=90.0,
                n_frames=12, controller="buffer", start_rung="bd",
            ),
            client_name="client-7",
        ),
        b'RV\x01\x00\x00\x00\xa0{"version":1,"client_name":"client-7","setup":'
        b'{"scene":"office","height":64,"width":48,"target_fps":90.0,'
        b'"n_frames":12,"controller":"buffer","start_rung":"bd"}}',
    ),
    (
        Welcome(
            ladder=("nocom", "png", "bd", "variable-bd", "perceptual"),
            interval_s=1 / 90, n_frames=12, session="session-3",
        ),
        b'RV\x02\x00\x00\x00\x80{"ladder":["nocom","png","bd","variable-bd",'
        b'"perceptual"],"interval_s":0.011111111111111112,"n_frames":12,'
        b'"session":"session-3"}',
    ),
    (
        Bye(reason="complete", stats={"frames": 12, "stall_s": 0.25, "rung": "bd"}),
        b'RV\x05\x00\x00\x00F{"reason":"complete","stats":{"frames":12,'
        b'"stall_s":0.25,"rung":"bd"}}',
    ),
]


@pytest.mark.parametrize(
    "message, wire", GOLDEN_MESSAGES, ids=["hello", "welcome", "bye"]
)
def test_control_messages_keep_their_wire_bytes(message, wire):
    assert encode_message(message) == wire
    assert MessageDecoder().feed(wire) == [message]
