"""Wire protocol of the streaming server: framing, handshake, ACKs.

Everything here is **pure**: messages are frozen dataclasses, encoding
returns ``bytes``, and decoding is an incremental state machine
(:class:`MessageDecoder`) that accepts input split at *any* byte
boundary — exactly what a TCP stream delivers.  No sockets, no clocks,
no asyncio: the server and client layers own the I/O and feed this
module whatever arrives.

Wire format
-----------

Every message is one frame::

    +----+----+------+----------------+------------------+
    | 'R'| 'V'| type | u32 body length|   body bytes ...  |
    +----+----+------+----------------+------------------+

2-byte magic, 1-byte type tag, big-endian 32-bit body length, body.
Control messages (:class:`Hello`, :class:`Welcome`, :class:`Bye`)
carry a compact UTF-8 JSON body: the message's dataclass fields in
declaration order, written and read by the report codec
(:mod:`repro.streaming.reports`), so a new field is one dataclass
field.  The hot-path messages (:class:`Frame`, :class:`Ack`) carry
fixed ``struct``-packed headers so the per-frame cost stays flat.

The handshake mirrors the simulator's configuration surface: a
:class:`Hello` carries a :class:`StreamSetup` — the
:class:`~repro.streaming.engine.StreamSpec`-equivalent description of
the stream the client wants — and the :class:`Welcome` answers with
the ladder actually in force, so client and server agree on rung
indices before the first frame flies.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..streaming.reports import _fields_from_dict, _fields_to_dict

__all__ = [
    "PROTOCOL_MAGIC",
    "PROTOCOL_VERSION",
    "MAX_BODY_BYTES",
    "ProtocolError",
    "StreamSetup",
    "Hello",
    "Welcome",
    "Frame",
    "Ack",
    "Bye",
    "Message",
    "encode_message",
    "MessageDecoder",
]

#: Two-byte frame preamble ("Repro Video").  Anything else on the wire
#: is a framing error, caught immediately instead of after a bad
#: length field swallows megabytes.
PROTOCOL_MAGIC = b"RV"

#: Handshake version; the server rejects a :class:`Hello` carrying a
#: different one.
PROTOCOL_VERSION = 1

#: Upper bound on a single message body.  Far above any realistic
#: encoded frame, but small enough that a corrupt length field fails
#: fast instead of buffering forever.
MAX_BODY_BYTES = 1 << 26  # 64 MiB

_HEADER = struct.Struct(">2sBI")  # magic, type, body length
_FRAME_HEAD = struct.Struct(">IHHd")  # frame_index, rung, flags, ready_time_s
_ACK_BODY = struct.Struct(">Id")  # frame_index, recv_time_s

_TYPE_FRAME = 0x03
_TYPE_ACK = 0x04


class ProtocolError(Exception):
    """The byte stream violated the wire protocol."""


@dataclass(frozen=True)
class StreamSetup:
    """What a client asks to be streamed — the wire twin of a StreamSpec.

    Carried inside :class:`Hello`; every field maps onto the knobs of
    :func:`~repro.streaming.adaptive.simulate_adaptive_session` /
    :class:`~repro.streaming.engine.StreamSpec`, which is what makes
    the digital-twin comparison possible: the same setup drives the
    simulator and the socket.

    Attributes
    ----------
    scene:
        Scene name the server should stream (must exist in its bank).
    height, width:
        Per-eye resolution the bank was encoded at.
    target_fps:
        Frame cadence the server paces at.
    n_frames:
        Frames to stream; the server sends :class:`Bye` after the last.
    controller:
        Rate-controller name from
        :data:`~repro.streaming.adaptive.CONTROLLER_CHOICES`.
    start_rung:
        Rung name (or ``None`` for the best rung) in force before the
        first frame.
    """

    scene: str
    height: int = 192
    width: int = 192
    target_fps: float = 72.0
    n_frames: int = 72
    controller: str = "throughput"
    start_rung: str | None = None


@dataclass(frozen=True, kw_only=True)
class Hello:
    """Client -> server: open a stream.

    Keyword-only, so the fields can sit in wire order.

    Attributes
    ----------
    version:
        Protocol version the client speaks.
    client_name:
        Label echoed into the server's per-client report.
    setup:
        The requested stream configuration.
    """

    version: int = PROTOCOL_VERSION
    client_name: str = ""
    setup: StreamSetup


@dataclass(frozen=True)
class Welcome:
    """Server -> client: stream accepted, here is the ladder.

    Attributes
    ----------
    ladder:
        Rung names in force, best quality first — the decoder ring for
        every :class:`Frame.rung` index that follows.
    interval_s:
        Frame interval the server paces at.
    n_frames:
        Frames the server will actually send (it may clamp the ask).
    session:
        Server-assigned session label (unique per connection).
    """

    ladder: tuple[str, ...]
    interval_s: float
    n_frames: int
    session: str = ""


@dataclass(frozen=True)
class Frame:
    """Server -> client: one encoded stereo frame.

    Attributes
    ----------
    frame_index:
        Zero-based frame number within the stream.
    rung:
        Ladder index the payload was encoded at.
    ready_time_s:
        Session time the frame became ready on the server (the paced
        ``k * interval`` instant) — lets the client compute end-to-end
        lateness without clock sync.
    payload:
        The encoded bitstream bytes.
    flags:
        Reserved bit field (zero today).
    """

    frame_index: int
    rung: int
    ready_time_s: float
    payload: bytes
    flags: int = 0


@dataclass(frozen=True)
class Ack:
    """Client -> server: a frame was fully received and consumed.

    Attributes
    ----------
    frame_index:
        The frame being acknowledged.
    recv_time_s:
        Client-side session time (seconds since its own epoch) the
        frame finished arriving.  Informational — the server measures
        drain with its *own* clock on ACK arrival, so no clock sync is
        assumed.
    """

    frame_index: int
    recv_time_s: float


@dataclass(frozen=True)
class Bye:
    """Either side: the stream is over.

    Attributes
    ----------
    reason:
        Human-readable close reason (``"complete"``, ``"drain"``, ...).
    stats:
        Optional JSON-compatible closing stats blob.
    """

    reason: str = "complete"
    stats: dict[str, Any] = field(default_factory=dict)


Message = Hello | Welcome | Frame | Ack | Bye

#: Type tag of each JSON-bodied control message.
_JSON_TYPES: dict[type, int] = {Hello: 0x01, Welcome: 0x02, Bye: 0x05}
_JSON_CLASSES = {tag: cls for cls, tag in _JSON_TYPES.items()}


def _frame_bytes(msg_type: int, body: bytes) -> bytes:
    if len(body) > MAX_BODY_BYTES:
        raise ProtocolError(
            f"message body of {len(body)} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit"
        )
    return _HEADER.pack(PROTOCOL_MAGIC, msg_type, len(body)) + body


def encode_message(message: Message) -> bytes:
    """Serialize any protocol message to its wire frame."""
    msg_type = _JSON_TYPES.get(type(message))
    if msg_type is not None:
        body = json.dumps(_fields_to_dict(message), separators=(",", ":"))
        return _frame_bytes(msg_type, body.encode("utf-8"))
    if isinstance(message, Frame):
        head = _FRAME_HEAD.pack(
            message.frame_index, message.rung, message.flags, message.ready_time_s
        )
        return _frame_bytes(_TYPE_FRAME, head + message.payload)
    if isinstance(message, Ack):
        return _frame_bytes(
            _TYPE_ACK, _ACK_BODY.pack(message.frame_index, message.recv_time_s)
        )
    raise TypeError(f"not a protocol message: {type(message).__name__}")


def _decode_json(cls: type, body: bytes) -> Message:
    what = cls.__name__.upper()
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed {what} body: {exc}") from exc
    if not isinstance(data, dict):
        raise ProtocolError(f"{what} body must be a JSON object")
    if cls is Hello:
        # A HELLO that names no version predates versioning: the server
        # refuses version 0 rather than guessing.
        data.setdefault("version", 0)
    try:
        return _fields_from_dict(cls, data)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed {what} body: {exc}") from exc


def _decode_body(msg_type: int, body: bytes) -> Message:
    cls = _JSON_CLASSES.get(msg_type)
    if cls is not None:
        return _decode_json(cls, body)
    if msg_type == _TYPE_FRAME:
        if len(body) < _FRAME_HEAD.size:
            raise ProtocolError(
                f"FRAME body of {len(body)} bytes is shorter than its "
                f"{_FRAME_HEAD.size}-byte header"
            )
        frame_index, rung, flags, ready_time_s = _FRAME_HEAD.unpack_from(body)
        return Frame(
            frame_index=frame_index,
            rung=rung,
            ready_time_s=ready_time_s,
            payload=body[_FRAME_HEAD.size :],
            flags=flags,
        )
    if msg_type == _TYPE_ACK:
        if len(body) != _ACK_BODY.size:
            raise ProtocolError(
                f"ACK body must be {_ACK_BODY.size} bytes, got {len(body)}"
            )
        frame_index, recv_time_s = _ACK_BODY.unpack(body)
        return Ack(frame_index=frame_index, recv_time_s=recv_time_s)
    raise ProtocolError(f"unknown message type 0x{msg_type:02x}")


class MessageDecoder:
    """Incremental frame decoder over an arbitrarily-chunked byte stream.

    Feed it whatever the transport hands you — one byte at a time or a
    megabyte — and it yields each complete message exactly once, in
    order.  Partial frames stay buffered across calls, so the decoder
    is insensitive to where TCP happens to split the stream (the
    property the protocol round-trip tests exercise at hypothesis-chosen
    boundaries).

    Raises :class:`ProtocolError` on bad magic, unknown message types,
    or oversize bodies; after an error the decoder is poisoned and
    every further :meth:`feed` re-raises, because a framing error
    leaves no way to resynchronize a length-prefixed stream.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._error: ProtocolError | None = None

    @property
    def buffered_bytes(self) -> int:
        """Bytes held waiting for the rest of a frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[Message]:
        """Buffer ``data`` and return every message it completes."""
        return list(self.iter_feed(data))

    def iter_feed(self, data: bytes) -> Iterator[Message]:
        """Like :meth:`feed`, yielding messages as they complete."""
        if self._error is not None:
            raise self._error
        self._buffer.extend(data)
        while True:
            if len(self._buffer) < _HEADER.size:
                return
            magic, msg_type, length = _HEADER.unpack_from(self._buffer)
            if magic != PROTOCOL_MAGIC:
                self._error = ProtocolError(
                    f"bad frame magic {bytes(magic)!r} (expected {PROTOCOL_MAGIC!r})"
                )
                raise self._error
            if length > MAX_BODY_BYTES:
                self._error = ProtocolError(
                    f"declared body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit"
                )
                raise self._error
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return
            body = bytes(self._buffer[_HEADER.size : end])
            del self._buffer[:end]
            try:
                message = _decode_body(msg_type, body)
            except ProtocolError as exc:
                self._error = exc
                raise
            yield message
