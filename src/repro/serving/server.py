"""The asyncio streaming server: the engine's loop on real sockets.

This is the system half of the digital twin.  The discrete-event
engine *prices* a stream — frames ready on an interval clock, a rate
controller picking rungs, payloads draining through a link — and this
server *performs* it: an asyncio TCP accept loop, one paced frame loop
per connection, length-prefixed :class:`~repro.serving.protocol.Frame`
messages on the wire, and per-client backpressure with deadline-based
frame dropping where the simulator would grow a backlog without bound.

Backpressure is ACK-clocked (Jacobson, *Congestion Avoidance and
Control*, 1988), not left to the kernel: each connection keeps at most
one deadline's worth of the hinted channel (``link_bps_at(ready) *
deadline_s / 8`` bytes) written but not yet acknowledged, and a frame
that waits for that window past its deadline is dropped.  A throttled
client therefore sheds frames however much its socket buffers hold.

The adaptation loop is **literally the engine's**: each connection
owns an :class:`~repro.streaming.engine.AdaptationState` driving the
same :class:`~repro.streaming.adaptive.RateController` policies, with
one substitution — where the simulator records the link model's
computed drain time, the server records the *measured* one.  A frame's
drain is the time from when the channel got free (``max(send time,
previous ACK)``) to its ACK arrival, which is robust to kernel TCP
buffering: writes complete long before bytes reach a throttled
client, but ACKs arrive at consumption pace, so consecutive-ACK
spacing measures true goodput.

Rung *choices* stay deterministic across sim and server because the
PHY-rate input to the controller is evaluated from the configured
:class:`~repro.streaming.traces.BandwidthTrace` at **session time**
(``k * interval``), not wall time — measured feedback adjusts the
goodput EWMA, the clamp that dominates rung selection follows the
trace, and `tests/test_serving_twin.py` holds the two paths to the
same switch sequence.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field

from ..streaming.adaptive import get_controller
from ..streaming.engine import AdaptationState, FrameTiming
from ..streaming.reports import OMIT_DEFAULT
from ..streaming.fleet import ClientReport, ClientRollup
from ..streaming.traces import BandwidthTrace
from ..streaming.validation import validate_stream_timing
from .chaos import ChaosConfig, ChaosInjector
from .frames import FrameBank
from .protocol import (
    _FRAME_HEAD,
    _HEADER,
    PROTOCOL_VERSION,
    Ack,
    Bye,
    Frame,
    Hello,
    MessageDecoder,
    ProtocolError,
    Welcome,
    encode_message,
)

__all__ = ["ServeConfig", "ServedClientReport", "ServerReport", "StreamServer"]

#: Bytes a FRAME message adds to its payload on the wire.
_FRAME_OVERHEAD_BYTES = _HEADER.size + _FRAME_HEAD.size

#: How long a fresh connection may take to present a valid HELLO.
_HANDSHAKE_TIMEOUT_S = 5.0

#: Upper clamp on a client's requested stream length, in frames.
_MAX_FRAMES = 100_000


@dataclass(frozen=True)
class ServeConfig:
    """Everything a :class:`StreamServer` needs to run.

    Attributes
    ----------
    bank:
        The pre-encoded :class:`~repro.serving.frames.FrameBank` every
        connection streams from.
    host, port:
        Bind address; port ``0`` picks a free one (read it back from
        :attr:`StreamServer.port` after start).
    nominal_bandwidth_mbps:
        PHY rate reported to controllers when no trace is configured.
    phy_trace:
        Optional :class:`~repro.streaming.traces.BandwidthTrace` the
        per-connection PHY-rate hint follows, evaluated at session
        time — the live analog of a traced
        :class:`~repro.streaming.link.WirelessLink`.
    deadline_s:
        A frame still unsent this long after its ready time is dropped
        instead of sent (late frames are worthless to a head-mounted
        display).  It also sizes each connection's send window: at most
        ``link_bps_at(ready_s) * deadline_s / 8`` bytes may be written
        and not yet ACKed, and time spent waiting for that window counts
        toward the deadline.  ``None`` never drops and keeps no window.
    queue_frames:
        Per-client send-queue capacity, in frames; a full queue drops
        the *new* frame at enqueue (counted separately from deadline
        drops).
    drain_grace_s:
        How long shutdown and stream completion wait for outstanding
        ACKs before closing anyway.
    send_stall_timeout_s:
        Per-frame watchdog on the sender: a client that keeps the TCP
        connection open but stops reading blocks ``drain()``
        indefinitely, and one that reads but stops ACKing holds the
        send window shut; either would pin the connection (and its
        bank payload references) until server shutdown.  A drain
        stalled this long, or a window wait this long without an ACK,
        marks the client gone and aborts the transport.  ``None``
        disables the watchdog.
    write_buffer_bytes:
        Transport write-buffer high-water mark, above which ``drain()``
        blocks instead of buffering megabytes in user space; ``None``
        keeps asyncio's default.  The bytes in flight to a client are
        bounded by the send window (see ``deadline_s``), not by this.
    chaos:
        Optional :class:`~repro.serving.chaos.ChaosConfig` injecting
        frame drops, delays, and connection resets into every
        connection's sender — the live counterpart of a lossy
        :class:`~repro.streaming.link.WirelessLink`.  ``None``
        (default) serves faithfully.
    """

    bank: FrameBank
    host: str = "127.0.0.1"
    port: int = 0
    nominal_bandwidth_mbps: float = 400.0
    phy_trace: BandwidthTrace | None = None
    deadline_s: float | None = 0.25
    queue_frames: int = 32
    drain_grace_s: float = 2.0
    send_stall_timeout_s: float | None = 10.0
    write_buffer_bytes: int | None = 65536
    chaos: ChaosConfig | None = None

    def __post_init__(self):
        if self.nominal_bandwidth_mbps <= 0:
            raise ValueError(
                f"nominal_bandwidth_mbps must be positive, "
                f"got {self.nominal_bandwidth_mbps}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")
        if self.queue_frames < 1:
            raise ValueError(f"queue_frames must be >= 1, got {self.queue_frames}")
        if self.send_stall_timeout_s is not None and self.send_stall_timeout_s <= 0:
            raise ValueError(
                f"send_stall_timeout_s must be positive, "
                f"got {self.send_stall_timeout_s}"
            )

    def link_bps_at(self, time_s: float) -> float:
        """The PHY-rate hint a controller sees at session time ``time_s``."""
        if self.phy_trace is not None:
            return self.phy_trace.bandwidth_mbps_at(time_s) * 1e6
        return self.nominal_bandwidth_mbps * 1e6


@dataclass(frozen=True)
class ServedClientReport(ClientReport):
    """One connection's outcome, in the fleet report's vocabulary.

    A :class:`~repro.streaming.fleet.ClientReport` — same frame rows,
    same aggregate properties, same adaptation telemetry — plus the
    counters only a real transport has.

    Attributes
    ----------
    deadline_drops:
        Frames dropped because they were still queued past their
        deadline.
    queue_drops:
        Frames dropped at enqueue because the send queue was full.
    protocol_errors:
        Wire-protocol violations observed on this connection.
    bytes_sent:
        Total bytes written to the socket (payloads and framing).
    chaos_drops, chaos_delays, chaos_resets:
        Faults injected into this connection by the server's
        :class:`~repro.serving.chaos.ChaosConfig` (all zero when chaos
        is off).  A reset also drops the frame it interrupted.
    in_flight_at_close:
        Frames written to the socket whose ACK had not arrived when
        the connection closed: neither delivered nor dropped.
    """

    deadline_drops: int = 0
    queue_drops: int = 0
    protocol_errors: int = 0
    bytes_sent: int = 0
    chaos_drops: int = field(default=0, metadata=OMIT_DEFAULT)
    chaos_delays: int = field(default=0, metadata=OMIT_DEFAULT)
    chaos_resets: int = field(default=0, metadata=OMIT_DEFAULT)
    in_flight_at_close: int = field(default=0, metadata=OMIT_DEFAULT)

    @property
    def dropped_frames(self) -> int:
        """Frames dropped for any reason."""
        return self.deadline_drops + self.queue_drops + self.chaos_drops + self.chaos_resets


@dataclass(frozen=True)
class ServerReport(ClientRollup):
    """Aggregate outcome of a serving run — the live FleetReport.

    Shares :class:`~repro.streaming.fleet.FleetReport`'s roll-ups
    (:class:`~repro.streaming.fleet.ClientRollup`: client count, tail
    latency, stalls) and adds what only a real server has: drop and
    protocol-error counters, wall-clock duration, rung occupancy
    measured from actual transmissions.
    """

    clients: tuple[ServedClientReport, ...]
    ladder: tuple[str, ...]
    duration_s: float = 0.0
    scene: str = ""
    handshake_errors: int = field(default=0, metadata=OMIT_DEFAULT)
    unclean_closes: int = field(default=0, metadata=OMIT_DEFAULT)

    @property
    def frames_sent(self) -> int:
        """Delivered (ACKed) frames across every client."""
        return sum(len(r.frames) for r in self.clients)

    @property
    def deadline_drops(self) -> int:
        """Summed deadline drops across clients."""
        return sum(r.deadline_drops for r in self.clients)

    @property
    def queue_drops(self) -> int:
        """Summed queue-full drops across clients."""
        return sum(r.queue_drops for r in self.clients)

    @property
    def in_flight_at_close(self) -> int:
        """Summed frames still un-ACKed at close across clients."""
        return sum(r.in_flight_at_close for r in self.clients)

    @property
    def dropped_frames(self) -> int:
        """Frames dropped for any reason, across clients."""
        return self.deadline_drops + self.queue_drops + self.chaos_drops

    @property
    def protocol_errors(self) -> int:
        """Summed wire-protocol violations across clients."""
        return sum(r.protocol_errors for r in self.clients)

    @property
    def chaos_drops(self) -> int:
        """Frames the chaos injector dropped or reset away, fleet-wide."""
        return sum(r.chaos_drops + r.chaos_resets for r in self.clients)

    @property
    def chaos_resets(self) -> int:
        """Connections the chaos injector reset mid-stream."""
        return sum(r.chaos_resets for r in self.clients)

    @property
    def clean(self) -> bool:
        """Whether the run finished without faults *we* did not inject.

        Protocol violations, handshake failures, and connections that
        had to be cancelled at shutdown all count against cleanliness;
        injected chaos (drops, delays, resets) does not — degrading
        gracefully under chaos is the expected behavior, not an error.
        ``repro serve`` exits nonzero when this is false.
        """
        return (
            self.protocol_errors == 0
            and self.handshake_errors == 0
            and self.unclean_closes == 0
        )

    @property
    def rung_occupancy(self) -> dict[str, float]:
        """Fraction of delivered frames transmitted at each rung."""
        counts: dict[str, int] = {}
        total = 0
        for report in self.clients:
            for timing in report.frames:
                if timing.rung:
                    counts[timing.rung] = counts.get(timing.rung, 0) + 1
                    total += 1
        if total == 0:
            return {}
        return {name: counts.get(name, 0) / total for name in self.ladder}

    def summary(self) -> str:
        """One-line serving health readout."""
        occupancy = ", ".join(
            f"{name}:{share:.2f}" for name, share in self.rung_occupancy.items()
        )
        text = (
            f"{self.n_clients} clients | {self.frames_sent} frames | "
            f"{self.dropped_frames} dropped "
            f"({self.deadline_drops} deadline, {self.queue_drops} queue) | "
            f"{self.protocol_errors} protocol errors | "
            f"p95 latency {self.tail_latency_s(95.0) * 1e3:.2f} ms | "
            f"stall {self.total_stall_time_s * 1e3:.1f} ms | "
            f"rungs [{occupancy}]"
        )
        if self.chaos_drops or self.chaos_resets:
            text += (
                f" | chaos {self.chaos_drops} dropped, "
                f"{self.chaos_resets} resets"
            )
        if self.handshake_errors or self.unclean_closes:
            text += (
                f" | UNCLEAN ({self.handshake_errors} handshake, "
                f"{self.unclean_closes} cancelled)"
            )
        return text


class _EmptyConnection(Exception):
    """A peer connected and closed without ever sending a byte."""


class _QueuedFrame:
    """One frame waiting in a connection's send queue."""

    __slots__ = ("frame_index", "rung", "ready_s", "payload_bits", "payload")

    def __init__(self, frame_index, rung, ready_s, payload_bits, payload):
        self.frame_index = frame_index
        self.rung = rung
        self.ready_s = ready_s
        self.payload_bits = payload_bits
        self.payload = payload


class _Connection:
    """Per-client serving state: pacer, sender, ACK reader.

    Three coroutines per connection:

    * the **pacer** (the connection handler itself) wakes every frame
      interval, asks the :class:`AdaptationState` for a rung exactly as
      the engine's solo path does, and enqueues the frame — dropping it
      if the queue is full;
    * the **sender** drains the queue onto the socket through an
      ACK-clocked window, dropping frames whose deadline passed while
      they waited (that wait *is* the backpressure signal: a throttled
      client ACKs slowly, the window stays shut, the queue backs up —
      whatever the kernel's socket buffers could have absorbed);
    * the **ACK reader** turns acknowledgement arrival times into
      measured drain samples and replays them into the adaptation
      state strictly in frame order, so the feedback loop sees the same
      ordering the simulator guarantees by construction.
    """

    def __init__(
        self,
        server: "StreamServer",
        session: str,
        hello: Hello,
        writer: asyncio.StreamWriter,
        session_index: int = 0,
    ):
        config = server.config
        bank = config.bank
        setup = hello.setup
        validate_stream_timing(
            n_frames=setup.n_frames, target_fps=setup.target_fps
        )
        controller = get_controller(setup.controller)
        ladder = bank.ladder
        start = 0 if setup.start_rung is None else ladder.index_of(setup.start_rung)
        self.server = server
        self.config = config
        self.bank = bank
        self.setup = setup
        self.session = session
        self.name = hello.client_name or session
        self.writer = writer
        self.interval_s = 1.0 / setup.target_fps
        self.n_frames = min(setup.n_frames, _MAX_FRAMES)
        self.state = AdaptationState(controller, ladder, start, self.interval_s)
        self.controller_name = controller.name
        self.queue: asyncio.Queue[_QueuedFrame | None] = asyncio.Queue(
            maxsize=config.queue_frames
        )
        self.epoch: float = 0.0  # loop.time() at session start
        # The in-flight ledger: frames written and not yet ACKed, as
        # frame -> (session send time, wire bytes), plus their sum.
        self.in_flight: dict[int, tuple[float, int]] = {}
        self.in_flight_bytes = 0
        self.ack_arrived = asyncio.Event()  # wakes a sender waiting on the window
        self.chosen: dict[int, tuple[int, int]] = {}  # frame -> (rung, bits)
        self.last_ack_s = 0.0
        self.timings: list[FrameTiming] = []
        self.deadline_drops = 0
        self.queue_drops = 0
        self.protocol_errors = 0
        self.bytes_sent = 0
        # Fault injection: one deterministic chaos stream per
        # connection index, None when the server runs faithfully.
        self.chaos: ChaosInjector | None = (
            config.chaos.injector(session_index)
            if config.chaos is not None and config.chaos.is_active
            else None
        )
        self.client_gone = asyncio.Event()
        # In-order record replay (ACKs for sent frames arrive in order,
        # but drop records originate in the pacer/sender and may lap
        # them).  Every frame's outcome is pushed exactly once, so the
        # cursor reaches n_frames when every frame is accounted for.
        self._pending_records: dict[int, tuple[int, int, float, float | None]] = {}
        self._next_record = 0

    # -- session clock --------------------------------------------------

    def now_s(self) -> float:
        """Session time: seconds since this connection's first frame."""
        return asyncio.get_running_loop().time() - self.epoch

    # -- adaptation-state bookkeeping -----------------------------------

    def _push_record(
        self, frame_index: int, payload_bits: int, drain_s: float, ack_s: float | None
    ) -> None:
        """Queue one frame's outcome; replay any in-order prefix."""
        rung, _ = self.chosen[frame_index]
        self._pending_records[frame_index] = (rung, payload_bits, drain_s, ack_s)
        while self._next_record in self._pending_records:
            rung, bits, drain, ack = self._pending_records.pop(self._next_record)
            self.state.record(bits, drain, rung=rung)
            if ack is not None:
                ready_s = self._next_record * self.interval_s
                self.timings.append(
                    FrameTiming(
                        frame_index=self._next_record,
                        payload_bits=bits,
                        encode_time_s=self.bank.encode_time_s,
                        serialization_time_s=drain,
                        transmit_time_s=max(0.0, ack - ready_s),
                        rung=self.state.ladder[rung].name,
                    )
                )
            self._next_record += 1

    def _drop(self, frame: _QueuedFrame, *, deadline: bool) -> None:
        """Account one dropped frame (zero bits moved, interval passed)."""
        if deadline:
            self.deadline_drops += 1
        else:
            self.queue_drops += 1
        self._push_record(frame.frame_index, 0, 0.0, None)

    # -- coroutines -----------------------------------------------------

    async def pace(self) -> None:
        """The frame clock: choose a rung and enqueue, every interval."""
        loop = asyncio.get_running_loop()
        self.epoch = loop.time()
        for frame_index in range(self.n_frames):
            if self.client_gone.is_set():
                break
            ready_s = frame_index * self.interval_s
            delay = self.epoch + ready_s - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            rung_bits = self.bank.rung_bits(frame_index)
            # The PHY hint is evaluated at *session* time, so the
            # controller's clamp input is identical to the simulator's
            # whatever the wall clock did.
            rung = self.state.choose(
                frame_index, ready_s, rung_bits, self.config.link_bps_at(ready_s)
            )
            frame = _QueuedFrame(
                frame_index=frame_index,
                rung=rung,
                ready_s=ready_s,
                payload_bits=rung_bits[rung],
                payload=self.bank.payload(frame_index, rung),
            )
            self.chosen[frame_index] = (rung, rung_bits[rung])
            try:
                self.queue.put_nowait(frame)
            except asyncio.QueueFull:
                self._drop(frame, deadline=False)
        # Sender sentinel.  A healthy sender frees a slot within one
        # drain-watchdog period, so bound the wait; past it the sender
        # is wedged or dead, and blocking here would pin the
        # connection — force the sentinel in instead.
        grace = self.config.drain_grace_s
        if self.config.send_stall_timeout_s is not None:
            grace = max(grace, self.config.send_stall_timeout_s)
        try:
            await asyncio.wait_for(self.queue.put(None), grace)
        except asyncio.TimeoutError:
            self.client_gone.set()
            while True:
                try:
                    self.queue.put_nowait(None)
                    return
                except asyncio.QueueFull:
                    stale = self.queue.get_nowait()
                    if stale is not None:
                        self._drop(stale, deadline=True)

    async def _await_window(self, frame: _QueuedFrame) -> bool:
        """Wait until the ACK-clocked send window admits ``frame``.

        The window is what the hinted channel delivers within one
        deadline, ``link_bps_at(ready_s) * deadline_s / 8`` bytes, read
        from the same session-time PHY hint as the controller's clamp.
        A frame is admitted when nothing is in flight or when its wire
        bytes fit beside the un-ACKed ones, so a frame larger than the
        window still goes out, alone.  Returns False when the client is
        gone, or when no ACK arrived for ``send_stall_timeout_s``: the
        transport is then aborted, as for a stalled ``drain()``.
        """
        config = self.config
        window_bytes = config.link_bps_at(frame.ready_s) * config.deadline_s / 8
        wire_bytes = _FRAME_OVERHEAD_BYTES + len(frame.payload)
        while self.in_flight_bytes and self.in_flight_bytes + wire_bytes > window_bytes:
            if self.client_gone.is_set():
                return False
            self.ack_arrived.clear()
            # The reader (EOF, BYE) and the pacer (giving up on its
            # sentinel) set client_gone while this waits; wake on it too.
            wakers = [
                asyncio.ensure_future(event.wait())
                for event in (self.ack_arrived, self.client_gone)
            ]
            try:
                done, _ = await asyncio.wait(
                    wakers,
                    timeout=config.send_stall_timeout_s,
                    return_when=asyncio.FIRST_COMPLETED,
                )
            finally:
                for waker in wakers:
                    waker.cancel()
            if not done:
                self.client_gone.set()
                self.writer.transport.abort()
                return False
        return not self.client_gone.is_set()

    async def send(self) -> None:
        """Drain the queue to the socket through the send window.

        Each frame waits for :meth:`_await_window` to admit it, then is
        dropped if that wait or its time in the queue carried it past
        its deadline.  Otherwise it enters the in-flight ledger, stamped
        with its send time, and is written; ``drain()`` flushes the
        transport under the stall watchdog.  With ``deadline_s=None``
        there is no window and nothing is dropped for lateness.
        """
        deadline_s = self.config.deadline_s
        stall_s = self.config.send_stall_timeout_s
        while True:
            frame = await self.queue.get()
            if frame is None:
                return
            if self.client_gone.is_set():
                self._drop(frame, deadline=True)
                continue
            if deadline_s is not None:
                # Admission first, so the time spent waiting for ACKs
                # counts toward the deadline.
                admitted = await self._await_window(frame)
                if not admitted or self.now_s() > frame.ready_s + deadline_s:
                    self._drop(frame, deadline=True)
                    continue
            message = Frame(
                frame_index=frame.frame_index,
                rung=frame.rung,
                ready_time_s=frame.ready_s,
                payload=frame.payload,
            )
            wire = encode_message(message)
            if self.chaos is not None:
                action = self.chaos.frame_action()
                if action == "drop":
                    # Never written: the client sees a frame-index gap,
                    # exactly like an erased packet in the simulator.
                    # Recorded as a drop, so neither the adaptation state
                    # nor the end-of-stream wait stalls on the fault.
                    self._push_record(frame.frame_index, 0, 0.0, None)
                    continue
                if action == "reset":
                    # Kill the connection the way real networks do:
                    # mid-message (the peer reads a truncated frame
                    # then EOF), then a hard abort.
                    self.client_gone.set()
                    try:
                        if len(wire) > 8:
                            self.writer.write(wire[: len(wire) // 2])
                        self.writer.transport.abort()
                    except (ConnectionError, OSError):
                        pass
                    self._push_record(frame.frame_index, 0, 0.0, None)
                    continue
                if action == "delay":
                    await asyncio.sleep(self.chaos.delay_s)
            # Into the ledger before the write, so an ACK that arrives
            # before drain() returns settles it and leaves nothing stale.
            self.in_flight[frame.frame_index] = (self.now_s(), len(wire))
            self.in_flight_bytes += len(wire)
            try:
                self.writer.write(wire)
                if stall_s is None:
                    await self.writer.drain()
                else:
                    await asyncio.wait_for(self.writer.drain(), stall_s)
            except asyncio.TimeoutError:
                # The client holds the connection open but stopped
                # reading (no transport-buffer room for this long);
                # abort rather than stay pinned on an unresponsive
                # peer.  Must precede the OSError clause: on 3.11+
                # asyncio.TimeoutError is the builtin TimeoutError,
                # an OSError subclass.
                self.client_gone.set()
                self.writer.transport.abort()
                self._settle(frame.frame_index)
                self._drop(frame, deadline=True)
                continue
            except (ConnectionError, OSError):
                self.client_gone.set()
                self._settle(frame.frame_index)
                self._drop(frame, deadline=True)
                continue
            self.bytes_sent += len(wire)

    async def read(self, reader: asyncio.StreamReader, decoder: MessageDecoder) -> None:
        """Consume ACKs (and a possible client BYE) off the socket.

        ``decoder`` is the handshake's — the first (empty) feed flushes
        anything the client pipelined in the same TCP segment as its
        HELLO (an eager ACK, an early BYE) instead of dropping it.
        """
        data = b""
        try:
            while True:
                for message in decoder.iter_feed(data):
                    if isinstance(message, Ack):
                        self._on_ack(message)
                    elif isinstance(message, Bye):
                        self.client_gone.set()
                        return
                    else:
                        self.protocol_errors += 1
                if reader.at_eof():
                    break
                data = await reader.read(4096)
                if not data:
                    break
        except ProtocolError:
            self.protocol_errors += 1
        except (ConnectionError, OSError):
            pass
        finally:
            self.client_gone.set()

    def _settle(self, frame_index: int) -> float | None:
        """Take a frame out of the in-flight ledger; its send time, if any."""
        entry = self.in_flight.pop(frame_index, None)
        if entry is None:
            return None
        send_s, wire_bytes = entry
        self.in_flight_bytes -= wire_bytes
        return send_s

    def _on_ack(self, ack: Ack) -> None:
        send_s = self._settle(ack.frame_index)
        chosen = self.chosen.get(ack.frame_index)
        if send_s is None or chosen is None:
            self.protocol_errors += 1  # ACK for a frame never sent
            return
        self.ack_arrived.set()
        ack_s = self.now_s()
        # The channel was busy until the previous ACK: measure this
        # frame's drain from whichever came later, its own send or the
        # previous frame's completion — the live twin of the engine's
        # queue-behind-backlog serialization pricing.
        drain_s = max(1e-9, ack_s - max(send_s, self.last_ack_s))
        self.last_ack_s = ack_s
        self._push_record(ack.frame_index, chosen[1], drain_s, ack_s)

    # -- report ---------------------------------------------------------

    def report(self) -> ServedClientReport:
        """Freeze this connection's outcome."""
        return ServedClientReport(
            encoder=f"serving:{self.controller_name}",
            frames=list(self.timings),
            target_fps=self.setup.target_fps,
            name=self.name,
            scene=self.setup.scene,
            weight=1.0,
            adaptive=self.state.stats(),
            deadline_drops=self.deadline_drops,
            queue_drops=self.queue_drops,
            protocol_errors=self.protocol_errors,
            bytes_sent=self.bytes_sent,
            chaos_drops=self.chaos.drops if self.chaos is not None else 0,
            chaos_delays=self.chaos.delays if self.chaos is not None else 0,
            chaos_resets=self.chaos.resets if self.chaos is not None else 0,
            in_flight_at_close=len(self.in_flight),
        )


class StreamServer:
    """Asyncio TCP server streaming a :class:`FrameBank` to clients.

    Lifecycle::

        server = StreamServer(config)
        await server.start()          # binds; server.port is now real
        ...                           # clients connect and stream
        report = await server.stop()  # graceful drain, aggregate report

    Each accepted connection handshakes
    (:class:`~repro.serving.protocol.Hello` in,
    :class:`~repro.serving.protocol.Welcome` out), then runs the
    pacer/sender/ACK-reader trio until the stream completes, the
    client leaves, or the server drains.  Connection outcomes
    accumulate into the :class:`ServerReport` whether they ended
    cleanly or not.
    """

    def __init__(self, config: ServeConfig):
        self.config = config
        self._server: asyncio.AbstractServer | None = None
        self._sessions = itertools.count(1)
        self._active: set[asyncio.Task] = set()
        self._finished: list[ServedClientReport] = []
        self._handshake_errors = 0
        self._unclean_closes = 0
        self._started_at: float = 0.0
        self._stopping = False

    @property
    def port(self) -> int:
        """The bound TCP port (useful with a ``port=0`` config)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle, host=self.config.host, port=self.config.port
        )
        self._started_at = asyncio.get_running_loop().time()

    async def stop(self) -> ServerReport:
        """Graceful drain: stop accepting, let streams finish, report.

        Active connections get up to ``drain_grace_s`` to finish their
        in-flight frames; stragglers are cancelled with a
        :class:`~repro.serving.protocol.Bye` on the way out.
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._active:
            done, pending = await asyncio.wait(
                self._active, timeout=self.config.drain_grace_s
            )
            for task in pending:
                task.cancel()
            if pending:
                # Connections that outlived the drain grace had to be
                # killed — that is an unclean shutdown, and the exit
                # code should say so.
                self._unclean_closes += len(pending)
                await asyncio.gather(*pending, return_exceptions=True)
        return self.report()

    def report(self) -> ServerReport:
        """The aggregate outcome so far (finished connections only)."""
        duration = 0.0
        if self._started_at:
            try:
                duration = asyncio.get_running_loop().time() - self._started_at
            except RuntimeError:
                duration = 0.0
        return ServerReport(
            clients=tuple(self._finished),
            ladder=self.config.bank.ladder.names,
            duration_s=duration,
            scene=self.config.bank.scene_name,
            handshake_errors=self._handshake_errors,
            unclean_closes=self._unclean_closes,
        )

    # -- connection handling --------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._active.add(task)
            task.add_done_callback(self._active.discard)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            raise
        except Exception:  # noqa: BLE001 - one bad client must not kill the server
            self._handshake_errors += 1
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_hello(
        self, reader: asyncio.StreamReader
    ) -> tuple[Hello, MessageDecoder]:
        """Read the HELLO; return it with the decoder that parsed it.

        The decoder comes back so bytes the client pipelined behind its
        HELLO stay buffered for :meth:`_Connection.read` instead of
        being discarded with a throwaway decoder.
        """
        decoder = MessageDecoder()

        async def read_hello() -> Hello:
            received = False
            while True:
                data = await reader.read(4096)
                if not data:
                    if not received:
                        raise _EmptyConnection
                    raise ProtocolError("connection closed before HELLO")
                received = True
                for message in decoder.iter_feed(data):
                    if isinstance(message, Hello):
                        return message
                    raise ProtocolError(
                        f"expected HELLO, got {type(message).__name__}"
                    )

        # wait_for, not asyncio.timeout(): the support floor is 3.10.
        hello = await asyncio.wait_for(read_hello(), _HANDSHAKE_TIMEOUT_S)
        return hello, decoder

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        config = self.config
        if config.write_buffer_bytes is not None:
            writer.transport.set_write_buffer_limits(high=config.write_buffer_bytes)
        session_index = next(self._sessions)
        session = f"session-{session_index}"
        try:
            hello, decoder = await self._read_hello(reader)
        except _EmptyConnection:
            # A peer that connected and closed without sending a byte
            # is a port probe (health checks, the CI poll loop), not a
            # protocol violation — don't let it poison the exit code.
            return
        except (ProtocolError, asyncio.TimeoutError):
            self._handshake_errors += 1
            return

        def reject(reason: str) -> None:
            writer.write(encode_message(Bye(reason=reason)))

        if hello.version != PROTOCOL_VERSION:
            self._handshake_errors += 1
            reject(f"unsupported protocol version {hello.version}")
            return
        bank = config.bank
        if bank.scene_name and hello.setup.scene != bank.scene_name:
            self._handshake_errors += 1
            reject(
                f"scene {hello.setup.scene!r} not served "
                f"(bank holds {bank.scene_name!r})"
            )
            return
        requested = (hello.setup.height, hello.setup.width)
        if (bank.height or bank.width) and requested != (bank.height, bank.width):
            self._handshake_errors += 1
            reject(
                f"resolution {requested[0]}x{requested[1]} not served "
                f"(bank holds {bank.height}x{bank.width})"
            )
            return
        try:
            connection = _Connection(self, session, hello, writer, session_index)
        except (ValueError, KeyError) as exc:
            self._handshake_errors += 1
            reject(f"bad stream setup: {exc}")
            return

        writer.write(
            encode_message(
                Welcome(
                    ladder=bank.ladder.names,
                    interval_s=connection.interval_s,
                    n_frames=connection.n_frames,
                    session=session,
                )
            )
        )
        await writer.drain()

        reader_task = asyncio.create_task(connection.read(reader, decoder))
        sender_task = asyncio.create_task(connection.send())
        try:
            await connection.pace()
            await sender_task
            # Give in-flight frames a grace window to be consumed and
            # acknowledged before declaring the stream over.
            deadline = asyncio.get_running_loop().time() + config.drain_grace_s
            while (
                connection._next_record < connection.n_frames
                and not connection.client_gone.is_set()
                and asyncio.get_running_loop().time() < deadline
            ):
                await asyncio.sleep(0.01)
            try:
                writer.write(encode_message(Bye(reason="complete")))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        finally:
            for task in (sender_task, reader_task):
                if not task.done():
                    task.cancel()
            await asyncio.gather(sender_task, reader_task, return_exceptions=True)
            self._finished.append(connection.report())
