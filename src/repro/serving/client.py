"""The asyncio load generator: N throttled clients against one server.

Each connection is a faithful headset stand-in: it handshakes, reads
the socket in small chunks, *paces its own consumption* to a
:class:`~repro.streaming.traces.BandwidthTrace` (the live equivalent
of the simulator's traced link), and acknowledges every frame at the
moment its last byte would have arrived over that channel.  The
server's measured-goodput feedback loop therefore sees the configured
channel, not the loopback's gigabits.

Throttling is a virtual-clock construction: ``virt`` tracks when the
emulated channel would have finished delivering everything read so
far.  Each chunk advances it by the chunk's drain time *from the later
of the channel's previous finish or the chunk's actual arrival* — an
idle channel doesn't bank credit — and the client sleeps until the
virtual finish before processing the bytes, so ACKs fire at emulated
delivery times.

Per-connection outcomes are
:class:`~repro.streaming.fleet.ClientReport`-compatible (same frame
rows, same aggregates), so loadgen output, server reports, and
simulator fleets all diff with the same tooling.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from ..streaming.engine import FrameTiming
from ..streaming.loss import Backoff
from ..streaming.reports import OMIT_DEFAULT
from ..streaming.fleet import ClientReport, ClientRollup
from ..streaming.traces import BandwidthTrace
from .protocol import (
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

__all__ = ["LoadgenConfig", "LoadgenClientReport", "LoadgenReport", "run_loadgen"]


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-generation run against a streaming server.

    Attributes
    ----------
    host, port:
        Where the server listens.
    setup:
        The :class:`~repro.serving.protocol.StreamSetup` every client
        requests.
    n_clients:
        Concurrent connections.
    trace:
        Read-throttle :class:`~repro.streaming.traces.BandwidthTrace`
        per client; ``None`` reads at loopback speed.
    chunk_bytes:
        Socket read size; smaller chunks give the throttle finer
        pacing granularity at more wakeups.
    connect_stagger_s:
        Delay between successive connection openings, avoiding a
        thundering-herd handshake.
    timeout_s:
        Per-client overall timeout (handshake through BYE, spanning
        every reconnect attempt); a client past it reports what it
        has.
    max_reconnects:
        How many times a client may reconnect after losing its
        connection mid-stream (reset, EOF before BYE, refused
        connect).  ``0`` (default) keeps the historical
        single-connection behavior; chaos runs set it so clients ride
        out injected resets.
    backoff:
        The capped exponential :class:`~repro.streaming.loss.Backoff`
        paced between reconnect attempts — the *same* policy class the
        simulator's ARQ recovery uses, so simulated and served
        retry schedules share one definition.
    """

    host: str = "127.0.0.1"
    port: int = 0
    setup: StreamSetup = field(default_factory=lambda: StreamSetup(scene="office"))
    n_clients: int = 1
    trace: BandwidthTrace | None = None
    chunk_bytes: int = 4096
    connect_stagger_s: float = 0.002
    timeout_s: float = 60.0
    max_reconnects: int = 0
    backoff: Backoff = field(default_factory=lambda: Backoff(base_s=0.05, factor=2.0, max_s=1.0))

    def __post_init__(self):
        if self.n_clients < 1:
            raise ValueError(f"n_clients must be >= 1, got {self.n_clients}")
        if self.chunk_bytes < 64:
            raise ValueError(f"chunk_bytes must be >= 64, got {self.chunk_bytes}")
        if self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.max_reconnects < 0:
            raise ValueError(
                f"max_reconnects must be >= 0, got {self.max_reconnects}"
            )


@dataclass(frozen=True)
class LoadgenClientReport(ClientReport):
    """One loadgen connection's view of its stream.

    Frame rows measure what the *client* saw: ``serialization_time_s``
    is the spacing between consecutive frame deliveries (consumption
    pace) and ``transmit_time_s`` is delivery time minus the server's
    stamped ready time.

    Attributes
    ----------
    protocol_errors:
        Wire-protocol violations observed by this client.
    bytes_received:
        Total bytes read off the socket.
    completed:
        Whether the stream ended with the server's BYE (as opposed to
        a timeout or connection error).
    reconnects:
        Connections re-established after a mid-stream loss (requires
        ``max_reconnects > 0`` in the config).
    resyncs:
        Discontinuities in the delivered frame-index sequence — a
        dropped frame or a post-reconnect restart, i.e. every point a
        real decoder would need an I-frame resync.  The served
        counterpart of
        :attr:`repro.streaming.loss.LossStats.resyncs`.
    """

    protocol_errors: int = 0
    bytes_received: int = 0
    completed: bool = False
    reconnects: int = field(default=0, metadata=OMIT_DEFAULT)
    resyncs: int = field(default=0, metadata=OMIT_DEFAULT)


@dataclass(frozen=True)
class LoadgenReport(ClientRollup):
    """Aggregate outcome of one load-generation run.

    Frame rows carry no encode time, so :meth:`tail_latency_s` (from
    :class:`~repro.streaming.fleet.ClientRollup`) is the
    client-observed delivery latency.
    """

    clients: tuple[LoadgenClientReport, ...]
    duration_s: float = 0.0

    @property
    def frames_received(self) -> int:
        """Fully delivered frames across every connection."""
        return sum(len(r.frames) for r in self.clients)

    @property
    def bytes_received(self) -> int:
        """Total bytes read across every connection."""
        return sum(r.bytes_received for r in self.clients)

    @property
    def protocol_errors(self) -> int:
        """Wire-protocol violations across every connection."""
        return sum(r.protocol_errors for r in self.clients)

    @property
    def completed_clients(self) -> int:
        """Connections that ended with the server's BYE."""
        return sum(r.completed for r in self.clients)

    @property
    def total_reconnects(self) -> int:
        """Reconnections across every client."""
        return sum(r.reconnects for r in self.clients)

    @property
    def total_resyncs(self) -> int:
        """Frame-sequence discontinuities across every client."""
        return sum(r.resyncs for r in self.clients)

    def summary(self) -> str:
        """One-line loadgen outcome readout."""
        goodput = 0.0
        if self.duration_s > 0:
            goodput = 8 * self.bytes_received / self.duration_s / 1e6
        text = (
            f"{self.completed_clients}/{self.n_clients} clients completed | "
            f"{self.frames_received} frames | "
            f"{self.bytes_received / 2**20:.1f} MiB "
            f"({goodput:.1f} Mbps aggregate) | "
            f"{self.protocol_errors} protocol errors | "
            f"p95 delivery latency {self.tail_latency_s(95.0) * 1e3:.2f} ms"
        )
        if self.total_reconnects or self.total_resyncs:
            text += (
                f" | {self.total_reconnects} reconnects | "
                f"{self.total_resyncs} resyncs"
            )
        return text


async def _run_connection(config: LoadgenConfig, index: int) -> LoadgenClientReport:
    """One client: connect, handshake, consume at the traced pace.

    With ``max_reconnects > 0`` a connection lost mid-stream (reset,
    truncated frame, refused connect) is retried under the config's
    capped-exponential backoff; the overall ``timeout_s`` budget spans
    every attempt.  Frame rows accumulate across attempts, and every
    discontinuity in the delivered frame-index sequence counts one
    resync.
    """
    name = f"loadgen-{index}"
    setup = config.setup
    timings: list[FrameTiming] = []
    protocol_errors = 0
    bytes_received = 0
    completed = False
    reconnects = 0
    resyncs = 0
    prev_frame_index: int | None = None
    ladder: tuple[str, ...] = ()

    def report() -> LoadgenClientReport:
        return LoadgenClientReport(
            encoder="loadgen",
            frames=list(timings),
            target_fps=setup.target_fps,
            name=name,
            scene=setup.scene,
            protocol_errors=protocol_errors,
            bytes_received=bytes_received,
            completed=completed,
            reconnects=reconnects,
            resyncs=resyncs,
        )

    loop = asyncio.get_running_loop()

    async def stream(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        nonlocal protocol_errors, bytes_received, completed, ladder
        nonlocal resyncs, prev_frame_index
        writer.write(
            encode_message(Hello(setup=setup, client_name=name))
        )
        await writer.drain()

        decoder = MessageDecoder()
        trace = config.trace
        t0 = loop.time()
        virt = 0.0  # emulated-channel finish time of all bytes so far
        got_welcome = False
        last_delivery_s = 0.0

        while True:
            data = await reader.read(config.chunk_bytes)
            if not data:
                break
            bytes_received += len(data)
            if trace is not None:
                arrival_s = loop.time() - t0
                virt = max(virt, arrival_s)
                virt = trace.finish_time_s(virt, 8 * len(data))
                delay = (t0 + virt) - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                delivery_s = virt
            else:
                delivery_s = loop.time() - t0
            try:
                messages = decoder.feed(data)
            except ProtocolError:
                protocol_errors += 1
                break
            done = False
            for message in messages:
                if isinstance(message, Welcome):
                    if got_welcome:
                        protocol_errors += 1
                    got_welcome = True
                    ladder = message.ladder
                elif isinstance(message, Frame):
                    if (
                        prev_frame_index is not None
                        and message.frame_index != prev_frame_index + 1
                    ):
                        resyncs += 1
                    prev_frame_index = message.frame_index
                    rung_name = (
                        ladder[message.rung]
                        if message.rung < len(ladder)
                        else str(message.rung)
                    )
                    timings.append(
                        FrameTiming(
                            frame_index=message.frame_index,
                            payload_bits=8 * len(message.payload),
                            encode_time_s=0.0,
                            serialization_time_s=max(
                                0.0, delivery_s - last_delivery_s
                            ),
                            transmit_time_s=max(
                                0.0, delivery_s - message.ready_time_s
                            ),
                            rung=rung_name,
                        )
                    )
                    last_delivery_s = delivery_s
                    writer.write(
                        encode_message(
                            Ack(
                                frame_index=message.frame_index,
                                recv_time_s=delivery_s,
                            )
                        )
                    )
                    await writer.drain()
                elif isinstance(message, Bye):
                    completed = True
                    done = True
                else:
                    protocol_errors += 1
            if done:
                break
        if completed:
            try:
                writer.write(encode_message(Bye(reason="complete")))
                await writer.drain()
            except (ConnectionError, OSError):
                pass

    deadline = loop.time() + config.timeout_s
    attempt = 0
    while True:
        writer = None
        try:
            reader, writer = await asyncio.open_connection(config.host, config.port)
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            # wait_for, not asyncio.timeout(): the support floor is 3.10.
            await asyncio.wait_for(stream(reader, writer), remaining)
        except asyncio.TimeoutError:
            break
        except (ConnectionError, OSError):
            pass
        finally:
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
        if completed:
            break
        attempt += 1
        if attempt > config.max_reconnects:
            break
        delay = config.backoff.delay_s(attempt)
        if loop.time() + delay >= deadline:
            break
        await asyncio.sleep(delay)
        reconnects += 1
    return report()


async def run_loadgen(config: LoadgenConfig) -> LoadgenReport:
    """Run ``n_clients`` concurrent connections; aggregate their reports."""
    loop = asyncio.get_running_loop()
    started = loop.time()

    async def staggered(index: int) -> LoadgenClientReport:
        if config.connect_stagger_s > 0 and index:
            await asyncio.sleep(index * config.connect_stagger_s)
        return await _run_connection(config, index)

    reports = await asyncio.gather(
        *(staggered(index) for index in range(config.n_clients))
    )
    return LoadgenReport(
        clients=tuple(reports), duration_s=loop.time() - started
    )
