"""Server + loadgen integration tests over real loopback sockets.

Everything here runs end to end: a :class:`~repro.serving.server.StreamServer`
bound to an ephemeral port, real TCP connections, real backpressure.
Streams are kept short so the whole module stays in tier-1 time.
"""

import asyncio
import dataclasses
import json
import math
import struct

import numpy as np
import pytest

from repro.color.srgb import encode_srgb8
from repro.encoding.bd import BDCodec
from repro.encoding.bd import EncodedFrame as BDStream
from repro.encoding.bd_variable import VariableBDCodec, VariableEncodedFrame
from repro.encoding.tiling import TileGrid
from repro.scenes.library import get_scene
from repro.serving.client import LoadgenConfig, LoadgenReport, run_loadgen
from repro.serving.frames import FrameBank
from repro.serving.protocol import (
    PROTOCOL_MAGIC,
    Ack,
    Bye,
    Frame,
    Hello,
    MessageDecoder,
    StreamSetup,
    Welcome,
    encode_message,
)
from repro.serving.server import ServeConfig, ServerReport, StreamServer
from repro.serving.cli import loadgen_main, serve_main
from repro.streaming.traces import BandwidthTrace
from serving_support import assert_conserved, synthetic_bank

#: A tiny synthetic ladder: every frame offers the same five sizes.
SIZES = (80_000, 40_000, 20_000, 10_000, 5_000)

#: Heavyweight ladder for the backpressure tests: even the min rung
#: (50 KB/frame) outweighs the throttled client's channel many times
#: over and is larger than its send window, so each frame waits for
#: the previous one's ACK and the send queue backs up into the
#: deadline.
HEAVY_SIZES = (2_000_000, 1_000_000, 800_000, 600_000, 400_000)


def _bank(sizes=SIZES) -> FrameBank:
    return synthetic_bank([sizes])


async def _serve_and_load(config: ServeConfig, load: LoadgenConfig):
    server = StreamServer(config)
    await server.start()
    try:
        load = dataclasses.replace(load, host=config.host, port=server.port)
        loadgen = await run_loadgen(load)
    finally:
        report = await server.stop()
    return report, loadgen


class TestHappyPath:
    def test_multi_client_stream_completes_cleanly(self):
        setup = StreamSetup(
            scene="synthetic", target_fps=100.0, n_frames=10, controller="throughput"
        )
        report, loadgen = asyncio.run(
            _serve_and_load(
                ServeConfig(bank=_bank(), port=0),
                LoadgenConfig(setup=setup, n_clients=4, timeout_s=30.0),
            )
        )
        assert loadgen.completed_clients == 4
        assert loadgen.protocol_errors == 0
        assert report.protocol_errors == 0
        assert report.frames_sent == 40
        assert report.dropped_frames == 0
        assert_conserved(report, 10)
        # Unthrottled loopback never pressures the controller off the
        # best rung.
        assert report.rung_occupancy.get("nocom", 0.0) == pytest.approx(1.0)

    def test_server_report_round_trips_as_json(self):
        setup = StreamSetup(scene="synthetic", target_fps=100.0, n_frames=5)
        report, _ = asyncio.run(
            _serve_and_load(
                ServeConfig(bank=_bank(), port=0),
                LoadgenConfig(setup=setup, n_clients=2, timeout_s=30.0),
            )
        )
        rebuilt = ServerReport.from_json(report.to_json())
        assert rebuilt == report
        assert rebuilt.summary() == report.summary()
        assert_conserved(report, 5)


class TestServeConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("nominal_bandwidth_mbps", math.nan),
            ("nominal_bandwidth_mbps", math.inf),
            ("deadline_s", 0.0),
            ("deadline_s", math.nan),
            ("deadline_s", math.inf),
            ("deadline_s", None),
            ("send_stall_timeout_s", math.nan),
            ("send_stall_timeout_s", None),
            ("drain_grace_s", -1.0),
            ("drain_grace_s", math.nan),
        ],
    )
    def test_rejects_non_finite_and_out_of_range_values(self, field, value):
        # A NaN or infinite deadline would leave the send window
        # unbounded and never drop a frame.
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ServeConfig(bank=_bank(), **{field: value})


class TestBackpressure:
    def test_throttled_fleet_engages_deadline_drops(self):
        # The acceptance scenario of the serving subsystem: 64 clients
        # each consuming at 2 Mbps while even the min rung wants
        # 200 ms/frame against a 20 ms interval.  The send window (one
        # deadline of the 2 Mbps hint) admits a frame only once the
        # previous one is ACKed, the send queue backs up, and frames
        # still unsent past the 100 ms deadline are dropped.
        setup = StreamSetup(
            scene="synthetic", target_fps=50.0, n_frames=40, controller="throughput"
        )
        config = ServeConfig(
            bank=_bank(HEAVY_SIZES),
            port=0,
            phy_trace=BandwidthTrace([0.0], [2.0]),
            deadline_s=0.1,
            queue_frames=8,
            drain_grace_s=2.0,
        )
        load = LoadgenConfig(
            setup=setup,
            n_clients=64,
            trace=BandwidthTrace([0.0], [2.0]),
            chunk_bytes=4096,
            connect_stagger_s=0.0,
            timeout_s=60.0,
        )
        report, loadgen = asyncio.run(_serve_and_load(config, load))
        assert report.n_clients == 64
        assert loadgen.protocol_errors == 0
        assert report.protocol_errors == 0
        # Backpressure engaged: late frames were shed, not sent.
        assert report.deadline_drops >= 1
        assert report.frames_sent > 0
        assert report.frames_sent + report.dropped_frames <= 64 * 40
        # The report carries the serving-health vocabulary.
        assert report.tail_latency_s(95.0) > 0.0
        occupancy = report.rung_occupancy
        assert occupancy and abs(sum(occupancy.values()) - 1.0) < 1e-9
        # Sustained starvation pins the controller to the min-payload
        # rung.
        assert occupancy.get("perceptual", 0.0) > 0.5
        assert_conserved(report, 40)

    def test_bye_pipelined_behind_hello_ends_the_stream(self):
        # A BYE in the same TCP segment as the HELLO must not vanish
        # with the handshake decoder: the server should end the stream
        # early instead of pacing all 500 frames at a departed client.
        async def run():
            server = StreamServer(ServeConfig(bank=_bank(), port=0))
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                setup = StreamSetup(
                    scene="synthetic", target_fps=100.0, n_frames=500
                )
                writer.write(
                    encode_message(Hello(setup=setup))
                    + encode_message(Bye(reason="changed my mind"))
                )
                await writer.drain()
                while await reader.read(4096):  # drain until server closes
                    pass
                writer.close()
                await writer.wait_closed()
            finally:
                report = await server.stop()
            return report

        report = asyncio.run(run())
        assert report.n_clients == 1
        assert report.protocol_errors == 0
        # 500 frames at the 10 KB top rung would be ~5 MB; a server
        # that saw the BYE stops within the first frames.
        assert report.clients[0].bytes_sent < 500_000, (
            "server streamed past the client's BYE"
        )

    def test_stalled_client_trips_send_watchdog(self):
        # A client that handshakes and then never reads wedges
        # ``drain()`` once kernel and transport buffers fill, or holds
        # the send window shut, whichever comes first; the watchdog must
        # abort the connection instead of pinning it (and its bank
        # payloads) until server shutdown.
        async def run():
            config = ServeConfig(
                bank=_bank(HEAVY_SIZES),
                port=0,
                queue_frames=4,
                drain_grace_s=0.2,
                send_stall_timeout_s=0.3,
            )
            server = StreamServer(config)
            await server.start()
            loop = asyncio.get_running_loop()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                setup = StreamSetup(
                    scene="synthetic", target_fps=100.0, n_frames=200
                )
                writer.write(encode_message(Hello(setup=setup)))
                await writer.drain()
                # Never read.  Without the watchdog the connection only
                # finishes at shutdown, so poll the *live* report.
                deadline = loop.time() + 10.0
                while server.report().n_clients == 0 and loop.time() < deadline:
                    await asyncio.sleep(0.05)
                report = server.report()
                writer.close()
            finally:
                await server.stop()
            return report

        report = asyncio.run(run())
        assert report.n_clients == 1, "stalled drain pinned the connection"
        assert report.clients[0].deadline_drops > 0

    def test_window_holds_frames_a_client_never_acks(self):
        # A client that reads every byte at loopback speed but never
        # ACKs keeps the socket buffers empty, so ``drain()`` never
        # blocks and only the ACK-clocked window can hold the sender
        # back.  At a 2 Mbps hint and a 100 ms deadline the window is
        # 25,000 bytes, less than one 50,023-byte min-rung frame: the
        # first frame goes out alone and every later one waits for an
        # ACK that never comes, until the watchdog ends the wait.
        async def run():
            server = StreamServer(_window_config(send_stall_timeout_s=1.0))
            await server.start()
            loop = asyncio.get_running_loop()
            frames: list[Frame] = []
            try:
                writer, consumer = await _never_acking_client(
                    server, frames, target_fps=50.0, n_frames=40
                )
                # A window wait that never ends pins the connection
                # until shutdown, so poll the *live* report.
                deadline = loop.time() + 10.0
                while server.report().n_clients == 0 and loop.time() < deadline:
                    await asyncio.sleep(0.05)
                report = server.report()
                await asyncio.wait_for(consumer, 5.0)
                writer.close()
            finally:
                await server.stop()
            return report, frames

        report, frames = asyncio.run(run())
        assert report.n_clients == 1, "a client that never ACKs pinned the connection"
        assert len(frames) == 1, "frames went out past a shut send window"
        assert report.frames_sent == 0
        assert report.dropped_frames == 40 - len(frames)
        assert report.clients[0].deadline_drops > 0
        # The one frame written and never ACKed is in flight at close,
        # so every paced frame has an outcome.
        assert report.in_flight_at_close == len(frames)
        assert report.frames_sent + report.dropped_frames + report.in_flight_at_close == 40
        assert_conserved(report, 40)

    def test_stop_accounts_for_frames_it_cancels(self):
        # The window test's client, stopped long before the default
        # 10 s watchdog: 20 frames at 100 fps are all paced within
        # 0.2 s, frame 0 goes out, one
        # frame is held at the window, eight wait in the queue and the
        # rest are queue drops.  stop() then cancels the connection;
        # the held and queued frames are deadline drops, not lost.
        async def run():
            server = StreamServer(_window_config(drain_grace_s=0.2))
            await server.start()
            frames: list[Frame] = []
            try:
                writer, consumer = await _never_acking_client(
                    server, frames, target_fps=100.0, n_frames=20
                )
                await asyncio.sleep(0.5)
            finally:
                report = await server.stop()
            await asyncio.wait_for(consumer, 5.0)
            writer.close()
            return report, frames

        report, frames = asyncio.run(run())
        assert report.unclean_closes == 1
        assert report.n_clients == 1
        assert_conserved(report, 20)
        client = report.clients[0]
        assert len(frames) == 1 and client.in_flight_at_close == 1
        assert client.queue_drops > 0 and client.deadline_drops > 0

    def test_unknown_scene_is_rejected_at_handshake(self):
        hello = Hello(setup=StreamSetup(scene="not-in-the-bank"))
        messages, _ = _handshake(_bank(), encode_message(hello))
        assert messages, "server closed without answering the HELLO"
        assert not isinstance(messages[0], Welcome)

    def test_wrong_resolution_is_rejected_at_handshake(self):
        """A bank encoded at 16x16 must not serve a 96x96 request: a
        decoder would read its payloads at the wrong shape."""
        bank = FrameBank.from_scene("office", n_frames=1, height=16, width=16)
        setup = StreamSetup(
            scene="office", height=96, width=96, target_fps=100.0, n_frames=4
        )
        messages, report = _handshake(bank, encode_message(Hello(setup=setup)))
        assert messages, "server closed without answering the HELLO"
        assert isinstance(messages[0], Bye)
        assert "96x96" in messages[0].reason and "16x16" in messages[0].reason
        assert report.handshake_errors == 1
        assert report.n_clients == 0

    def test_hello_without_version_is_refused(self):
        """A HELLO body that names no version reads as version 0, which
        the server refuses with a BYE and one handshake error."""
        setup = dataclasses.asdict(StreamSetup(scene="synthetic", n_frames=4))
        body = json.dumps({"client_name": "old", "setup": setup}).encode()
        hello = struct.pack(">2sBI", PROTOCOL_MAGIC, 0x01, len(body)) + body
        messages, report = _handshake(_bank(), hello)
        assert messages == [Bye(reason="unsupported protocol version 0")]
        assert report.handshake_errors == 1
        assert report.n_clients == 0


def _window_config(**overrides) -> ServeConfig:
    """Heavy frames against a 25,000-byte send window (2 Mbps x 0.1 s)."""
    return ServeConfig(
        bank=_bank(HEAVY_SIZES),
        port=0,
        phy_trace=BandwidthTrace([0.0], [2.0]),
        deadline_s=0.1,
        queue_frames=8,
        **overrides,
    )


async def _never_acking_client(server, frames: list, target_fps: float, n_frames: int):
    """Connect a client that reads every frame into ``frames`` and ACKs
    none; return its writer and the task reading the stream."""

    async def consume(reader):
        decoder = MessageDecoder()
        try:
            while data := await reader.read(65536):
                frames.extend(m for m in decoder.feed(data) if isinstance(m, Frame))
        except (ConnectionError, OSError):
            pass  # an aborted transport resets the connection

    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    setup = StreamSetup(
        scene="synthetic", target_fps=target_fps, n_frames=n_frames,
        controller="throughput",
    )
    writer.write(encode_message(Hello(setup=setup)))
    await writer.drain()
    return writer, asyncio.create_task(consume(reader))


def _handshake(bank: FrameBank, hello: bytes) -> tuple[list, ServerReport]:
    """Send raw ``hello`` bytes to a fresh server; return the messages
    answering it and the server's report."""

    async def run():
        server = StreamServer(ServeConfig(bank=bank, port=0))
        await server.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(hello)
            await writer.drain()
            decoder = MessageDecoder()
            messages = []
            while not messages:
                data = await reader.read(4096)
                if not data:
                    break
                messages.extend(decoder.feed(data))
            writer.close()
            await writer.wait_closed()
        finally:
            report = await server.stop()
        return messages, report

    return asyncio.run(asyncio.wait_for(run(), 30.0))


async def _receive_frames(config: ServeConfig, setup: StreamSetup) -> list[Frame]:
    """Stream one session to a raw client that ACKs every frame."""
    server = StreamServer(config)
    await server.start()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(encode_message(Hello(setup=setup)))
        await writer.drain()
        decoder = MessageDecoder()
        frames: list[Frame] = []
        done = False
        while not done:
            data = await reader.read(65536)
            if not data:
                break
            for message in decoder.feed(data):
                if isinstance(message, Frame):
                    frames.append(message)
                    writer.write(encode_message(Ack(message.frame_index, 0.0)))
                elif isinstance(message, Bye):
                    done = True
            await writer.drain()
        writer.close()
        await writer.wait_closed()
    finally:
        report = await server.stop()
    assert_conserved(report, setup.n_frames)
    return frames


def _decode_eye(codec, data: bytes, grid: TileGrid) -> np.ndarray:
    # Decoders take exactly one stream (trailing bytes are rejected) and
    # check its header against the grid; the size breakdown is unused.
    if isinstance(codec, VariableBDCodec):
        return codec.decode(VariableEncodedFrame(data, grid, codec.group_size, None))
    return codec.decode(BDStream(data, grid, None))


class TestServedPayloads:
    """A client decodes what the server sends back to the rendered eyes."""

    SIZE = 32

    @pytest.fixture(scope="class")
    def bank(self):
        return FrameBank.from_scene(
            "office", n_frames=2, height=self.SIZE, width=self.SIZE
        )

    @pytest.mark.parametrize(
        "rung, codec",
        [("bd", BDCodec(4)), ("variable-bd", VariableBDCodec(4, 4))],
        ids=["bd", "variable-bd"],
    )
    def test_pinned_rung_payloads_decode_to_both_eyes(self, bank, rung, codec):
        setup = StreamSetup(
            scene="office", height=self.SIZE, width=self.SIZE, target_fps=100.0,
            n_frames=4, controller="fixed", start_rung=rung,
        )
        frames = asyncio.run(
            asyncio.wait_for(_receive_frames(ServeConfig(bank=bank, port=0), setup), 30.0)
        )
        assert [frame.frame_index for frame in frames] == [0, 1, 2, 3]
        grid = TileGrid(self.SIZE, self.SIZE, 4)
        scene = get_scene("office")
        for frame in frames:
            assert frame.rung == bank.ladder.index_of(rung)
            eyes = scene.render_stereo(
                self.SIZE, self.SIZE, frame=frame.frame_index % bank.n_unique_frames
            )
            # The payload is the left eye's stream, then the right's; the
            # rendered left eye's stream length says where the right one
            # starts, and each part must decode as exactly one stream.
            expected = [encode_srgb8(eye) for eye in eyes]
            split = len(codec.encode(expected[0]).data)
            left = _decode_eye(codec, frame.payload[:split], grid)
            right = _decode_eye(codec, frame.payload[split:], grid)
            np.testing.assert_array_equal(left, expected[0])
            np.testing.assert_array_equal(right, expected[1])


class TestCli:
    def test_loadgen_spawn_server_smoke(self, capsys, tmp_path):
        # The single-process smoke the CI job runs, scaled down.
        report_path = tmp_path / "loadgen.json"
        code = loadgen_main(
            [
                "--spawn-server",
                "--clients", "3",
                "--fps", "100",
                "--frames", "6",
                "--scene", "office",
                "--height", "32",
                "--width", "32",
                "--bank-frames", "2",
                "--report", str(report_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "3/3 clients completed" in out
        assert "0 protocol errors" in out
        rebuilt = LoadgenReport.from_json(report_path.read_text())
        assert rebuilt.frames_received == 18
        data = json.loads(report_path.read_text())
        assert data["report"] == "loadgen"

    def test_loadgen_against_missing_server_fails(self):
        code = loadgen_main(
            ["--port", "1", "--clients", "1", "--frames", "1", "--timeout", "2"]
        )
        assert code == 1

    def test_serve_idle_duration_run(self, capsys, tmp_path):
        # A --duration serve boots, idles, shuts down cleanly, and
        # writes an (empty) report.
        report_path = tmp_path / "server.json"
        code = serve_main(
            [
                "--port", "0",
                "--scene", "office",
                "--height", "32",
                "--width", "32",
                "--bank-frames", "1",
                "--duration", "0.2",
                "--report", str(report_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "serving 'office'" in out
        rebuilt = ServerReport.from_json(report_path.read_text())
        assert rebuilt.n_clients == 0

    @pytest.mark.parametrize(
        "main, argv",
        [
            (serve_main, ["--port", "0", "--bank-frames", "1", "--duration", "0.1"]),
            (loadgen_main, ["--port", "1", "--frames", "1", "--timeout", "2"]),
        ],
        ids=["serve", "loadgen"],
    )
    def test_bank_jobs_flag_is_rejected(self, main, argv, capsys):
        # Banks encode serially; argparse refuses the flag before any
        # bank is built or socket opened.
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", "2", *argv])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_bad_scene_exits_2(self, capsys):
        assert serve_main(["--scene", "no-such-scene"]) == 2
        assert "repro serve:" in capsys.readouterr().err

    @pytest.mark.parametrize("main", [serve_main, loadgen_main], ids=["serve", "loadgen"])
    def test_deadline_zero_exits_2(self, main, capsys):
        # Every frame has a deadline, so 0 is out of range; the error
        # names the field it rejects.
        argv = ["--deadline", "0", "--port", "0", "--bank-frames", "1",
                "--height", "16", "--width", "16"]
        # A stream length, so that accepting the flag ends the run.
        argv += ["--duration", "0.1"] if main is serve_main else ["--spawn-server", "--frames", "1"]
        assert main(argv) == 2
        assert "deadline_s must be positive and finite" in capsys.readouterr().err
