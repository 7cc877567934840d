"""``repro serve`` / ``repro loadgen``: the serving stack on the shell.

Both commands are dispatched from :func:`repro.cli.main` before the
experiment machinery, so the serving stack needs no experiment
scaffolding::

    # terminal 1: encode a bank and serve it
    python -m repro serve --scene office --port 9900 --trace step:40:8:2

    # terminal 2: 8 throttled clients for ~5 seconds
    python -m repro loadgen --port 9900 --clients 8 --duration 5

``loadgen --spawn-server`` boots the server in-process first — one
command, one process, clean shutdown — which is what the CI smoke job
runs.  Both commands print a one-line summary and can write their full
report as JSON (``--report PATH``) in the shared
:mod:`repro.streaming.reports` format.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import math
import signal
import sys

from ..streaming.adaptive import CONTROLLER_CHOICES
from ..streaming.traces import parse_trace_spec
from .chaos import parse_chaos_spec
from .client import LoadgenConfig, LoadgenReport, run_loadgen
from .frames import FrameBank
from .protocol import StreamSetup
from .server import ServeConfig, ServerReport, StreamServer

__all__ = ["serve_main", "loadgen_main"]


def _write_report(path: str, report) -> None:
    """Serialize a report to ``path``.

    Sync on purpose: called after ``asyncio.run`` returns, so the
    blocking file write never shares a thread with the event loop
    (RPR301/RPR303 stay structurally impossible here).
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(report.to_json())
    print(f"report written to {path}", flush=True)


def _bank_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("frame bank")
    group.add_argument("--scene", default="office", help="scene to encode and serve")
    group.add_argument(
        "--bank-frames", type=int, default=4, metavar="N",
        help="unique frames to pre-encode (streams cycle over them)",
    )
    group.add_argument("--height", type=int, default=96, help="per-eye frame height")
    group.add_argument("--width", type=int, default=96, help="per-eye frame width")


def _build_bank(args: argparse.Namespace) -> FrameBank:
    return FrameBank.from_scene(
        args.scene,
        n_frames=args.bank_frames,
        height=args.height,
        width=args.width,
    )


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Stream a pre-encoded frame bank to adaptive clients over TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=9900, help="bind port (0 picks a free one)"
    )
    _bank_arguments(parser)
    link = parser.add_argument_group("link model")
    link.add_argument(
        "--bandwidth", type=float, default=400.0, metavar="MBPS",
        help="nominal PHY rate reported to controllers",
    )
    link.add_argument(
        "--trace", default=None, metavar="SPEC",
        help="time-varying PHY-rate hint, e.g. step:40:8:2 or const:MBPS "
             "(evaluated at per-stream session time)",
    )
    policy = parser.add_argument_group("serving policy")
    policy.add_argument(
        "--deadline", type=float, default=0.25, metavar="S",
        help="drop frames still queued this long after ready (0 disables)",
    )
    policy.add_argument(
        "--queue", type=int, default=32, metavar="FRAMES",
        help="per-client send-queue capacity",
    )
    policy.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="fault injection on outgoing frames, e.g. "
             "drop=0.05,delay=0.1:25,reset=0.02,seed=7",
    )
    parser.add_argument(
        "--duration", type=float, default=None, metavar="S",
        help="shut down after this long (default: run until SIGINT)",
    )
    parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the ServerReport as JSON on shutdown",
    )
    return parser


def _serve_config(args: argparse.Namespace, bank: FrameBank) -> ServeConfig:
    trace = parse_trace_spec(args.trace) if args.trace else None
    return ServeConfig(
        bank=bank,
        host=args.host,
        port=args.port,
        nominal_bandwidth_mbps=args.bandwidth,
        phy_trace=trace,
        deadline_s=None if args.deadline == 0 else args.deadline,
        queue_frames=args.queue,
        chaos=parse_chaos_spec(args.chaos) if args.chaos else None,
    )


def serve_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro serve``; returns a process exit code."""
    args = _serve_parser().parse_args(argv)
    try:
        bank = _build_bank(args)
        config = _serve_config(args, bank)
    except (ValueError, KeyError, OSError) as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2

    # Probe the report path up front so a bad one fails before the
    # server ever binds.
    report_path = args.report
    if report_path:
        try:
            with open(report_path, "w", encoding="utf-8"):
                pass
        except OSError as exc:
            print(f"repro serve: cannot write --report: {exc}", file=sys.stderr)
            return 2

    async def run_server() -> ServerReport:
        server = StreamServer(config)
        await server.start()
        print(
            f"serving {config.bank.scene_name!r} "
            f"({config.bank.n_unique_frames} frames x "
            f"{len(config.bank.ladder)} rungs) on {config.host}:{server.port}",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(signum, stop.set)
        if args.duration is not None:
            loop.call_later(args.duration, stop.set)
        await stop.wait()
        report = await server.stop()
        print(report.summary(), flush=True)
        return report

    try:
        report = asyncio.run(run_server())
    except KeyboardInterrupt:
        return 130
    if report_path:
        _write_report(report_path, report)
    # `clean` also covers handshake errors and unclean (cancelled)
    # stream shutdowns — injected chaos never counts against it.
    return 0 if report.clean else 1


def _loadgen_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro loadgen",
        description="Throttled streaming clients against a repro serve instance.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="server address")
    parser.add_argument("--port", type=int, default=9900, help="server port")
    parser.add_argument(
        "--clients", type=int, default=1, metavar="N", help="concurrent connections"
    )
    stream = parser.add_argument_group("stream request")
    # --scene / --height / --width double as the stream request and the
    # spawned server's bank setup; they arrive via _bank_arguments.
    stream.add_argument(
        "--fps", type=float, default=30.0, help="frame cadence to request"
    )
    length = stream.add_mutually_exclusive_group()
    length.add_argument(
        "--frames", type=int, default=None, metavar="N", help="frames per stream"
    )
    length.add_argument(
        "--duration", type=float, default=None, metavar="S",
        help="stream length in seconds (converted to frames at --fps)",
    )
    stream.add_argument(
        "--controller", choices=CONTROLLER_CHOICES, default="throughput",
        help="rate controller each stream runs under",
    )
    shaping = parser.add_argument_group("client channel")
    shaping.add_argument(
        "--trace", default=None, metavar="SPEC",
        help="per-client read-throttle trace, e.g. const:20 or step:40:8:2",
    )
    shaping.add_argument(
        "--chunk", type=int, default=4096, metavar="BYTES", help="socket read size"
    )
    parser.add_argument(
        "--timeout", type=float, default=60.0, metavar="S",
        help="per-client overall timeout, spanning reconnect attempts",
    )
    parser.add_argument(
        "--reconnects", type=int, default=0, metavar="N",
        help="reconnect attempts per client after a mid-stream loss "
             "(capped exponential backoff between attempts)",
    )
    parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the LoadgenReport as JSON",
    )
    spawn = parser.add_argument_group(
        "self-hosting (boot an in-process server first)"
    )
    spawn.add_argument(
        "--spawn-server", action="store_true",
        help="start an in-process repro serve on --host with an ephemeral "
             "port and run the load against it (single-process smoke mode)",
    )
    _bank_arguments(parser)
    spawn.add_argument(
        "--server-trace", default=None, metavar="SPEC",
        help="spawned server's PHY-rate hint trace",
    )
    spawn.add_argument(
        "--server-bandwidth", type=float, default=400.0, metavar="MBPS",
        help="spawned server's nominal PHY rate",
    )
    spawn.add_argument(
        "--deadline", type=float, default=0.25, metavar="S",
        help="spawned server's frame deadline (0 disables)",
    )
    spawn.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="spawned server's fault injection, e.g. "
             "drop=0.05,delay=0.1:25,reset=0.02,seed=7",
    )
    return parser


def loadgen_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro loadgen``; returns a process exit code."""
    args = _loadgen_parser().parse_args(argv)
    if args.frames is not None:
        n_frames = args.frames
    elif args.duration is not None:
        n_frames = max(1, math.ceil(args.duration * args.fps))
    else:
        n_frames = max(1, math.ceil(2.0 * args.fps))  # 2 s default
    try:
        setup = StreamSetup(
            scene=args.scene,
            height=args.height,
            width=args.width,
            target_fps=args.fps,
            n_frames=n_frames,
            controller=args.controller,
        )
        trace = parse_trace_spec(args.trace) if args.trace else None
    except (ValueError, OSError) as exc:
        print(f"repro loadgen: {exc}", file=sys.stderr)
        return 2

    async def run() -> "tuple[LoadgenReport, ServerReport | None] | int":
        server = None
        port = args.port
        if args.spawn_server:
            try:
                bank = _build_bank(args)
                server_trace = (
                    parse_trace_spec(args.server_trace) if args.server_trace else None
                )
                server_config = ServeConfig(
                    bank=bank,
                    host=args.host,
                    port=0,
                    nominal_bandwidth_mbps=args.server_bandwidth,
                    phy_trace=server_trace,
                    deadline_s=None if args.deadline == 0 else args.deadline,
                    chaos=parse_chaos_spec(args.chaos) if args.chaos else None,
                )
            except (ValueError, KeyError, OSError) as exc:
                print(f"repro loadgen: {exc}", file=sys.stderr)
                return 2
            server = StreamServer(server_config)
            await server.start()
            port = server.port
            print(f"spawned server on {args.host}:{port}", flush=True)
        config = LoadgenConfig(
            host=args.host,
            port=port,
            setup=setup,
            n_clients=args.clients,
            trace=trace,
            chunk_bytes=args.chunk,
            timeout_s=args.timeout,
            max_reconnects=args.reconnects,
        )
        report = await run_loadgen(config)
        print(report.summary(), flush=True)
        server_report = None
        if server is not None:
            server_report = await server.stop()
            print(server_report.summary(), flush=True)
        return report, server_report

    try:
        result = asyncio.run(run())
    except KeyboardInterrupt:
        return 130
    if isinstance(result, int):
        return result
    report, server_report = result
    if args.report:
        _write_report(args.report, report)
    failed = (
        report.protocol_errors > 0
        or report.frames_received == 0
        or report.completed_clients == 0
        or (server_report is not None and not server_report.clean)
    )
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - manual entry
    raise SystemExit(serve_main())
