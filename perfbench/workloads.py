"""The benchmark's four workloads.

Every input is generated here from the run's seed; the program under
test receives only those inputs.  Compute workloads draw their inputs
from small fixed pools whose correct outputs are pinned in
``pinned.json``, so any seed can be checked exactly.  See
``PROVENANCE.md`` for why each workload exists.

Each compute workload exposes ``run(k)`` (the timed operation ``k``)
and ``check(k, raw)`` (untimed verification returning an
:class:`OpResult`).  ``serve-fade`` is one open-loop session instead.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro.codecs.context import FrameContext
from repro.codecs.ladder import QualityLadder
from repro.encoding.bd import BDCodec
from repro.encoding.bd import EncodedFrame as BDStream
from repro.encoding.bd_variable import VariableBDCodec, VariableEncodedFrame
from repro.experiments.common import ExperimentConfig
from repro.experiments.fleet import run_fleet
from repro.scenes.display import QUEST2_DISPLAY
from repro.scenes.library import SCENE_NAMES, get_scene
from repro.serving.client import LoadgenConfig, run_loadgen
from repro.serving.frames import FrameBank
from repro.serving.protocol import StreamSetup
from repro.serving.server import ServeConfig, StreamServer
from repro.streaming.adaptive import get_controller
from repro.streaming.engine import (
    AdaptationState,
    PrecomputedSource,
    StreamingEngine,
    StreamSpec,
)
from repro.streaming.link import WirelessLink
from repro.streaming.loss import LossTrace
from repro.streaming.traces import BandwidthTrace

#: Tolerance on the perceptual guarantee, as in the tier-1 tests.
MAHALANOBIS_LIMIT = 1.0 + 1e-9

#: Bank shared by fleet-sim and serve-fade: one scene, fixed content.
BANK_SCENE = "office"
BANK_FRAMES = 4
BANK_SIZE = 192


@dataclass
class OpResult:
    """What one operation produced, as the metrics need it."""

    digest: str
    problems: list[str] = field(default_factory=list)
    client_frames: int = 0
    eye_pixels: int = 0  # per-eye pixels of the client frames produced
    perceptual_bits: int = 0
    perceptual_pixels: int = 0
    group: str = ""  # content class; bits per pixel is averaged per class
    counters: dict[str, float] = field(default_factory=dict)


def sha256(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, (bytes, bytearray)) else str(part).encode())
    return digest.hexdigest()


def bank_digest(bank: FrameBank) -> str:
    frames = range(bank.n_unique_frames)
    return sha256(
        json.dumps(bank.rung_streams),
        *(bank.payload(f, r) for f in frames for r in range(len(bank.ladder))),
    )


def build_bank() -> FrameBank:
    return FrameBank.from_scene(
        BANK_SCENE, n_frames=BANK_FRAMES, height=BANK_SIZE, width=BANK_SIZE
    )


def check_bank(bank: FrameBank, pins: dict) -> list[str]:
    if [list(frame) for frame in bank.rung_streams] != pins.get("bank"):
        return ["bank rung sizes differ from the pinned values"]
    return []


# -- encode-512 ------------------------------------------------------------


def encode_pool_item(j: int) -> tuple[int, tuple[float, float]]:
    """Frame index and gaze fixation of pool item ``j`` (every one distinct)."""
    fx = 0.2 + 0.6 * ((0.618034 * (j + 1)) % 1.0)
    fy = 0.25 + 0.5 * ((0.754878 * (j + 1)) % 1.0)
    return 7 * j, (round(fx, 3), round(fy, 3))


class Encode512:
    """Distinct stereo frames at 512² per eye through the whole ladder."""

    name = "encode-512"
    size = 512
    items_per_scene = 12
    round_ops = len(SCENE_NAMES)

    def __init__(self, seed: int, pins: dict):
        rng = np.random.default_rng(seed)
        # Frames visit the scenes round-robin, so every run covers the
        # content mix evenly; the seed picks which frame and gaze each
        # scene contributes, never repeating one within a run.
        self.order = {
            scene: [int(j) for j in rng.permutation(self.items_per_scene)]
            for scene in SCENE_NAMES
        }
        self.pins = pins.get(self.name, {})
        self.ladder = QualityLadder.default()
        self.codecs = []
        for rung in self.ladder:
            codec = rung.build()
            if hasattr(codec, "payload"):
                codec.payload = True
            self.codecs.append(codec)
        self.bd = BDCodec(4)
        self.variable_bd = VariableBDCodec(4, 4)
        self.warm_up()

    def warm_up(self) -> None:
        eyes = get_scene(SCENE_NAMES[0]).render_stereo(32, 32, frame=0)
        ecc = QUEST2_DISPLAY.eccentricity_map(32, 32)
        for codec in self.codecs:
            codec.encode(FrameContext(eyes[0], eccentricity=ecc, display=QUEST2_DISPLAY))

    def item(self, k: int) -> tuple[str, int, tuple[float, float]]:
        scene = SCENE_NAMES[k % len(SCENE_NAMES)]
        order = self.order[scene]
        frame, fixation = encode_pool_item(order[(k // len(SCENE_NAMES)) % len(order)])
        return scene, frame, fixation

    @staticmethod
    def key(scene: str, frame: int, fixation) -> str:
        return f"{scene}/{frame}/{fixation[0]:.3f},{fixation[1]:.3f}"

    def run(self, k: int):
        scene, frame, fixation = self.item(k)
        size = self.size
        eyes = get_scene(scene).render_stereo(size, size, frame=frame)
        ecc = QUEST2_DISPLAY.eccentricity_map(size, size, fixation=fixation)
        ctxs = [FrameContext(eye, eccentricity=ecc, display=QUEST2_DISPLAY) for eye in eyes]
        return ctxs, [[codec.encode(ctx) for ctx in ctxs] for codec in self.codecs]

    def check(self, k: int, raw) -> OpResult:
        ctxs, encoded = raw
        key = self.key(*self.item(k))
        bits = [int(sum(e.total_bits for e in per_eye)) for per_eye in encoded]
        problems = []
        if bits != self.pins.get(key):
            problems.append(f"{key}: rung bits {bits} != pinned {self.pins.get(key)}")
        names = self.ladder.names
        parts = [json.dumps(bits)]
        for name, per_eye in zip(names, encoded):
            for ctx, result in zip(ctxs, per_eye):
                payload = result.metadata.get("payload")
                if name == "bd":
                    stream = BDStream(payload, ctx.tiles(4)[1], result.breakdown)
                    decoded = self.bd.decode(stream)
                elif name == "variable-bd":
                    stream = VariableEncodedFrame(payload, ctx.tiles(4)[1], 4, result.breakdown)
                    decoded = self.variable_bd.decode(stream)
                else:
                    decoded = None
                if decoded is not None:
                    parts.append(payload)
                    if not np.array_equal(decoded, ctx.srgb8):
                        problems.append(f"{key}: {name} payload does not decode to the input")
                if name == "perceptual":
                    parts.append(result.adjusted_srgb.tobytes())
                    if not result.max_mahalanobis <= MAHALANOBIS_LIMIT:
                        problems.append(
                            f"{key}: max Mahalanobis {result.max_mahalanobis} > 1"
                        )
        n_eye_pixels = sum(ctx.n_pixels for ctx in ctxs)
        return OpResult(
            digest=sha256(*parts),
            problems=problems,
            client_frames=1,
            eye_pixels=n_eye_pixels,
            perceptual_bits=bits[names.index("perceptual")],
            perceptual_pixels=n_eye_pixels,
            group=key.split("/")[0],
            counters={"eyes": len(ctxs)},
        )


# -- fleet-64 --------------------------------------------------------------


class Fleet64:
    """``repro fleet --clients 64`` at 192²: clients share scenes and frames."""

    name = "fleet-64"
    n_clients = 64
    size = 192
    n_frames = 2
    pool = 8
    round_ops = 3  # median and tail need more than the two ops 20 s would fit

    def __init__(self, seed: int, pins: dict):
        self.start = seed % self.pool
        self.pins = pins.get(self.name, {})
        run_fleet(ExperimentConfig(height=16, width=16, n_frames=1, seed=0), n_clients=2)

    def gaze_seed(self, k: int) -> int:
        return (self.start + k) % self.pool

    def run(self, k: int):
        config = ExperimentConfig(
            height=self.size, width=self.size, n_frames=self.n_frames, seed=self.gaze_seed(k)
        )
        return run_fleet(config, n_clients=self.n_clients).report

    def check(self, k: int, report) -> OpResult:
        digest = sha256(report.to_json())
        pinned = self.pins.get(str(self.gaze_seed(k)))
        problems = [] if digest == pinned else [f"fleet report digest {digest} != pinned {pinned}"]
        eye_pixels = 2 * self.size * self.size
        frames = [f for client in report.clients for f in client.frames]
        perceptual = [
            f for client in report.clients if client.encoder == "perceptual" for f in client.frames
        ]
        return OpResult(
            digest=digest,
            problems=problems,
            client_frames=len(frames),
            eye_pixels=eye_pixels * len(frames),
            perceptual_bits=sum(f.payload_bits for f in perceptual),
            perceptual_pixels=eye_pixels * len(perceptual),
        )


# -- fleet-sim -------------------------------------------------------------


def outcomes_digest(outcomes) -> str:
    """Digest of the simulated outcome: frame timings, adaptation, loss."""
    rows = []
    for outcome in outcomes:
        adaptive = outcome.adaptive
        loss = outcome.loss
        rows.append(
            {
                "name": outcome.name,
                "frames": [
                    [
                        f.frame_index, f.payload_bits, repr(f.encode_time_s),
                        repr(f.serialization_time_s), repr(f.transmit_time_s), f.rung,
                    ]
                    for f in outcome.frames
                ],
                "adaptive": None if adaptive is None else [
                    adaptive.rung_switches, repr(adaptive.stall_time_s),
                    repr(adaptive.mean_quality),
                    sorted((k, repr(v)) for k, v in adaptive.time_in_rung.items()),
                ],
                "loss": None if loss is None else [
                    loss.frames_displayed, loss.frames_lost, loss.resyncs,
                    repr(loss.recovery_time_s), loss.retransmits,
                    loss.packets_sent, loss.packets_lost,
                ],
            }
        )
    return sha256(json.dumps(rows))


class FleetSim:
    """The streaming engine alone, on precomputed ladder sizes."""

    name = "fleet-sim"
    n_streams = 16
    n_frames = 720  # 10 s at 72 fps
    fps = 72.0
    pool = 6  # about one run's worth of ops
    round_ops = pool

    def __init__(self, seed: int, pins: dict):
        self.start = seed % self.pool
        self.pins = pins.get(self.name, {})
        self.bank = build_bank()
        self.setup_problems = check_bank(self.bank, pins)
        self.source = PrecomputedSource(self.bank.rung_streams)
        self.ladder = self.bank.ladder
        self.simulate(0, n_streams=2, n_frames=8)  # warm-up

    def pool_index(self, k: int) -> int:
        return (self.start + k) % self.pool

    def simulate(self, index: int, n_streams: int, n_frames: int):
        """One engine run of pool input ``index``."""
        rng = np.random.default_rng(1000 + index)
        # A fading link that stays out of permanent overload: sixteen
        # perceptual streams (~41 Mbps each) fit the low phase.
        trace = BandwidthTrace.square(
            1400.0, 700.0, float(rng.uniform(1.5, 2.5)), horizon_s=60.0
        )
        link = WirelessLink.traced(
            trace,
            propagation_ms=2.0,
            jitter_ms=0.5,
            loss=LossTrace.gilbert_elliott(2e-4, mean_burst_packets=4.0),
        )
        engine = StreamingEngine(link, scheduler="fair", recovery="arq")
        starts = np.sort(rng.uniform(0.0, 1.0, n_streams))
        controller = get_controller("throughput")
        specs = [
            StreamSpec(
                name=f"stream{i}",
                source=self.source,
                n_frames=n_frames,
                target_fps=self.fps,
                encode_time_s=self.bank.encode_time_s,
                start_s=float(starts[i]),
                adaptation=AdaptationState(controller, self.ladder, 0, 1.0 / self.fps),
            )
            for i in range(n_streams)
        ]
        return engine, engine.run(specs, seed=index)

    def run(self, k: int):
        return self.simulate(self.pool_index(k), self.n_streams, self.n_frames)

    def check(self, k: int, raw) -> OpResult:
        engine, outcomes = raw
        digest = outcomes_digest(outcomes)
        pinned = self.pins.get(str(self.pool_index(k)))
        problems = [] if digest == pinned else [f"outcome digest {digest} != pinned {pinned}"]
        eye_pixels = 2 * BANK_SIZE * BANK_SIZE
        frames = [f for o in outcomes for f in o.frames]
        perceptual = [f for f in frames if f.rung == "perceptual"]
        return OpResult(
            digest=digest,
            problems=problems,
            client_frames=len(frames),
            eye_pixels=eye_pixels * len(frames),
            perceptual_bits=sum(f.payload_bits for f in perceptual),
            perceptual_pixels=eye_pixels * len(perceptual),
            counters={
                "events": len(engine.last_events),
                "frames_lost": sum(o.loss.frames_lost for o in outcomes),
                "resyncs": sum(o.loss.resyncs for o in outcomes),
                "rung_switches": sum(o.adaptive.rung_switches for o in outcomes),
                "stall_s": sum(o.adaptive.stall_time_s for o in outcomes),
            },
        )


# -- serve-fade ------------------------------------------------------------


class ServeFade:
    """An in-process server and loadgen over loopback, open loop."""

    name = "serve-fade"
    n_clients = 2
    fps = 72.0
    high_mbps = 120.0
    low_mbps = 80.0
    chunk_bytes = 65536

    period_s = 2.0

    def __init__(self, seed: int, pins: dict):
        started = time.perf_counter()
        self.bank = build_bank()
        self.bank_build_s = time.perf_counter() - started
        self.setup_problems = check_bank(self.bank, pins)
        # The seed picks the bank frame the streams start on.
        shift = seed % self.bank.n_unique_frames
        order = [(shift + i) % self.bank.n_unique_frames for i in range(self.bank.n_unique_frames)]
        self.served = FrameBank(
            self.bank.ladder,
            [self.bank.rung_bits(f) for f in order],
            [[self.bank.payload(f, r) for r in range(len(self.bank.ladder))] for f in order],
            encode_time_s=self.bank.encode_time_s,
            scene_name=self.bank.scene_name,
            height=self.bank.height,
            width=self.bank.width,
        )

    #: Extra session time, so each of the three latency windows holds
    #: over 1000 frames (10 beyond p99) in a 20 s run.
    extra_s = 2.0

    def session(self, seconds: float, lag_probe: bool = False) -> dict:
        """Serve ``seconds + extra_s`` of frames to every client; return the outcome."""
        return asyncio.run(self._session(seconds + self.extra_s, lag_probe))

    async def _session(self, seconds: float, lag_probe: bool) -> dict:
        loop = asyncio.get_running_loop()
        n_frames = max(1, int(round(seconds * self.fps)))
        lags: list[float] = []
        stop = asyncio.Event()

        async def probe() -> None:
            # How late the shared loop (and so the server's pacer) ran.
            while not stop.is_set():
                due = loop.time() + 0.005
                await asyncio.sleep(0.005)
                lags.append(loop.time() - due)

        server = StreamServer(ServeConfig(bank=self.served))
        await server.start()
        probe_task = loop.create_task(probe()) if lag_probe else None
        wall = time.perf_counter()
        cpu = time.process_time()
        try:
            loadgen = await run_loadgen(
                LoadgenConfig(
                    port=server.port,
                    setup=StreamSetup(
                        scene=self.served.scene_name,
                        height=BANK_SIZE,
                        width=BANK_SIZE,
                        target_fps=self.fps,
                        n_frames=n_frames,
                        controller="throughput",
                        start_rung="perceptual",
                    ),
                    n_clients=self.n_clients,
                    trace=BandwidthTrace.square(
                        self.high_mbps, self.low_mbps, self.period_s, horizon_s=seconds + 60
                    ),
                    chunk_bytes=self.chunk_bytes,
                    timeout_s=seconds + 60,
                )
            )
        finally:
            report = await server.stop()
            stop.set()
            if probe_task is not None:
                await probe_task
        return {
            "loadgen": loadgen,
            "server": report,
            "due": n_frames * self.n_clients,
            "wall_s": time.perf_counter() - wall,
            "cpu_s": time.process_time() - cpu,
            "lags_s": lags,
        }

    def check(self, outcome: dict) -> list[str]:
        loadgen, server = outcome["loadgen"], outcome["server"]
        problems = []
        if loadgen.protocol_errors or server.protocol_errors:
            problems.append(
                f"protocol errors: loadgen {loadgen.protocol_errors}, "
                f"server {server.protocol_errors}"
            )
        if loadgen.completed_clients != self.n_clients:
            problems.append(f"{loadgen.completed_clients}/{self.n_clients} clients completed")
        ladder = self.served.ladder.names
        for client in loadgen.clients:
            for f in client.frames:
                rung = ladder.index(f.rung)
                if f.payload_bits != 8 * len(self.served.payload(f.frame_index, rung)):
                    problems.append(f"frame {f.frame_index} payload differs from the bank")
                    break
        return problems


WORKLOADS = {cls.name: cls for cls in (Encode512, Fleet64, FleetSim, ServeFade)}
