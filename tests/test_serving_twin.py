"""The digital-twin test: one stream, priced by the engine, run on sockets.

The same ladder sizes, rate controller, and bandwidth trace drive two
executions:

* :func:`repro.streaming.adaptive.simulate_adaptive_session` — the
  discrete-event engine pricing the stream analytically;
* a loopback :class:`repro.serving.server.StreamServer` streaming a
  :class:`repro.serving.frames.FrameBank` built from the *same* sizes to a
  read-throttled loadgen client emulating the *same* trace.

Rung choices must agree exactly: the controller's dominant input (the
PHY-rate clamp) is the trace evaluated at session time on both paths,
so any divergence is a bug, not noise.  Stall time is a measurement on
the server path — wire framing and chunked-read quantization add real
overhead — so it is held to a band around the simulated value rather
than equality.
"""

import asyncio
import math

import pytest

from repro.scenes.library import get_scene
from repro.serving.chaos import ChaosConfig
from repro.serving.client import LoadgenConfig, run_loadgen
from repro.serving.protocol import StreamSetup
from repro.serving.server import ServeConfig, StreamServer
from repro.streaming.adaptive import simulate_adaptive_session
from repro.streaming.link import WirelessLink
from repro.streaming.loss import LossTrace
from repro.streaming.traces import BandwidthTrace
from serving_support import assert_conserved, synthetic_bank

#: Ladder sizes (bits, best rung first) for every frame.  On the
#: default ladder (nocom, png, bd, variable-bd, perceptual) these give
#: the controller a strict size ordering with wide gaps around each
#: operating point: at 8 Mbps the 100 kb top rung fits with 3x budget
#: headroom (so measured-goodput jitter cannot dethrone it), at
#: 1.2 Mbps only the 20 kb rung fits (and the 60 kb one is outside
#: even a perfect budget, so jitter cannot promote it), and at
#: 0.15 Mbps nothing fits, pinning the min-payload rung.
SIZES = (100_000, 80_000, 60_000, 20_000, 12_000)
FPS = 20.0
N_FRAMES = 24

#: At 8 Mbps every rung fits; after the drop only some (or none) do.
FADE_TRACE = BandwidthTrace([0.0, 0.5], [8.0, 1.2])
DEEP_FADE_TRACE = BandwidthTrace([0.0, 0.5], [8.0, 0.15])


def _simulate(trace: BandwidthTrace):
    return simulate_adaptive_session(
        get_scene("office"),
        WirelessLink.traced(trace),
        controller="throughput",
        n_frames=N_FRAMES,
        target_fps=FPS,
        rung_streams=[SIZES],
    )


async def _serve(trace: BandwidthTrace):
    """Stream the same spec over loopback; return (server, loadgen) reports."""
    server = StreamServer(
        ServeConfig(
            bank=synthetic_bank([SIZES]),
            port=0,
            phy_trace=trace,
            deadline_s=10.0,  # never drop: the sim never drops either
            queue_frames=64,
            drain_grace_s=5.0,
        )
    )
    await server.start()
    try:
        loadgen = await run_loadgen(
            LoadgenConfig(
                port=server.port,
                setup=StreamSetup(
                    scene="synthetic",
                    target_fps=FPS,
                    n_frames=N_FRAMES,
                    controller="throughput",
                ),
                n_clients=1,
                trace=trace,
                # Small chunks: the client's virtual channel quantizes
                # deliveries to whole-chunk drain times, so the chunk
                # size bounds the stall measurement error.
                chunk_bytes=1024,
                timeout_s=30.0,
            )
        )
    finally:
        report = await server.stop()
    return report, loadgen


def _served_client(trace: BandwidthTrace):
    report, loadgen = asyncio.run(_serve(trace))
    assert loadgen.protocol_errors == 0
    assert report.protocol_errors == 0
    assert loadgen.completed_clients == 1
    assert report.n_clients == 1
    client = report.clients[0]
    assert len(client.frames) == N_FRAMES
    assert client.dropped_frames == 0
    assert_conserved(report, N_FRAMES)
    return client


class TestRungSequenceTwin:
    """The headline contract: identical rung-switch sequences."""

    def test_fade_switches_match_exactly(self):
        sim = _simulate(FADE_TRACE)
        client = _served_client(FADE_TRACE)
        assert client.adaptive.rungs == sim.adaptive.rungs
        # The fade forces a real switch mid-stream on both paths.
        assert sim.adaptive.rungs[0] == "nocom"
        assert sim.adaptive.rungs[-1] == "variable-bd"

    def test_deep_fade_switches_match_exactly(self):
        sim = _simulate(DEEP_FADE_TRACE)
        client = _served_client(DEEP_FADE_TRACE)
        assert client.adaptive.rungs == sim.adaptive.rungs
        # Nothing fits the deep-fade budget: both paths fall to the
        # min-payload rung and stay there.
        assert sim.adaptive.rungs[-1] == "perceptual"


class TestStallTwin:
    """Stall behavior: zero stays zero, saturation stays comparable."""

    def test_fade_stalls_nowhere_on_either_path(self):
        sim = _simulate(FADE_TRACE)
        client = _served_client(FADE_TRACE)
        assert sim.adaptive.stall_time_s == pytest.approx(0.0, abs=1e-9)
        # Loopback scheduling jitter can register microstalls; anything
        # approaching one frame interval would be a real disagreement.
        assert client.adaptive.stall_time_s < 0.3 / FPS

    def test_deep_fade_stalls_comparably(self):
        sim = _simulate(DEEP_FADE_TRACE)
        client = _served_client(DEEP_FADE_TRACE)
        assert sim.adaptive.stall_time_s > 0.25
        assert client.adaptive.stall_time_s > 0.25
        # Measured stall carries wire framing + chunk quantization on
        # top of the priced value (observed ~1.1x at 1 KiB chunks);
        # the band is generous for CI jitter without admitting a
        # divergent backlog model.
        ratio = client.adaptive.stall_time_s / sim.adaptive.stall_time_s
        assert 0.7 < ratio < 2.0

#: Lossy-sibling parameters: a Bernoulli frame-loss channel.  Packet
#: size above the top rung makes every frame exactly one packet, so the
#: simulator's per-packet loss probability IS the per-frame loss
#: probability — the same distribution the server's chaos drop rate
#: induces on the wire.
LOSS_P = 0.12
LOSSY_N_FRAMES = 150
LOSSY_FPS = 40.0


def _loss_run_band(n_frames: int, p: float) -> tuple[float, float]:
    """A 4-sigma band on the number of loss *runs* (resync events).

    For iid frame loss the expected run count is ~ n * p * (1 - p)
    (each run starts at a lost frame whose predecessor survived), with
    variance bounded by the Poisson approximation.
    """
    mean = n_frames * p * (1.0 - p)
    sigma = math.sqrt(mean)
    return max(1.0, mean - 4 * sigma), mean + 4 * sigma


def _simulate_lossy():
    trace = LossTrace.bernoulli(LOSS_P, packet_bits=max(SIZES) + 1)
    link = WirelessLink(bandwidth_mbps=8.0, propagation_ms=2.0, loss=trace)
    return simulate_adaptive_session(
        get_scene("office"),
        link,
        controller="throughput",
        n_frames=LOSSY_N_FRAMES,
        target_fps=LOSSY_FPS,
        rung_streams=[SIZES],
        recovery="skip",
        seed=3,
    )


async def _serve_lossy():
    server = StreamServer(
        ServeConfig(
            bank=synthetic_bank([SIZES]),
            port=0,
            deadline_s=10.0,
            queue_frames=64,
            drain_grace_s=5.0,
            chaos=ChaosConfig(drop_prob=LOSS_P, seed=17),
        )
    )
    await server.start()
    try:
        loadgen = await run_loadgen(
            LoadgenConfig(
                port=server.port,
                setup=StreamSetup(
                    scene="synthetic",
                    target_fps=LOSSY_FPS,
                    n_frames=LOSSY_N_FRAMES,
                    controller="throughput",
                ),
                n_clients=1,
                timeout_s=30.0,
            )
        )
    finally:
        report = await server.stop()
    return report, loadgen


class TestLossyTwin:
    """The lossy sibling: same frame-loss rate, sim and sockets.

    The simulated stream erases frames through a Bernoulli
    :class:`LossTrace` under the drop-and-skip policy; the served
    stream drops the same fraction of frames through chaos injection.
    Resync counts (loss runs the decoder must recover from) and
    delivered quality must land in the same analytic band on both
    paths — the statistical twin of the exact rung-sequence contract
    above.
    """

    def test_resync_counts_land_in_the_shared_band(self):
        sim = _simulate_lossy()
        report, loadgen = asyncio.run(_serve_lossy())
        assert loadgen.protocol_errors == 0
        assert report.protocol_errors == 0
        assert report.clean
        assert loadgen.completed_clients == 1

        low, high = _loss_run_band(LOSSY_N_FRAMES, LOSS_P)
        sim_resyncs = sim.loss.resyncs
        served_resyncs = loadgen.clients[0].resyncs
        assert low <= sim_resyncs <= high, (sim_resyncs, low, high)
        assert low <= served_resyncs <= high, (served_resyncs, low, high)
        assert_conserved(report, LOSSY_N_FRAMES)

    def test_delivered_quality_lands_in_the_shared_band(self):
        sim = _simulate_lossy()
        report, loadgen = asyncio.run(_serve_lossy())
        # 4-sigma binomial band around the survival rate 1 - p.
        sigma = math.sqrt(LOSS_P * (1 - LOSS_P) / LOSSY_N_FRAMES)
        low = 1 - LOSS_P - 4 * sigma
        high = 1 - LOSS_P + 4 * sigma
        # Sim: displayed excludes the frames a real decoder would
        # discard, so quality sits at or below the delivery rate.
        delivered_sim = 1 - sim.loss.frames_lost / sim.loss.n_frames
        assert low <= delivered_sim <= high
        assert sim.loss.delivered_quality <= delivered_sim
        # Served: frames that reached the client over frames offered.
        delivered_served = loadgen.frames_received / LOSSY_N_FRAMES
        assert low <= delivered_served <= high
        # And the server's ledger agrees with the client's.
        assert loadgen.frames_received + report.chaos_drops == LOSSY_N_FRAMES
        assert_conserved(report, LOSSY_N_FRAMES)

    def test_lossless_sibling_stays_exact(self):
        """The statistical banding above never loosens the exact
        contract: with loss off, the twin still matches rung-for-rung
        (guarded here so the lossy plumbing cannot regress it)."""
        sim = _simulate(FADE_TRACE)
        client = _served_client(FADE_TRACE)
        assert client.adaptive.rungs == sim.adaptive.rungs
        assert sim.loss is None


class TestMeasuredDrains:
    def test_measured_drains_track_the_emulated_channel(self):
        # The frame rows carry *measured* ACK spacing, not modeled
        # drains: before the fade a 100 kb frame clears 8 Mbps in
        # ~13 ms; after it the min rung needs > 80 ms at 0.15 Mbps —
        # more than a frame interval, which is where the stall is born.
        client = _served_client(DEEP_FADE_TRACE)
        before = [f.serialization_time_s for f in client.frames[1:8]]
        after = [f.serialization_time_s for f in client.frames[12:]]
        assert max(before) < 1.0 / FPS
        assert sum(after) / len(after) > 1.0 / FPS
