"""Byte-level pins of simulator report JSON.

Each scenario below serializes a small simulator run and compares the
SHA-256 of its JSON to a value recorded on an earlier tree.  Changes to
the engine, to how frames are rendered and encoded into per-rung
payload sizes, or to the report writer must leave these payloads
byte-identical, so existing report files and digests keep matching.

The fleet scenarios cover what the kernel prices differently from a
round-clock model: staggered joins, a departure, mixed refresh rates,
jitter, both schedulers, adaptation on a traced link, lossy links under
each recovery policy, and process-pool encoding.  The sharing scenarios
put several clients on one scene and size, so frames, gaze-free rungs
and equal fixations are encoded once for the group.  The remaining
scenarios cover every other producer of rung streams: solo sessions for
each streaming encoder, adaptive sessions that render their own frames,
the ``adaptive`` experiment's policy sweep, and cohort fleets under each
controller setting, on lossless links and on lossy ones under each
recovery policy.
"""

from __future__ import annotations

import functools
import hashlib
import json

import pytest

from repro.experiments import adaptive as adaptive_experiment
from repro.experiments.common import ExperimentConfig
from repro.experiments.fleet import run_fleet
from repro.scenes.library import get_scene
from repro.streaming.adaptive import FixedController, simulate_adaptive_session
from repro.streaming.link import WirelessLink
from repro.streaming.loss import LossTrace
from repro.streaming.fleet import ClientConfig, simulate_fleet
from repro.streaming.session import ENCODER_CHOICES, simulate_session
from repro.streaming.traces import BandwidthTrace


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def clients() -> list[ClientConfig]:
    codecs = ("perceptual", "bd", "variable-bd", "raw")
    scenes = ("office", "fortnite", "skyline", "dumbo")
    fps = (72.0, 72.0, 36.0, 90.0)
    starts = (0.0, 0.01, 0.0, 0.02)
    stops = (None, None, 0.05, None)
    weights = (1.0, 2.0, 1.0, 1.0)
    return [
        ClientConfig(
            name=f"c{i}", scene=scenes[i], codec=codecs[i], height=16, width=16,
            target_fps=fps[i], start_s=starts[i], stop_s=stops[i], weight=weights[i],
        )
        for i in range(4)
    ]


def contended_fair(n_jobs: int = 1):
    link = WirelessLink(bandwidth_mbps=0.4, propagation_ms=3.0, jitter_ms=0.5)
    return simulate_fleet(clients(), link, n_frames=4, seed=5, n_jobs=n_jobs)


def fading_lossy_link() -> WirelessLink:
    """A square-wave fade with bursty Gilbert-Elliott packet loss."""
    trace = BandwidthTrace.square(high_mbps=2.0, low_mbps=0.1, period_s=0.03)
    return WirelessLink.traced(
        trace, propagation_ms=2.0, jitter_ms=0.3,
        loss=LossTrace.gilbert_elliott(0.1, mean_burst_packets=3.0),
    )


def adaptive_priority_lossy():
    return simulate_fleet(
        clients(), fading_lossy_link(), scheduler="priority", n_frames=4, seed=9,
        controller="throughput", recovery="arq",
    )


def pinned_lossy(recovery: str):
    link = WirelessLink(
        bandwidth_mbps=0.6, propagation_ms=3.0, loss=LossTrace.bernoulli(0.2)
    )
    return simulate_fleet(clients(), link, n_frames=4, seed=13, recovery=recovery)


SCENARIOS = {
    "contended-fair": contended_fair,
    "adaptive-priority-lossy": adaptive_priority_lossy,
    "lossy-fec": lambda: pinned_lossy("fec"),
    "lossy-skip": lambda: pinned_lossy("skip"),
}

PINNED_SHA256 = {
    "contended-fair": "952d6afe02b1439761e9e5955b60be07e8c9aaf8c3e697883ddc9dee7b95e666",
    "adaptive-priority-lossy": "7deed98592f7101f3fb0d51583e5835771504377e6dec377e7e7b25c43acf138",
    "lossy-fec": "95818b88568acbc1253fa1eafd92c6eabed911bb2e6fe9134ba0e63fbf87aa60",
    "lossy-skip": "e26250bea30c9e98c9d17d290fb8aad120778b4122c6a27e4bceb181c3414c94",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fleet_report_json_is_pinned(name):
    text = SCENARIOS[name]().to_json()
    assert json.loads(text)["pricing"] == "backlog"
    assert sha256(text) == PINNED_SHA256[name]


def test_pooled_fleet_matches_the_serial_pin():
    assert sha256(contended_fair(n_jobs=2).to_json()) == PINNED_SHA256["contended-fair"]


# -- fleets whose clients share scenes, frames and rungs --------------------

SHARED_CONFIG = ExperimentConfig(height=16, width=16, n_frames=3, seed=4)


def shared_fleet(n_jobs: int = 1):
    """4 clients per scene, each on its own saccade trace."""
    return run_fleet(SHARED_CONFIG, n_clients=24, n_jobs=n_jobs).report


def shared_throughput_fleet():
    """Every client encodes the whole ladder."""
    link = WirelessLink.traced(
        BandwidthTrace.square(high_mbps=4.0, low_mbps=0.5, period_s=0.03),
        propagation_ms=2.0,
    )
    return run_fleet(
        SHARED_CONFIG, n_clients=24, link=link, controller="throughput"
    ).report


def mixed_groups_fleet():
    """Static gaze over two scenes and two sizes, half the clients leaving early.

    Each (scene, size) group holds one 4-frame and one 3-frame stream,
    and both perceptual clients share a fixation.
    """
    clients = [
        ClientConfig(
            name=f"s{i}",
            scene=("office", "thai")[i % 2],
            codec=("perceptual", "bd", "variable-bd", "raw")[i % 4],
            height=(16, 24)[(i // 2) % 2],
            width=(16, 24)[(i // 2) % 2],
            stop_s=(None, 0.03)[(i // 4) % 2],
        )
        for i in range(8)
    ]
    link = WirelessLink(bandwidth_mbps=1.0, propagation_ms=3.0, jitter_ms=0.5)
    return simulate_fleet(clients, link, n_frames=4, seed=11)


SHARING_SCENARIOS = {
    "shared": shared_fleet,
    "shared-throughput": shared_throughput_fleet,
    "mixed-groups": mixed_groups_fleet,
}

SHARING_SHA256 = {
    "shared": "1dd909f8af25c8618d69fff6b06a05cd32bfc3aaabfd8001bc16f846eacb846c",
    "shared-throughput": "b079b81f432fa693d55af401b9ad16bf20d480513898c5f958b8be316fc64b81",
    "mixed-groups": "58ad23861b44d48c629a501c0c02f17bcb60a035e0118803be41106f7d7621e0",
}


@pytest.mark.parametrize("name", sorted(SHARING_SCENARIOS))
def test_sharing_fleet_json_is_pinned(name):
    assert sha256(SHARING_SCENARIOS[name]().to_json()) == SHARING_SHA256[name]


def test_pooled_sharing_fleet_matches_the_serial_pin():
    assert sha256(shared_fleet(n_jobs=2).to_json()) == SHARING_SHA256["shared"]


# -- every other rung-stream producer --------------------------------------

JITTERY_LINK = WirelessLink(bandwidth_mbps=2.0, propagation_ms=3.0, jitter_ms=0.5)


def session(encoder: str, lossy: bool):
    if lossy:
        return simulate_session(
            get_scene("fortnite"), fading_lossy_link(), encoder=encoder,
            n_frames=4, height=16, width=16, seed=3, recovery="skip",
        )
    return simulate_session(
        get_scene("office"), JITTERY_LINK, encoder=encoder,
        n_frames=4, height=16, width=16, seed=3,
    )


def adaptive_session(controller):
    return simulate_adaptive_session(
        get_scene("skyline"), fading_lossy_link(), controller,
        n_frames=6, height=16, width=16, seed=7, recovery="arq",
    )


@functools.lru_cache(maxsize=1)
def adaptive_sweep():
    return adaptive_experiment.run(ExperimentConfig(height=32, width=32)).reports


def experiment_report(label: str):
    return adaptive_sweep()[label]


def cohort_fleet(controller):
    link = WirelessLink.traced(
        BandwidthTrace.square(high_mbps=40.0, low_mbps=4.0, period_s=0.02),
        propagation_ms=2.0,
    )
    config = ExperimentConfig(height=16, width=16, n_frames=3, seed=2)
    return run_fleet(
        config, n_clients=40, link=link, cohorts=True, controller=controller
    ).report


def lossy_cohort_fleet(loss: LossTrace, recovery, controller):
    """Two tracers per cohort, so the tracer loss draws are pinned too."""
    link = WirelessLink.traced(
        BandwidthTrace.square(high_mbps=40.0, low_mbps=4.0, period_s=0.02),
        propagation_ms=2.0, jitter_ms=0.3, loss=loss,
    )
    config = ExperimentConfig(height=16, width=16, n_frames=4, seed=2)
    return run_fleet(
        config, n_clients=24, link=link, cohorts=True, tracers_per_cohort=2,
        controller=controller, recovery=recovery,
    ).report


BURSTY_LOSS = LossTrace.gilbert_elliott(0.05, mean_burst_packets=3.0)

REPORT_SCENARIOS = {
    **{
        f"session-{encoder}-{'lossy' if lossy else 'jittery'}": functools.partial(
            session, encoder, lossy
        )
        for encoder in ENCODER_CHOICES
        for lossy in (False, True)
    },
    "adaptive-buffer": lambda: adaptive_session("buffer"),
    "adaptive-throughput": lambda: adaptive_session("throughput"),
    "adaptive-fixed-bd": lambda: adaptive_session(FixedController(rung="bd")),
    **{
        f"experiment-{label}": functools.partial(experiment_report, label)
        for label in (
            "fixed:nocom", "fixed:png", "fixed:bd", "fixed:variable-bd",
            "fixed:perceptual", "buffer", "throughput",
        )
    },
    "cohort-none": lambda: cohort_fleet(None),
    "cohort-fixed": lambda: cohort_fleet("fixed"),
    "cohort-fixed-perceptual": lambda: cohort_fleet(FixedController(rung="perceptual")),
    "cohort-throughput": lambda: cohort_fleet("throughput"),
    **{
        f"cohort-lossy-{recovery}-{controller or 'pinned'}": functools.partial(
            lossy_cohort_fleet, BURSTY_LOSS, recovery, controller
        )
        for recovery in ("arq", "fec", "skip")
        for controller in (None, "throughput")
    },
}

REPORT_SHA256 = {
    "adaptive-buffer": "252ab1ed4a7350a2226649b96f461bb5975132fa904173bf056526a3dd7fff8b",
    "adaptive-fixed-bd": "9e9c8da14827f264b24fc2f5d9c01dee04dfe6b2eb13e2217b3c95b38f951075",
    "adaptive-throughput": "81d659b77dccf5998f7bc46afec840f34c47ee21633ab4e3f6e5082e0687b2a4",
    "cohort-fixed": "a9e39f3067ee6315359b305ed4c0066730539d77899bd172a32e08cc7c7f82c4",
    "cohort-fixed-perceptual": "824c100bd83932e57f0e1ed11e95358120d1fdc23ca85ef9ae9358daaec50d62",
    "cohort-lossy-arq-pinned": "8a52f4cfce2a53509f020697c5892752b959083e0cded8f87c6a27e871f67aed",
    "cohort-lossy-arq-throughput": "1a25e6c5f74ac07c9dce4dbe4cd20fc578f3573cf64f6e74d6f33f95d918597f",
    "cohort-lossy-fec-pinned": "47991590076d1dba7bbb660805bda791e6b81c2e3d7be84d82f34f61fda8c19c",
    "cohort-lossy-fec-throughput": "0d6a0307dc5da1060a1d25992e686d23d9426adef14debfb9b3287a439e726d4",
    "cohort-lossy-skip-pinned": "46fe081139dd8db073ca332e653f0b13a77fc8f06aef2dcad7f5c8ce5a546c42",
    "cohort-lossy-skip-throughput": "3ff8257868c0037935e5e5696e548e32b7d6e3956a798fc324b8b75240725826",
    "cohort-none": "3ae38729d9a02b1ebccd60dd4fd9446121884eabb7371c065be3951d68e0c531",
    "cohort-throughput": "d31caeb58e2a2a32ab8323c971a21d465c839c7299589e4222e1a7b7b7a4a490",
    "experiment-buffer": "a92cb1e5b22d1fd977d7a04894060141b45005889c7907a2dfa56b4664dc02da",
    "experiment-fixed:bd": "ea25255a98ce2b5540222e0c28f72db91e54a3a2449000d1320cf68eebbf2549",
    "experiment-fixed:nocom": "441a9be26d5b49c24bbef52d8e9e65a6197dfae5630644c0ac11d7d8870f1b0d",
    "experiment-fixed:perceptual": "84b00f00f954fb4263c7699a3df067e1d41ce0338254079241136550fbf4d229",
    "experiment-fixed:png": "4d70120ca7a793991eb5f327a73d718b173137358f8d450d2361649ab502ace2",
    "experiment-fixed:variable-bd": "cc5065b8d7babb25fc0d05091a5160b8f43771bc9204a9596373cfc9a7156326",
    "experiment-throughput": "ef40ecf840b0938582d3a70995d1fee25c8c55acd902913478a57653f7b4e7f3",
    "session-bd-jittery": "e05fa0ae225807beb06b36d96f6880917d2011011060e217c1bea5233c5ba750",
    "session-bd-lossy": "2b5af93460863cadd38d535b2aeb7557b964926705781590d981e7609ab0dbd3",
    "session-perceptual-jittery": "a49e69ce7cd83af1ef8b3b2d3b1d8b918f71e797f6144ee0fe2966368c9e7652",
    "session-perceptual-lossy": "2c62ec7988e9ededa566c8a53656a64f388608a856c763a89559ad2710368e25",
    "session-raw-jittery": "9b1eb98a2a7505a297fa68e5fea60d085d1acb4515ea755c6b742a3b048f8c38",
    "session-raw-lossy": "e63602579660fe6e702a4ff0a1f42dd87b8c509903474775e2200edb69f58b94",
    "session-variable-bd-jittery": "210412719beea32e0654682934514a0c4c583a5ff0b762406ceb6d030ae240aa",
    "session-variable-bd-lossy": "0ce994d01b421e9f170a1658e09f68438dae17f7d4ae00214909300ab0b8f73c",
}


def test_adaptive_sweep_has_seven_policies():
    assert len(adaptive_sweep()) == 7
    assert {
        name for name in REPORT_SCENARIOS if name.startswith("experiment-")
    } == {f"experiment-{label}" for label in adaptive_sweep()}


@pytest.mark.parametrize("name", sorted(REPORT_SCENARIOS))
def test_report_json_is_pinned(name):
    assert sha256(REPORT_SCENARIOS[name]().to_json()) == REPORT_SHA256[name]
