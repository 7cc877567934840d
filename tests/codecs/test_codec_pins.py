"""Pins of the codec layer's outputs.

The values below were recorded on an earlier tree.  Changes to how a
codec is configured, how a frame sequence is run through it, or how a
frame context is built must leave them unchanged: the Fig. 10 and
Fig. 11 sweeps are hashed over the exact ``repr`` of every reported
float, and ``encode_batch`` is pinned frame by frame for every
registered codec, given by name and as a ready instance, serially and
over a process pool.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.codecs.batch import encode_batch
from repro.codecs.registry import available_codecs, get_codec
from repro.experiments import fig10_bandwidth, fig11_bits
from repro.experiments.common import ExperimentConfig
from repro.scenes.library import render_scene

CONFIG = ExperimentConfig(height=96, width=96, n_frames=1)

#: fig10's explicit ``--codecs`` roster: every gaze-free codec.
FIG10_ROSTER = ("nocom", "scc", "bd", "variable-bd", "temporal-bd", "png")

PINNED_FIG10 = {
    None: "5e618ccc4a327be5ad48063c54d236cf8fc0994a7b11cc9e63e0959e139bf00a",
    FIG10_ROSTER: "e995bdbaa27fefa61a502428933661c9193ef07a493a6e6e637582c6d93b03c2",
}
PINNED_FIG11 = "afbef459a63ac8f915531a3fc0b972102dc3dd4235c042f10454aea7988b9b7c"

#: Per-frame ``total_bits`` of four 32x32 office frames.
PINNED_BATCH_BITS = {
    "nocom": [24576, 24576, 24576, 24576],
    "bd": [14664, 14936, 14808, 14728],
    "png": [9976, 10248, 10072, 10072],
    "scc": [23552, 23552, 23552, 23552],
    "perceptual": [13176, 13368, 13224, 13256],
    "variable-bd": [14468, 14704, 14708, 14396],
    "temporal-bd": [14856, 10408, 10416, 10248],
}


def sha256_of_repr(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "codec_names", list(PINNED_FIG10), ids=["default", "full-roster"]
)
def test_fig10_sweep_is_pinned(codec_names):
    config = dataclasses.replace(CONFIG, codec_names=codec_names)
    result = fig10_bandwidth.run(config)
    digest = sha256_of_repr([(scene.scene, scene.bpp) for scene in result.scenes])
    assert digest == PINNED_FIG10[codec_names]


def test_fig11_components_are_pinned():
    result = fig11_bits.run(CONFIG)
    digest = sha256_of_repr(
        [(scene.scene, scene.bd, scene.ours) for scene in result.scenes]
    )
    assert digest == PINNED_FIG11


@pytest.fixture(scope="module")
def frames():
    return [render_scene("office", 32, 32, frame=i) for i in range(4)]


@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("as_instances", [False, True], ids=["names", "instances"])
def test_encode_batch_bits_are_pinned(frames, as_instances, n_jobs):
    names = available_codecs()
    assert set(names) == set(PINNED_BATCH_BITS)
    codecs = [get_codec(name) for name in names] if as_instances else names
    results = encode_batch(frames, codecs=codecs, n_jobs=n_jobs)
    bits = {name: [frame.total_bits for frame in rows] for name, rows in results.items()}
    assert bits == PINNED_BATCH_BITS
    assert list(bits) == list(names)
