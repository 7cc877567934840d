"""Fleet contention study + parallel batch encoding benchmarks.

The fleet benchmark regenerates the multi-client contention table (the
new scenario axis: N headsets behind one access point).  The batch
benchmarks time the same 16-frame encode serially and through the
process pool; on a multi-core machine the parallel run finishes
first, on a single core it documents the pool overhead instead.
"""

import os

import numpy as np
import pytest
from conftest import run_once

from repro.codecs.batch import encode_batch
from repro.experiments.fleet import run_fleet
from repro.scenes.library import render_scene
from repro.streaming.link import WIFI6_LINK

N_BATCH_FRAMES = 16
BATCH_JOBS = 4


def test_fleet_contention(benchmark, eval_config):
    result = run_once(
        benchmark, run_fleet, eval_config, n_clients=4, link=WIFI6_LINK
    )
    print("\n[Fleet] 4 clients sharing one WiFi6 link (fair share)")
    print(result.table())

    for client in result.report.clients:
        assert client.sustainable_fps < result.solo_fps[client.name]
    assert 0 < result.report.link_utilization


@pytest.fixture(scope="module")
def batch_frames():
    frames = [
        render_scene("thai", 160, 160, frame=index)
        for index in range(N_BATCH_FRAMES)
    ]
    return frames, np.full((160, 160), 25.0)


def test_batch_encode_serial(benchmark, batch_frames):
    frames, ecc = batch_frames
    results = benchmark(
        encode_batch, frames, codecs=("perceptual",), eccentricity=ecc
    )
    assert len(results["perceptual"]) == N_BATCH_FRAMES


def test_batch_encode_parallel(benchmark, batch_frames):
    frames, ecc = batch_frames
    results = benchmark(
        encode_batch,
        frames,
        codecs=("perceptual",),
        eccentricity=ecc,
        n_jobs=BATCH_JOBS,
    )
    assert len(results["perceptual"]) == N_BATCH_FRAMES
    print(f"\n[Batch] {N_BATCH_FRAMES} frames, n_jobs={BATCH_JOBS}, "
          f"{os.cpu_count()} cores available")
