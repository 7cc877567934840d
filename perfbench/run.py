#!/usr/bin/env python3
"""Repo benchmark: four workloads, end-to-end metrics, a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload encode-512 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                      # every workload in turn

``--trace 0`` measures with no instrumentation and reports the
end-to-end metrics named in ``BENCHMARK.json``.  ``--trace 1`` runs the
same inputs untraced and then traced, checks the two give byte-identical
outputs, reports the per-layer metrics and writes the spans as Chrome
trace-event JSON under ``.perfbench/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  ``--pin`` recomputes ``pinned.json``, the known-good
outputs every run is checked against.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINS = os.path.join(HERE, "pinned.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOAD_NAMES = ("encode-512", "fleet-64", "fleet-sim", "serve-fade")

#: Fresh processes that only set up, so ``setup_s`` is a median.
SETUP_PROBES = 3

#: name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "encode_mpix_per_s": "Mpix/s",
    "perceptual_bpp": "bits/pixel",
    "client_frames_per_s": "frames/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "delivered_ratio": "fraction",
    "cpu_ms_per_frame": "ms",
}

#: Timed layers: name -> the functions and methods timed as that layer.
LAYERS = {
    "scenes.render_stereo": ("repro.scenes.library:Scene.render_stereo",),
    "perception.semi_axes": ("repro.perception.model:ParametricModel.semi_axes",),
    "core.optimize_tiles": ("repro.core.optimizer:optimize_tiles",),
    "color.encode_srgb8": ("repro.color.srgb:encode_srgb8",),
    "encoding.bd_breakdown": ("repro.encoding.bd:bd_breakdown",),
    "encoding.packing": tuple(
        f"repro.encoding.packing:{name}"
        for name in (
            "pack_fields", "pack_segments", "scatter_fields", "scatter_field_runs",
            "bits_to_bytes",
        )
    ),
    "baselines.png_encode": ("repro.baselines.png_codec:png_encode",),
    "codecs.encode.nocom": ("repro.codecs.wrappers:NoComCodec.encode",),
    "codecs.encode.png": ("repro.codecs.wrappers:PNGCostCodec.encode",),
    "codecs.encode.bd": ("repro.codecs.wrappers:BDCostCodec.encode",),
    "codecs.encode.variable-bd": ("repro.codecs.wrappers:VariableBDCostCodec.encode",),
    "codecs.encode.perceptual": ("repro.codecs.wrappers:PerceptualCodec.encode",),
    "codecs.encode_stereo_bits": ("repro.codecs.ladder:encode_stereo_bits",),
    "streaming.engine.run": ("repro.streaming.engine:StreamingEngine.run",),
    "streaming.scheduler.instantaneous_shares": (
        "repro.streaming.engine:LinkScheduler.instantaneous_shares",
        "repro.streaming.engine:PriorityScheduler.instantaneous_shares",
    ),
    "streaming.link.capacity_bits": ("repro.streaming.link:WirelessLink.capacity_bits",),
    "streaming.adaptation.choose": ("repro.streaming.engine:AdaptationState.choose",),
    "streaming.adaptation.record": ("repro.streaming.engine:AdaptationState.record",),
    "serving.protocol.encode_message": ("repro.serving.protocol:encode_message",),
    "serving.protocol.iter_feed": ("repro.serving.protocol:MessageDecoder.iter_feed",),
    # The server's pacer drives the engine's AdaptationState.choose; on
    # serve-fade it is timed under this name instead.
    "serving.adaptation.choose": ("repro.streaming.engine:AdaptationState.choose",),
}

CODEC_LAYERS = tuple(name for name in LAYERS if name.startswith("codecs.encode."))

#: Layers whose wrappers must fire on each workload's traced run.
EXPECTED = {
    "encode-512": (
        "scenes.render_stereo", "perception.semi_axes", "core.optimize_tiles",
        "color.encode_srgb8", "encoding.bd_breakdown", "encoding.packing",
        "baselines.png_encode", *CODEC_LAYERS,
    ),
    "fleet-64": (
        "scenes.render_stereo", "codecs.encode_stereo_bits", "codecs.encode.nocom",
        "codecs.encode.bd", "codecs.encode.variable-bd", "codecs.encode.perceptual",
        "streaming.engine.run",
    ),
    "fleet-sim": (
        "streaming.engine.run", "streaming.scheduler.instantaneous_shares",
        "streaming.link.capacity_bits", "streaming.adaptation.choose",
        "streaming.adaptation.record",
    ),
    "serve-fade": (
        "serving.protocol.encode_message", "serving.protocol.iter_feed",
        "serving.adaptation.choose",
    ),
}

RUNGS = ("nocom", "png", "bd", "variable-bd", "perceptual")

#: Per-layer metrics beyond ``<layer>.ms`` / ``<layer>.share``: name -> unit.
LAYER_EXTRAS = {
    "setup.import_repro.ms": "ms",
    "host.reference_ms": "ms",
    "trace.overhead": "fraction",
    "drift.last_over_first": "ratio",
    "perception.semi_axes.calls_per_eye": "count",
    "color.encode_srgb8.calls_per_eye": "count",
    "encoding.bd_breakdown.calls_per_eye": "count",
    "codecs.encode.perceptual.mpix_per_s": "Mpix/s",
    "scenes.render_stereo.calls": "count",
    "scenes.render_stereo.distinct": "count",
    "codecs.encode.calls": "count",
    "codecs.encode.distinct": "count",
    "streaming.engine.events_per_client_frame": "count",
    "streaming.scheduler.instantaneous_shares.calls": "count",
    "streaming.link.capacity_bits.calls": "count",
    "streaming.loss.frames_lost": "count",
    "streaming.loss.resyncs": "count",
    "streaming.adaptation.rung_switches": "count",
    "streaming.stall_s": "s",
    "serving.frames.sent": "count",
    "serving.frames.acked": "count",
    "serving.drops.deadline": "count",
    "serving.drops.queue": "count",
    "serving.frames.unaccounted": "count",
    "serving.sent_useful_ratio": "fraction",
    **{f"serving.rung_occupancy.{rung}": "fraction" for rung in RUNGS},
    "serving.loop_lag.p99_ms": "ms",
    "serving.bank_build.ms": "ms",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.ms"] = "ms"
        units[f"{layer}.share"] = "fraction"
    units.update(LAYER_EXTRAS)
    return units


# -- helpers ----------------------------------------------------------------


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


class HostReference:
    """A fixed CPU task, independent of the package, timed between ops.

    This host's speed swings by up to 2x in phases lasting from seconds
    to minutes, and CPU time swings with it.  Half of the task is
    pure-Python dict and integer work and half is a NumPy sort and
    elementwise math, the two kinds of work the workloads do.  The
    geometric mean of the best of three runs of each tracks those
    phases; op times are scaled by ``NOMINAL_S / reference`` so the
    compute metrics read as on a host where the reference takes
    ``NOMINAL_S``.
    """

    NOMINAL_S = 0.005

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._sortable = rng.random(100_000)
        # Larger than the caches, so memory-bound slowdowns show too.
        self._image = rng.random((512, 512, 3))
        self._scratch = np.empty_like(self._image)

    def _python(self) -> float:
        started = time.perf_counter()
        table = {}
        total = 0
        for i in range(60_000):
            total += i * i
            table[i & 1023] = total
        return time.perf_counter() - started

    def _numpy(self) -> float:
        np = self._np
        started = time.perf_counter()
        np.sort(self._sortable)
        np.sqrt(self._image, out=self._scratch)
        self._scratch *= 1.5
        self._scratch += self._image
        self._scratch.sum()
        return time.perf_counter() - started

    def __call__(self) -> float:
        python = min(self._python() for _ in range(3))
        numpy = min(self._numpy() for _ in range(3))
        return (python * numpy) ** 0.5


def drift(latencies) -> float:
    """Median of the last third of op latencies over the first third."""
    third = max(1, len(latencies) // 3)
    return statistics.median(latencies[-third:]) / statistics.median(latencies[:third])


def layers_for(workload: str) -> dict[str, tuple[str, ...]]:
    serving = workload == "serve-fade"
    drop = "streaming.adaptation.choose" if serving else "serving.adaptation.choose"
    return {name: targets for name, targets in LAYERS.items() if name != drop}


def load_pins() -> dict:
    with open(PINS) as handle:
        return json.load(handle)


# -- compute workloads --------------------------------------------------------


def measure(workload, reference, seconds=None, n_ops=None, tracer=None):
    """Run ops for about ``seconds`` (or exactly ``n_ops``); checks run untimed.

    Ops come in rounds of ``workload.round_ops`` (one pass over its
    content mix), and a run stops after the whole number of rounds that
    comes nearest to ``seconds``, so every run does the same mix.

    The host reference is timed before the first op and after each op;
    an op's ``scale`` is the nominal reference time over the mean of
    the two readings around it.
    """
    records = []
    started = time.perf_counter()
    before = reference()
    k = 0

    def more() -> bool:
        if n_ops is not None:
            return k < n_ops
        if k == 0 or k % workload.round_ops:
            return True
        elapsed = time.perf_counter() - started
        return elapsed + elapsed / (k // workload.round_ops) / 2 < seconds

    while more():
        gc.collect()
        if tracer is not None:
            tracer.op = k
            tracer.active = True
        cpu = time.process_time()
        wall = time.perf_counter()
        raw = workload.run(k)
        wall = time.perf_counter() - wall
        cpu = time.process_time() - cpu
        if tracer is not None:
            tracer.active = False
        result = workload.check(k, raw)
        del raw
        after = reference()
        result.latency_s = wall
        result.cpu_s = cpu
        result.reference_s = (before + after) / 2
        result.scale = reference.NOMINAL_S / result.reference_s
        records.append(result)
        before = after
        k += 1
    return records


def end_to_end_metrics(records) -> dict[str, float]:
    """Compute metrics from op times scaled to the nominal host speed."""
    op_s = [r.latency_s * r.scale for r in records]
    total_s = sum(op_s)
    frames = sum(r.client_frames for r in records)
    groups: dict[str, list[int]] = {}
    for r in records:
        bits, pixels = groups.setdefault(r.group, [0, 0])
        groups[r.group] = [bits + r.perceptual_bits, pixels + r.perceptual_pixels]
    failed = sum(1 for r in records if r.problems)
    return {
        "encode_mpix_per_s": sum(r.eye_pixels for r in records) / total_s / 1e6,
        "perceptual_bpp": statistics.fmean(b / p for b, p in groups.values() if p),
        "client_frames_per_s": frames / total_s,
        "latency_p50_ms": percentile(op_s, 50) * 1e3,
        "latency_p99_ms": percentile(op_s, 99) * 1e3,
        "delivered_ratio": (len(records) - failed) / len(records),
        "cpu_ms_per_frame": sum(r.cpu_s * r.scale for r in records) * 1e3 / frames,
    }


def compute_layer_metrics(name, workload, records, tracer) -> dict[str, float]:
    n_ops = len(records)
    total_s = sum(r.latency_s for r in records)
    metrics = {}
    for layer in LAYERS:
        stats = tracer.layers.get(layer)
        self_s = stats.self_s if stats is not None else 0.0
        metrics[f"{layer}.ms"] = self_s * 1e3 / n_ops
        metrics[f"{layer}.share"] = self_s / total_s

    def calls(layer):
        stats = tracer.layers.get(layer)
        return stats.calls if stats is not None else 0

    eyes = sum(r.counters.get("eyes", 0) for r in records)
    if eyes:
        for layer in ("perception.semi_axes", "color.encode_srgb8", "encoding.bd_breakdown"):
            metrics[f"{layer}.calls_per_eye"] = calls(layer) / eyes
    perceptual = tracer.layers.get("codecs.encode.perceptual")
    if perceptual is not None and perceptual.total_s > 0:
        pixels = tracer.counts.get("perceptual_pixels", 0)
        metrics["codecs.encode.perceptual.mpix_per_s"] = pixels / perceptual.total_s / 1e6
    metrics["scenes.render_stereo.calls"] = calls("scenes.render_stereo") / n_ops
    metrics["scenes.render_stereo.distinct"] = len(tracer.renders) / n_ops
    metrics["codecs.encode.calls"] = sum(calls(layer) for layer in CODEC_LAYERS) / n_ops
    metrics["codecs.encode.distinct"] = len(tracer.encodes) / n_ops
    frames = sum(r.client_frames for r in records)
    if name == "fleet-sim":
        metrics["streaming.engine.events_per_client_frame"] = (
            sum(r.counters["events"] for r in records) / frames
        )
        for layer in ("streaming.scheduler.instantaneous_shares", "streaming.link.capacity_bits"):
            metrics[f"{layer}.calls"] = calls(layer) / n_ops
        # Simulated statistics of the seed's first input: they repeat exactly.
        first = records[0].counters
        metrics["streaming.loss.frames_lost"] = first["frames_lost"]
        metrics["streaming.loss.resyncs"] = first["resyncs"]
        metrics["streaming.adaptation.rung_switches"] = first["rung_switches"]
        metrics["streaming.stall_s"] = first["stall_s"]
    return metrics


def install_counting_hooks(tracer, name: str) -> None:
    """Distinct-work counters, hashed outside the timed spans."""
    import hashlib

    import numpy as np

    # Keys carry the op index, so "distinct" counts distinct work per op.
    tracer.renders = set()
    tracer.encodes = set()
    tracer.counts = {"perceptual_pixels": 0, "frames_sent": 0}

    def render(args, kwargs):
        scene, height, width = args[0], args[1], args[2]
        frame = kwargs.get("frame", args[3] if len(args) > 3 else 0)
        tracer.renders.add((tracer.op, scene.name, frame, height, width))

    def digest(array) -> bytes:
        return hashlib.blake2b(np.ascontiguousarray(array).data, digest_size=16).digest()

    def encoder(layer):
        codec = layer.rsplit(".", 1)[-1]

        def hook(args, kwargs):
            ctx = args[1]
            if codec == "perceptual":
                tracer.counts["perceptual_pixels"] += ctx.n_pixels
            if name == "fleet-64":
                key = (tracer.op, codec, digest(ctx.frame_linear))
                if codec == "perceptual":
                    key += (digest(ctx.eccentricity),)
                tracer.encodes.add(key)

        return hook

    def message(args, kwargs):
        if type(args[0]).__name__ == "Frame":
            tracer.counts["frames_sent"] += 1

    tracer.hooks["scenes.render_stereo"] = render
    tracer.hooks["serving.protocol.encode_message"] = message
    for layer in CODEC_LAYERS:
        tracer.hooks[layer] = encoder(layer)


# -- serve-fade -------------------------------------------------------------


def serve_end_to_end(workload, outcome) -> tuple[dict[str, float], int, int, int]:
    """Metrics, frames due, frames undelivered, latency sample count."""
    loadgen = outcome["loadgen"]
    delivered = sum(len(c.frames) for c in loadgen.clients)
    # Frames due in the first half second ride fresh connections (TCP
    # slow start); they set about half of the top 1% of latencies and
    # are left out of the steady-state percentiles.  The rest split into
    # three windows by due time, and each percentile is the median over
    # the windows: one host stall then moves at most one window.
    warm_up = int(0.5 * workload.fps)
    per_client = outcome["due"] // workload.n_clients - warm_up
    windows: list[list[float]] = [[], [], []]
    for c in loadgen.clients:
        for f in c.frames:
            if f.frame_index >= warm_up:
                window = min(2, 3 * (f.frame_index - warm_up) // per_client)
                windows[window].append(f.transmit_time_s * 1e3)
    due = outcome["due"]
    bank = workload.served
    eye_pixels = 2 * bank.height * bank.width
    # The perceptual rung's size of every delivered frame, whichever rung
    # was sent: with this much headroom the controller may never pick it.
    perceptual = bank.ladder.index_of("perceptual")
    perceptual_bits = sum(
        bank.rung_bits(f.frame_index)[perceptual] for c in loadgen.clients for f in c.frames
    )
    metrics = {
        "encode_mpix_per_s": delivered * eye_pixels / outcome["wall_s"] / 1e6,
        "perceptual_bpp": perceptual_bits / (eye_pixels * delivered),
        "client_frames_per_s": delivered / outcome["wall_s"],
        "latency_p50_ms": statistics.median(percentile(w, 50) for w in windows),
        "latency_p99_ms": statistics.median(percentile(w, 99) for w in windows),
        "delivered_ratio": delivered / due,
        "cpu_ms_per_frame": outcome["cpu_s"] * 1e3 / delivered,
    }
    return metrics, due, due - delivered, min(len(w) for w in windows)


def serve_layer_metrics(workload, outcome, tracer) -> dict[str, float]:
    loadgen, server = outcome["loadgen"], outcome["server"]
    due = outcome["due"]
    metrics = {}
    for layer in LAYERS:
        stats = tracer.layers.get(layer)
        self_s = stats.self_s if stats is not None else 0.0
        metrics[f"{layer}.ms"] = self_s * 1e3 / due
        metrics[f"{layer}.share"] = self_s / outcome["wall_s"]
    sent = tracer.counts["frames_sent"]
    deadline_s = server_deadline_s(workload)
    in_time = sum(
        1 for c in loadgen.clients for f in c.frames if f.transmit_time_s <= deadline_s
    )
    by_due_time = sorted(
        (f.frame_index, f.transmit_time_s) for c in loadgen.clients for f in c.frames
    )
    occupancy = server.rung_occupancy
    metrics.update(
        {
            "drift.last_over_first": drift([latency for _, latency in by_due_time]),
            "serving.frames.sent": sent,
            "serving.frames.acked": server.frames_sent,
            "serving.drops.deadline": server.deadline_drops,
            "serving.drops.queue": server.queue_drops,
            "serving.frames.unaccounted": (
                due - server.frames_sent - server.deadline_drops - server.queue_drops
            ),
            "serving.sent_useful_ratio": in_time / sent if sent else 0.0,
            **{f"serving.rung_occupancy.{r}": occupancy.get(r, 0.0) for r in RUNGS},
            "serving.loop_lag.p99_ms": percentile(outcome["lags_s"], 99) * 1e3,
            "serving.bank_build.ms": workload.bank_build_s * 1e3,
        }
    )
    return metrics


def server_deadline_s(workload) -> float:
    from repro.serving.server import ServeConfig

    return ServeConfig(bank=workload.bank).deadline_s


# -- one workload -----------------------------------------------------------


def setup_probe(name: str, seed: int) -> float:
    """Scaled set-up time of a fresh process (import, inputs, warm-up)."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def set_up(name: str, seed: int):
    """Import the package and build the workload; returns timings too."""
    started = time.perf_counter()
    sys.path.insert(0, SRC)
    import repro

    import_s = time.perf_counter() - started
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported repro from {repro.__file__}, not {SRC}")
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, load_pins())
    return workload, import_s, time.perf_counter() - started


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_samples = [setup_probe(name, seed) for _ in range(SETUP_PROBES)]
    workload, import_s, setup_s = set_up(name, seed)
    reference = HostReference()
    setup_reference_s = reference()
    setup_samples.append(setup_s * reference.NOMINAL_S / setup_reference_s)
    from workloads import bank_digest
    from tracing import Tracer, installed

    problems = list(getattr(workload, "setup_problems", []))
    samples = {"setup_s": len(setup_samples), "peak_rss_mb": 1}
    layer_metrics = {}
    tracer = None
    if name == "serve-fade":
        if trace:
            tracer = Tracer()
            install_counting_hooks(tracer, name)
            with installed(tracer, layers_for(name)):
                tracer.active = True
                rebuilt_at = time.perf_counter()
                from workloads import build_bank

                rebuilt = build_bank()
                rebuilt_s = time.perf_counter() - rebuilt_at
                tracer.active = False
                if bank_digest(rebuilt) != bank_digest(workload.bank):
                    problems.append("traced bank build differs from the untraced one")
                del rebuilt
                tracer.reset_stats()
                tracer.active = True
                outcome = workload.session(seconds, lag_probe=True)
                tracer.active = False
        else:
            outcome = workload.session(seconds)
        # Unscaled: latency and delivery are real time, and this
        # workload's CPU time (loopback syscalls) does not track the
        # reference; scaling it doubled its run-to-run spread.
        reference_s = [setup_reference_s, reference()]
        problems += workload.check(outcome)
        e2e, attempted, failed, n_latencies = serve_end_to_end(workload, outcome)
        samples.update({m: outcome["due"] for m in e2e})
        samples["latency_p50_ms"] = samples["latency_p99_ms"] = f"3x{n_latencies}"
        if trace:
            layer_metrics = serve_layer_metrics(workload, outcome, tracer)
            layer_metrics["trace.overhead"] = rebuilt_s / workload.bank_build_s - 1.0
        ops_note = f"{attempted} frames due over {outcome['wall_s']:.1f} s"
    else:
        if trace:
            untraced = measure(workload, reference, seconds / 2)
            tracer = Tracer()
            install_counting_hooks(tracer, name)
            with installed(tracer, layers_for(name)):
                records = measure(workload, reference, n_ops=len(untraced), tracer=tracer)
            if [r.digest for r in records] != [r.digest for r in untraced]:
                problems.append("traced and untraced outputs differ")
            layer_metrics = compute_layer_metrics(name, workload, records, tracer)
            layer_metrics["trace.overhead"] = (
                sum(r.latency_s * r.scale for r in records)
                / sum(r.latency_s * r.scale for r in untraced) - 1.0
            )
            layer_metrics["drift.last_over_first"] = drift(
                [r.latency_s * r.scale for r in untraced]
            )
            records_for_e2e = untraced
        else:
            records_for_e2e = records = measure(workload, reference, seconds)
        reference_s = [r.reference_s for r in records_for_e2e]
        e2e = end_to_end_metrics(records_for_e2e)
        for r in records:
            problems += r.problems
        attempted = len(records_for_e2e)
        failed = sum(1 for r in records_for_e2e if r.problems)
        samples.update({m: attempted for m in e2e})
        latencies = [r.latency_s for r in records_for_e2e]
        ops_note = (
            f"{attempted} ops, {sum(latencies):.1f} s measured, drift last/first third "
            f"{drift([r.latency_s * r.scale for r in records_for_e2e]):.3f} at nominal host speed"
        )
    e2e["setup_s"] = statistics.median(setup_samples)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print(f"# {name} seed={seed} trace={int(trace)}: {ops_note}")
    print(
        f"# host reference {statistics.median(reference_s) * 1e3:.3f} ms median over "
        f"{len(reference_s)} readings (min {min(reference_s) * 1e3:.3f}, "
        f"max {max(reference_s) * 1e3:.3f}; nominal {reference.NOMINAL_S * 1e3:.3f})"
    )
    print(f"# set-up samples (s): {', '.join(f'{s:.3f}' for s in setup_samples)}")
    if trace:
        missing = [layer for layer in EXPECTED[name] if layer not in tracer.layers]
        if missing:
            problems.append(f"wrappers never fired: {missing}")
        layer_metrics["setup.import_repro.ms"] = import_s * 1e3
        layer_metrics["host.reference_ms"] = statistics.median(reference_s) * 1e3
        units = per_layer_units()
        metrics = {m: layer_metrics.get(m, 0.0) for m in units}
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"{name}.trace.json")
        tracer.write(trace_path)
        print(f"# spans: {len(tracer.spans)} kept, {tracer.dropped_spans} dropped -> {trace_path}")
        rate = metrics.get("codecs.encode.perceptual.mpix_per_s", 0.0)
        if rate:
            size = getattr(workload, "size", 192)
            modeled_ms = 2 * size * size / 500e6 * 1e3
            print(
                f"# perceptual encode: measured {rate:.3f} Mpix/s vs modeled 500 Mpix/s "
                f"(FrameBank.encode_time_s at {size}^2 = {modeled_ms:.3f} ms/frame)"
            )
        for metric, unit in units.items():
            print(f"#   {metric:<48} {metrics[metric]:>14.6g} {unit}")
    else:
        units = END_TO_END
        metrics = {m: e2e[m] for m in units}
        for metric, unit in units.items():
            print(f"#   {metric:<24} {metrics[metric]:>14.6g} {unit:<10} n={samples[metric]}")
    for problem in problems[:20]:
        print(f"# PROBLEM: {problem}")
    print(f"# attempted {attempted}, failed {failed}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }


# -- pins ---------------------------------------------------------------------


def write_pins() -> None:
    """Recompute the known-good outputs of every pooled input."""
    sys.path.insert(0, SRC)
    import workloads as w

    pins: dict = {"bank": [list(frame) for frame in w.build_bank().rung_streams]}
    encoder = w.Encode512(0, pins)
    pins[w.Encode512.name] = {}
    for scene in w.SCENE_NAMES:
        for j in range(w.Encode512.items_per_scene):
            frame, fixation = w.encode_pool_item(j)
            encoder.order[scene] = [j]
            k = w.SCENE_NAMES.index(scene)
            _, encoded = encoder.run(k)
            pins[w.Encode512.name][encoder.key(scene, frame, fixation)] = [
                int(sum(e.total_bits for e in per_eye)) for per_eye in encoded
            ]
    fleet = w.Fleet64(0, pins)
    pins[w.Fleet64.name] = {
        str(k): w.sha256(fleet.run(k).to_json()) for k in range(w.Fleet64.pool)
    }
    sim = w.FleetSim(0, pins)
    pins[w.FleetSim.name] = {
        str(k): w.outcomes_digest(sim.run(k)[1]) for k in range(w.FleetSim.pool)
    }
    with open(PINS, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


# -- entry ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pin", action="store_true", help="recompute pinned.json")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no package source at {SRC}/repro; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.pin:
        write_pins()
        return 0
    if args.setup_only:
        _, _, setup_s = set_up(args.workload, args.seed)
        reference = HostReference()
        print(json.dumps({"setup_s": setup_s * reference.NOMINAL_S / reference()}))
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, each in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 1,
                                                      "failed": 1, "metrics": {}}
        combined["correct"] = combined["correct"] and result["correct"] and not done.returncode
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
