"""repro — perceptual color-discrimination image encoding for VR.

A full reproduction of "Exploiting Human Color Discrimination for
Memory- and Energy-Efficient Image Encoding in Virtual Reality"
(ASPLOS 2024): the eccentricity-dependent discrimination model, the
analytical per-tile color adjustment, the Base+Delta substrate it
feeds, the comparison baselines, the hardware/energy models, procedural
evaluation scenes, and a simulated user study.

Every frame coster — ``nocom``/``raw``, ``bd``, ``variable-bd``,
``temporal-bd``, ``png``, ``scc``, and ``perceptual`` — lives behind
one codec registry, is configured by its constructor
(``get_codec(name, **kwargs)``), and encodes a shared, lazily-cached
:class:`FrameContext` one frame at a time.

Quick start::

    from repro import FrameContext, get_codec, render_scene

    frame = render_scene("fortnite", 256, 256)    # linear RGB
    ctx = FrameContext(frame)                     # lazy sRGB / tiles / gaze
    result = get_codec("perceptual").encode(ctx)  # an EncodedFrame
    print(result.bits_per_pixel, result.bandwidth_reduction_vs_bd)

Sweep several codecs over a frame sequence with shared context work::

    from repro import encode_batch

    results = encode_batch(frames, codecs=("bd", "png", "perceptual"))
    print({name: sum(r.total_bits for r in rs) for name, rs in results.items()})

The quick-start names load on first access (PEP 562), so ``import
repro`` alone imports no NumPy and the stdlib-only linter
(``python -m repro.analysis``) runs without it.
"""

import importlib

__version__ = "1.3.0"

__all__ = [
    "Codec",
    "EncodedFrame",
    "FrameContext",
    "available_codecs",
    "encode_batch",
    "get_codec",
    "DEFAULT_FOVEAL_RADIUS_DEG",
    "FrameResult",
    "PerceptualCodec",
    "BDCodec",
    "ParametricModel",
    "RBFModel",
    "ScaledModel",
    "default_model",
    "QUEST2_DISPLAY",
    "DisplayGeometry",
    "SCENE_NAMES",
    "get_scene",
    "render_scene",
    "QualityLadder",
    "QualityRung",
    "WIFI6_LINK",
    "WIGIG_LINK",
    "BandwidthTrace",
    "ClientConfig",
    "FleetReport",
    "WirelessLink",
    "simulate_adaptive_session",
    "simulate_fleet",
    "simulate_session",
    "__version__",
]

#: Where each quick-start name is defined, read on its first access.
_FACADE = {
    "Codec": "repro.codecs.base",
    "EncodedFrame": "repro.codecs.base",
    "encode_batch": "repro.codecs.batch",
    "FrameContext": "repro.codecs.context",
    "QualityLadder": "repro.codecs.ladder",
    "QualityRung": "repro.codecs.ladder",
    "available_codecs": "repro.codecs.registry",
    "get_codec": "repro.codecs.registry",
    "DEFAULT_FOVEAL_RADIUS_DEG": "repro.codecs.wrappers",
    "FrameResult": "repro.codecs.wrappers",
    "PerceptualCodec": "repro.codecs.wrappers",
    "BDCodec": "repro.encoding.bd",
    "ParametricModel": "repro.perception.model",
    "RBFModel": "repro.perception.model",
    "ScaledModel": "repro.perception.model",
    "default_model": "repro.perception.model",
    "QUEST2_DISPLAY": "repro.scenes.display",
    "DisplayGeometry": "repro.scenes.display",
    "SCENE_NAMES": "repro.scenes.library",
    "get_scene": "repro.scenes.library",
    "render_scene": "repro.scenes.library",
    "simulate_adaptive_session": "repro.streaming.adaptive",
    "ClientConfig": "repro.streaming.fleet",
    "FleetReport": "repro.streaming.fleet",
    "simulate_fleet": "repro.streaming.fleet",
    "WIFI6_LINK": "repro.streaming.link",
    "WIGIG_LINK": "repro.streaming.link",
    "WirelessLink": "repro.streaming.link",
    "simulate_session": "repro.streaming.session",
    "BandwidthTrace": "repro.streaming.traces",
}


def __getattr__(name: str):
    try:
        module = _FACADE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_FACADE})
