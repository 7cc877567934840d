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
"""

from .codecs.base import Codec, EncodedFrame
from .codecs.batch import encode_batch
from .codecs.context import FrameContext
from .codecs.ladder import QualityLadder, QualityRung
from .codecs.registry import available_codecs, get_codec
from .codecs.wrappers import DEFAULT_FOVEAL_RADIUS_DEG, FrameResult, PerceptualCodec
from .encoding.bd import BDCodec
from .perception.model import ParametricModel, RBFModel, ScaledModel, default_model
from .scenes.display import QUEST2_DISPLAY, DisplayGeometry
from .scenes.library import SCENE_NAMES, get_scene, render_scene
from .streaming.adaptive import simulate_adaptive_session
from .streaming.fleet import ClientConfig, FleetReport, simulate_fleet
from .streaming.link import WIFI6_LINK, WIGIG_LINK, WirelessLink
from .streaming.session import simulate_session
from .streaming.traces import BandwidthTrace

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
