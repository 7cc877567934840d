"""Quality ladders: ordered codec rungs for adaptive rate control.

DASH-style streaming adapts by switching between *representations* of
the same content at different bitrates.  This library's equivalent of a
representation is a codec choice: the registry already spans a wide
bitrate range — uncompressed NoCom at 24 bpp down to the perceptual
encoder's foveated Base+Delta — so a :class:`QualityLadder` simply
orders registered codecs from most to least expensive and tags each
rung with a modeled delivered-quality score.  Rate controllers
(:mod:`repro.streaming.adaptive`) pick a rung per frame; the ladder
owns what the rungs *are* and how to build their codecs consistently.

The quality scores are nominal, not measured: ``1.0`` means the
display receives pixel-exact frames (NoCom, PNG, BD are lossless) and
lower values model the perceptual headroom a rung spends — the
perceptual codec alters peripheral colors the paper argues are
indistinguishable, so its score is high but below the lossless rungs.
They exist to give adaptive policies a quality axis to report against,
exactly like the per-representation quality tables in DASH work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from .context import FrameContext
from .registry import get_codec, resolve_codec_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenes.display import DisplayGeometry
    from .base import Codec

__all__ = [
    "QualityRung",
    "QualityLadder",
    "DEFAULT_LADDER_SPEC",
    "encode_stereo_bits",
    "encode_scene_streams",
    "encode_rung_streams",
]

#: ``(codec name, nominal quality)`` pairs of the default ladder, in
#: descending-bitrate order.  Lossless rungs score slightly apart so the
#: quality axis stays strictly monotone with cost; the perceptual rung
#: sits just below them (its adjustments are modeled as imperceptible
#: but not pixel-exact).
DEFAULT_LADDER_SPEC: tuple[tuple[str, float], ...] = (
    ("nocom", 1.00),
    ("png", 0.99),
    ("bd", 0.98),
    ("variable-bd", 0.96),
    ("perceptual", 0.93),
)


@dataclass(frozen=True)
class QualityRung:
    """One step of a quality ladder: a codec at a quality level.

    Parameters
    ----------
    name:
        Rung label used in reports (defaults to the codec name).
    codec:
        Canonical codec-registry name this rung encodes with.
    quality:
        Modeled delivered perceptual quality in ``(0, 1]``; ``1.0`` is
        pixel-exact.
    """

    name: str
    codec: str
    quality: float

    def __post_init__(self):
        if not self.name:
            raise ValueError("rung name must be non-empty")
        if not 0.0 < self.quality <= 1.0:
            raise ValueError(
                f"rung {self.name!r}: quality must be in (0, 1], got {self.quality}"
            )
        object.__setattr__(self, "codec", resolve_codec_name(self.codec))

    def build(self) -> "Codec":
        """Instantiate this rung's codec at its registry defaults.

        The one place a streaming codec is built, so every simulator
        constructs bit-identical codecs.  The perceptual rung's default
        tile size matches the BD variants' default, so every rung of a
        ladder tiles alike.

        Returns
        -------
        Codec
            A fresh codec instance (stateful codecs are not shared
            across streams).
        """
        return get_codec(self.codec)


@dataclass(frozen=True)
class QualityLadder:
    """An ordered set of rungs, best quality (highest bitrate) first.

    Index ``0`` is the most expensive, highest-quality rung; stepping
    *down* the ladder (increasing index) trades quality for bits.
    Rungs must carry unique names and non-increasing quality, so the
    index order is simultaneously the bitrate order and the quality
    order — the invariant every rate controller relies on.

    Parameters
    ----------
    rungs:
        The rungs, descending by bitrate and quality.
    """

    rungs: tuple[QualityRung, ...]

    def __post_init__(self):
        rungs = tuple(self.rungs)
        object.__setattr__(self, "rungs", rungs)
        if not rungs:
            raise ValueError("a ladder needs at least one rung")
        names = [rung.name for rung in rungs]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate rung names: {duplicates}")
        qualities = [rung.quality for rung in rungs]
        if any(a < b for a, b in zip(qualities, qualities[1:])):
            raise ValueError(
                "rung quality must be non-increasing from index 0 "
                f"(best first), got {qualities}"
            )
        # Built-codec cache (not a dataclass field: it is mutable
        # bookkeeping, irrelevant to equality/hashing), one codec per
        # stateless rung index.
        object.__setattr__(self, "_codec_cache", {})

    @classmethod
    def default(cls) -> "QualityLadder":
        """The default ladder: :data:`DEFAULT_LADDER_SPEC` — NoCom, PNG,
        BD, variable BD, perceptual at descending bitrates."""
        return cls(
            rungs=tuple(
                QualityRung(name=codec, codec=codec, quality=quality)
                for codec, quality in DEFAULT_LADDER_SPEC
            )
        )

    @property
    def names(self) -> tuple[str, ...]:
        """Rung names, best quality first."""
        return tuple(rung.name for rung in self.rungs)

    def index_of(self, name: str) -> int:
        """Index of the rung named (or encoding with codec) ``name``.

        Accepts a rung name, a codec-registry name, or an alias
        (``raw`` finds the ``nocom`` rung), so a
        :class:`~repro.streaming.fleet.ClientConfig` codec maps
        straight onto its pinned rung.

        Raises
        ------
        KeyError
            If no rung matches.
        """
        for index, rung in enumerate(self.rungs):
            if rung.name == name:
                return index
        try:
            canonical = resolve_codec_name(name)
        except KeyError:
            canonical = None
        if canonical is not None:
            for index, rung in enumerate(self.rungs):
                if rung.codec == canonical:
                    return index
        raise KeyError(f"no rung named {name!r}; have {list(self.names)}")

    def build_codec(self, index: int) -> "Codec":
        """The codec instance for the rung at ``index``.

        Stateless codecs are cached, one instance per rung, so a
        controller sweep that rebuilds its ladder codecs per run (or a
        fleet that builds them per client) reuses instances instead of
        reconstructing the whole ladder each time.  Stateful codecs
        (``Codec.stateful``, e.g. temporal BD) carry per-stream
        history, so they are never cached: each call returns a fresh
        instance.
        """
        cache: dict = self._codec_cache  # type: ignore[attr-defined]
        codec = cache.get(index)
        if codec is None:
            codec = self.rungs[index].build()
            if not codec.stateful:
                cache[index] = codec
        return codec

    def __len__(self) -> int:
        return len(self.rungs)

    def __iter__(self) -> Iterator[QualityRung]:
        return iter(self.rungs)

    def __getitem__(self, index: int) -> QualityRung:
        return self.rungs[index]


def _bits_and_payload(encoded) -> tuple[int, bytes | None]:
    return encoded.total_bits, encoded.metadata.get("payload")


def encode_stereo_bits(
    codecs: Sequence["Codec"],
    ctxs: Sequence[FrameContext],
    payloads: list | None = None,
) -> tuple[int, ...]:
    """Stereo-payload bits of one frame under each codec.

    The per-frame step of :func:`encode_scene_streams`: every codec
    encodes each eye's context in turn, so quantization and tiling run
    at most once per eye however many rungs are encoded.

    Parameters
    ----------
    codecs:
        Codec instances, one per ladder rung (order preserved).
    ctxs:
        One :class:`~repro.codecs.context.FrameContext` per eye
        (typically the left/right pair), each carrying the gaze its
        gaze-contingent codecs read.
    payloads:
        Optional list that receives one tuple for the frame: per codec,
        the bitstream it wrote to ``metadata["payload"]`` (both eyes
        joined in order), or ``None`` for a codec that writes none.

    Returns
    -------
    tuple of int
        Summed both-eye payload bits, one entry per codec.
    """
    bits, streams = [], []
    for codec in codecs:
        # Each eye's encoded result is dropped as soon as it is read.
        eye_bits, eye_streams = zip(*[_bits_and_payload(codec.encode(ctx)) for ctx in ctxs])
        bits.append(sum(eye_bits))
        streams.append(None if None in eye_streams else b"".join(eye_streams))
    if payloads is not None:
        payloads.append(tuple(streams))
    return tuple(bits)


def encode_scene_streams(
    scene,
    streams: Sequence[
        tuple[Sequence["Codec"], int, Sequence[tuple[float, float]] | None]
    ],
    height: int,
    width: int,
    display: "DisplayGeometry",
    payloads: list | None = None,
) -> list[list[tuple[int, ...]]]:
    """Render and encode several streams of one scene and size together.

    The one render/encode loop behind every simulator and the server:
    :func:`encode_rung_streams` is its one-stream case, and
    :func:`~repro.streaming.fleet.encode_client_streams` runs each
    fleet's (scene, resolution) group through it.  Frames run in display
    order, so stateful codecs see their frames serially.  Frame ``k`` is
    rendered once, then each stream encodes only what no other stream
    has encoded for that frame: streams holding one stateless codec
    instance share its result, per frame if the codec is gaze-free and
    per fixation if it is :attr:`~repro.codecs.base.Codec.gaze_contingent`.
    Each eye gets one :class:`~repro.codecs.context.FrameContext` per
    frame, and every fixation encodes through views of it, so the
    frame is quantized and tiled once however many gazes see it; an
    eccentricity map is derived only for an encode that holds a
    gaze-contingent codec, once for both eyes.  Only frame ``k``'s eyes,
    contexts and results are held at a time.

    Parameters
    ----------
    scene:
        The scene to render (a :class:`~repro.scenes.library.Scene`).
    streams:
        One ``(codecs, n_frames, fixations)`` triple per stream: codec
        instances, one per rung (order preserved; ``reset()`` before the
        first frame); frames to encode from animation frame 0; and one
        normalized gaze point per frame, or ``None`` for a centered gaze.
    height, width:
        Per-eye render resolution.
    display:
        Headset geometry for the eccentricity maps.
    payloads:
        Optional list that receives, per stream, one tuple of bitstreams
        per frame, as :func:`encode_stereo_bits` fills it.

    Returns
    -------
    list of list of tuple of int
        Per stream, one tuple of summed both-eye payload bits per frame,
        one entry per codec.
    """
    for codecs, _, _ in streams:
        for codec in codecs:
            codec.reset()
    bits = [[] for _ in streams]
    streams_payloads = [[] for _ in streams]
    for index in range(max((n_frames for _, n_frames, _ in streams), default=0)):
        frame_ctxs = [
            FrameContext(eye, display=display)
            for eye in scene.render_stereo(height, width, frame=index)
        ]
        done = {}  # share key -> (bits, payload), for this frame only
        for (codecs, n_frames, fixations), rows, rows_payloads in zip(
            streams, bits, streams_payloads
        ):
            if index >= n_frames:
                continue
            fixation = fixations[index] if fixations is not None else (0.5, 0.5)
            # A stateful codec's result also depends on its history: never shared.
            keys = [
                object() if codec.stateful
                else (id(codec), fixation if codec.gaze_contingent else None)
                for codec in codecs
            ]
            todo = {key: codec for key, codec in zip(keys, codecs) if key not in done}
            if todo:
                eccentricity = None
                if any(codec.gaze_contingent for codec in todo.values()):
                    eccentricity = display.eccentricity_map(height, width, fixation=fixation)
                views = [ctx._at(fixation, eccentricity) for ctx in frame_ctxs]
                frame_payloads: list = []
                encoded = encode_stereo_bits(list(todo.values()), views, frame_payloads)
                done.update(zip(todo, zip(encoded, frame_payloads[0])))
            rows.append(tuple(done[key][0] for key in keys))
            rows_payloads.append(tuple(done[key][1] for key in keys))
    if payloads is not None:
        payloads.extend(streams_payloads)
    return bits


def encode_rung_streams(
    scene,
    codecs: Sequence["Codec"],
    n_frames: int,
    height: int,
    width: int,
    display: "DisplayGeometry",
    payloads: list | None = None,
) -> list[tuple[int, ...]]:
    """Render and encode a stream's frames at every codec rung.

    The one-stream, centered-gaze case of :func:`encode_scene_streams`,
    which documents the arguments: the solo and adaptive sessions
    precompute their streams here and replay them through
    :class:`~repro.streaming.engine.PrecomputedSource`, and
    :meth:`repro.serving.frames.FrameBank.from_scene` encodes its bank
    here.  ``payloads`` receives one tuple of bitstreams per frame.

    Returns
    -------
    list of tuple of int
        One tuple of summed both-eye payload bits per frame, one entry
        per codec.
    """
    collected: list = []
    (stream,) = encode_scene_streams(
        scene, [(codecs, n_frames, None)], height, width, display, collected
    )
    if payloads is not None:
        payloads.extend(collected[0])
    return stream
