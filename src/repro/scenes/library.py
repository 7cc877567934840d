"""The six evaluation scenes (paper Sec. 5.1).

The paper evaluates on six VR scenes from the color-perception study of
Duinkharjav et al. — office, fortnite, skyline, dumbo, thai, monkey —
rendered per eye at runtime.  Those Unity assets are not available, so
each scene here is a procedural stand-in engineered to match the
properties the paper attributes to it:

* **office** — indoor scene, neutral palette, medium luminance;
* **fortnite** — bright outdoor scene "with a large amount of green"
  (the scene where no participant noticed artifacts);
* **skyline** — large smooth sky gradient over a high-contrast city
  (smooth content where lossless PNG-style coding is strongest);
* **dumbo** — dark ride, low luminance (most noticeable artifacts);
* **thai** — warm, ornate temple interior, busy texture;
* **monkey** — dark jungle, low luminance, organic texture.

Scenes are deterministic in ``(name, frame)``; stereo eyes crop a wider
canvas at a small horizontal disparity so the two sub-frames are the
correlated pair a real renderer would produce.  Scene tasks (e.g.
"count the birds") are mirrored by animated salient objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..color.srgb import linear_to_srgb, srgb_to_linear
from .noise import fractal_noise, value_noise
from .primitives import draw_box, draw_disk, mix_noise, modulate, vertical_gradient

__all__ = ["Scene", "SCENE_NAMES", "get_scene", "render_scene"]

_BASE_SEED = 20240427  # ASPLOS'24 opening day; fixed for reproducibility.

#: Stereo disparity as a fraction of the frame width (at least 1 px).
_DISPARITY_FRACTION = 0.01

Renderer = Callable[[int, int, np.random.Generator, int], np.ndarray]


def _render_office(height: int, width: int, rng: np.random.Generator, phase: int) -> np.ndarray:
    frame = vertical_gradient((height, width), [0.32, 0.30, 0.27], [0.16, 0.15, 0.14])
    # Window with daylight, slowly brightening/dimming across frames.
    daylight = 0.75 + 0.05 * np.sin(phase * 0.35)
    draw_box(frame, height * 0.12, height * 0.48, width * 0.08, width * 0.30,
             [daylight, daylight, daylight * 1.05])
    # Desks and monitors.
    for k in range(3):
        x0 = width * (0.38 + 0.20 * k)
        draw_box(frame, height * 0.62, height * 0.72, x0, x0 + width * 0.16, [0.22, 0.14, 0.08])
        draw_box(frame, height * 0.46, height * 0.60, x0 + width * 0.02, x0 + width * 0.13,
                 [0.05, 0.08, 0.12])
        draw_box(frame, height * 0.48, height * 0.58, x0 + width * 0.03, x0 + width * 0.12,
                 [0.10, 0.22, 0.30])
    # Carpet.
    draw_box(frame, height * 0.78, height, 0, width, [0.12, 0.10, 0.10])
    texture = fractal_noise((height, width), cell=max(4, width // 40), rng=rng, octaves=3)
    return modulate(frame, texture, amplitude=0.10)


def _render_fortnite(height: int, width: int, rng: np.random.Generator, phase: int) -> np.ndarray:
    frame = vertical_gradient((height, width), [0.45, 0.70, 0.95], [0.70, 0.85, 0.95])
    horizon = int(height * 0.42)
    # Rolling green terrain.
    hills = value_noise((1, width), cell=max(8, width // 10), rng=rng)[0]
    terrain_top = horizon + (hills * height * 0.08).astype(np.int64)
    rows = np.arange(height)[:, None]
    terrain_mask = rows >= terrain_top[None, :]
    green = np.array([0.18, 0.55, 0.16])
    frame[terrain_mask] = green
    # Sun.
    draw_disk(frame, height * 0.14, width * 0.80, max(3, height // 14), [1.0, 0.97, 0.85])
    # Trees.
    for k in range(6):
        cx = width * (0.08 + 0.15 * k) + (phase % 3)
        cy = horizon + height * (0.12 + 0.05 * (k % 3))
        draw_disk(frame, cy, cx, max(2, height // 22), [0.10, 0.42, 0.10])
        draw_box(frame, cy, cy + height * 0.08, cx - 1, cx + 2, [0.25, 0.16, 0.08])
    # Birds to count (task stimulus), drifting with the frame index.
    for k in range(5):
        bx = (width * (0.1 + 0.17 * k) + phase * width * 0.01) % width
        draw_disk(frame, height * (0.10 + 0.04 * (k % 3)), bx, max(1, height // 160),
                  [0.05, 0.05, 0.06])
    grass = fractal_noise((height, width), cell=max(3, width // 64), rng=rng, octaves=3)
    frame = np.where(terrain_mask[..., None], modulate(frame, grass, 0.22), frame)
    sky_tex = value_noise((height, width), cell=max(16, width // 6), rng=rng)
    return mix_noise(frame, np.where(terrain_mask, 0.0, sky_tex), [0.95, 0.96, 0.99], 0.25)


def _render_skyline(height: int, width: int, rng: np.random.Generator, phase: int) -> np.ndarray:
    # Wide, very smooth sky: the PNG-friendly scene.
    frame = vertical_gradient((height, width), [0.22, 0.40, 0.75], [0.70, 0.78, 0.88])
    skyline_top = int(height * 0.55)
    building_rng = np.random.default_rng(_BASE_SEED + 7)  # static architecture
    # A building is int(width * U(0.04, 0.10)) wide and the gap after it
    # int(width * 0.01): at widths up to 10 both are 0 for every draw, so
    # the loop would never advance.  Such frames get no buildings.
    x = 0 if width * 0.10 > 1.0 else width
    while x < width:
        bwidth = int(width * building_rng.uniform(0.04, 0.10))
        btop = int(skyline_top + height * building_rng.uniform(0.0, 0.18))
        shade = building_rng.uniform(0.05, 0.12)
        draw_box(frame, btop, height, x, x + bwidth, [shade, shade, shade * 1.2])
        # Lit windows: small bright cells on a grid.
        for wy in range(btop + 4, height - 2, max(3, height // 40)):
            for wx in range(x + 2, x + bwidth - 2, max(3, width // 80)):
                if building_rng.random() < 0.35:
                    lit = 0.55 + 0.1 * np.sin(phase * 0.9 + wx)
                    draw_box(frame, wy, wy + 2, wx, wx + 2, [lit, lit * 0.9, 0.45])
        x += bwidth + int(width * 0.01)
    haze = value_noise((height, width), cell=max(24, width // 4), rng=rng)
    return mix_noise(frame, haze * 0.5, [0.85, 0.87, 0.92], 0.10)


def _render_dumbo(height: int, width: int, rng: np.random.Generator, phase: int) -> np.ndarray:
    # Dark indoor ride: deep blue ambient with warm practical lights.
    frame = vertical_gradient((height, width), [0.015, 0.02, 0.05], [0.04, 0.035, 0.06])
    track_y = height * 0.70
    draw_box(frame, track_y, track_y + height * 0.04, 0, width, [0.10, 0.07, 0.05])
    for k in range(7):
        cx = (width * (0.05 + 0.15 * k) + phase * width * 0.02) % width
        cy = height * (0.25 + 0.1 * (k % 3))
        draw_disk(frame, cy, cx, max(2, height // 30), [0.65, 0.40, 0.12], opacity=0.9)
        draw_disk(frame, cy, cx, max(4, height // 16), [0.30, 0.18, 0.05], opacity=0.35)
    # Ride vehicles.
    for k in range(3):
        vx = (width * (0.2 + 0.3 * k) - phase * width * 0.015) % width
        draw_box(frame, track_y - height * 0.08, track_y, vx, vx + width * 0.09,
                 [0.18, 0.05, 0.06])
    murk = fractal_noise((height, width), cell=max(8, width // 20), rng=rng, octaves=3)
    return modulate(frame, murk, amplitude=0.30)


def _render_thai(height: int, width: int, rng: np.random.Generator, phase: int) -> np.ndarray:
    # Golden temple interior: warm palette, ornate high-frequency detail.
    frame = vertical_gradient((height, width), [0.40, 0.26, 0.10], [0.25, 0.14, 0.06])
    # Columns.
    for k in range(5):
        x0 = width * (0.05 + 0.20 * k)
        draw_box(frame, height * 0.15, height * 0.85, x0, x0 + width * 0.06, [0.55, 0.38, 0.12])
        draw_box(frame, height * 0.12, height * 0.17, x0 - width * 0.01, x0 + width * 0.07,
                 [0.70, 0.50, 0.18])
    # Altar glow, breathing with the frame index.
    glow = 0.8 + 0.08 * np.sin(phase * 0.5)
    draw_disk(frame, height * 0.55, width * 0.5, max(4, height // 8),
              [glow, glow * 0.75, glow * 0.3], opacity=0.5)
    ornament = fractal_noise((height, width), cell=max(3, width // 80), rng=rng, octaves=4)
    frame = modulate(frame, ornament, amplitude=0.28)
    gilt = value_noise((height, width), cell=max(4, width // 48), rng=rng)
    return mix_noise(frame, (gilt > 0.8) * gilt, [0.9, 0.75, 0.3], 0.35)


def _render_monkey(height: int, width: int, rng: np.random.Generator, phase: int) -> np.ndarray:
    # Dark jungle: layered foliage with moonlight patches and monkeys.
    frame = vertical_gradient((height, width), [0.015, 0.03, 0.02], [0.03, 0.05, 0.03])
    canopy = fractal_noise((height, width), cell=max(6, width // 16), rng=rng, octaves=4)
    frame = mix_noise(frame, canopy, [0.05, 0.12, 0.04], 0.8)
    # Moonlight shafts.
    for k in range(3):
        x0 = width * (0.15 + 0.3 * k) + phase
        draw_box(frame, 0, height, x0, x0 + width * 0.03, [0.10, 0.12, 0.14], opacity=0.45)
    # Monkeys to count: dark silhouettes with pale faces.
    monkey_rng = np.random.default_rng(_BASE_SEED + 11)
    for k in range(4):
        cx = width * monkey_rng.uniform(0.1, 0.9) + (phase % 5)
        cy = height * monkey_rng.uniform(0.2, 0.7)
        draw_disk(frame, cy, cx, max(2, height // 40), [0.02, 0.02, 0.02])
        draw_disk(frame, cy - height * 0.01, cx, max(1, height // 90), [0.18, 0.15, 0.12])
    undergrowth = fractal_noise((height, width), cell=max(3, width // 60), rng=rng, octaves=3)
    return modulate(frame, undergrowth, amplitude=0.35)


@dataclass(frozen=True)
class Scene:
    """A named procedural scene with deterministic stereo rendering.

    ``grain_codes`` is the amplitude (in 8-bit sRGB code units) of the
    per-pixel rendering grain added after composition.  Real rendered
    framebuffers carry anti-aliasing and shading noise of this order;
    without it, gradient-only synthetic frames are unrealistically
    friendly to dictionary coders like PNG's DEFLATE stage.
    """

    name: str
    description: str
    renderer: Renderer
    scene_id: int
    grain_codes: float = 1.0

    def render(
        self, height: int, width: int, frame: int = 0, eye: str | None = None
    ) -> np.ndarray:
        """Render one (sub-)frame in linear RGB.

        ``eye`` is ``None`` for a cyclopean frame, or ``"left"`` /
        ``"right"`` for the stereo sub-frames the paper renders; the
        two eyes crop a wider canvas offset by a fixed fraction of the
        width (the disparity :meth:`render_stereo` uses), so their
        content is identical up to parallax (their rendering grain
        differs, as it would between two real render passes).
        """
        self._check(height, width, frame)
        if eye not in (None, "left", "right"):
            raise ValueError(f"eye must be None, 'left' or 'right', got {eye!r}")
        disparity = max(1, int(width * _DISPARITY_FRACTION)) if eye else 0
        canvas = self._canvas(height, width + 2 * disparity, frame)
        offset = {None: disparity, "left": 0, "right": 2 * disparity}[eye]
        return self._crop(canvas, offset, width, frame, eye)

    def render_stereo(
        self, height: int, width: int, frame: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Render the (left, right) sub-frame pair for one frame.

        Equal to ``render(..., eye="left")`` and ``render(...,
        eye="right")``, but the canvas the two eyes crop is rendered
        once.
        """
        self._check(height, width, frame)
        disparity = max(1, int(width * _DISPARITY_FRACTION))
        canvas = self._canvas(height, width + 2 * disparity, frame)
        return (
            self._crop(canvas, 0, width, frame, "left"),
            self._crop(canvas, 2 * disparity, width, frame, "right"),
        )

    @staticmethod
    def _check(height: int, width: int, frame: int) -> None:
        if height < 8 or width < 8:
            raise ValueError(f"scene frames must be at least 8x8, got {height}x{width}")
        if frame < 0:
            raise ValueError(f"frame index must be >= 0, got {frame}")

    def _canvas(self, height: int, canvas_width: int, frame: int) -> np.ndarray:
        """The composed canvas, deterministic in (scene, frame, size)."""
        rng = np.random.default_rng(
            np.random.SeedSequence([_BASE_SEED, self.scene_id, frame])
        )
        return self.renderer(height, canvas_width, rng, frame)

    def _crop(
        self, canvas: np.ndarray, offset: int, width: int, frame: int, eye: str | None
    ) -> np.ndarray:
        """One eye's (or the cyclopean) crop of ``canvas``, with its grain."""
        out = np.clip(canvas[:, offset : offset + width], 0.0, 1.0)
        if self.grain_codes > 0:
            eye_id = {None: 0, "left": 1, "right": 2}[eye]
            grain_rng = np.random.default_rng(
                np.random.SeedSequence([_BASE_SEED, self.scene_id, frame, 97 + eye_id])
            )
            # Grain is display-referred (uniform in sRGB code units), so
            # apply it in the gamma domain and return to linear.
            srgb = linear_to_srgb(out)
            srgb += grain_rng.uniform(
                -self.grain_codes / 255.0, self.grain_codes / 255.0, size=out.shape
            )
            out = srgb_to_linear(np.clip(srgb, 0.0, 1.0, out=srgb))
        return out


_SCENES = {
    scene.name: scene
    for scene in (
        Scene("office", "indoor office, neutral palette, medium luminance",
              _render_office, 1, grain_codes=1.0),
        Scene("fortnite", "bright outdoor game world, green dominant",
              _render_fortnite, 2, grain_codes=1.2),
        Scene("skyline", "smooth sky gradient over a night-lit city",
              _render_skyline, 3, grain_codes=0.6),
        Scene("dumbo", "dark indoor ride with warm practical lights",
              _render_dumbo, 4, grain_codes=1.0),
        Scene("thai", "golden temple interior, ornate texture",
              _render_thai, 5, grain_codes=1.5),
        Scene("monkey", "dark jungle with animal silhouettes",
              _render_monkey, 6, grain_codes=1.2),
    )
}

#: Scene names in the paper's plotting order.
SCENE_NAMES = ("office", "fortnite", "skyline", "dumbo", "thai", "monkey")


def get_scene(name: str) -> Scene:
    """Look up a scene by name; raises with the valid names listed."""
    try:
        return _SCENES[name]
    except KeyError:
        raise ValueError(f"unknown scene {name!r}; expected one of {SCENE_NAMES}") from None


def render_scene(name: str, height: int, width: int, frame: int = 0, eye: str | None = None):
    """Convenience wrapper: ``get_scene(name).render(...)``."""
    return get_scene(name).render(height, width, frame=frame, eye=eye)
