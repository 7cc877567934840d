"""VR display geometry: field of view, resolutions, eccentricity maps.

The encoder needs per-pixel *eccentricity* — the visual angle between
each pixel's view ray and the current gaze ray.  This module models a
pinhole per-eye display with a wide FoV (VR headsets are ~100 deg,
paper Sec. 2.1) and computes exact angular eccentricity maps.

Also records the Oculus Quest 2 operating points the paper's power
evaluation sweeps (Sec. 6.2): the lowest and highest render resolutions
and the four refresh rates.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DisplayGeometry",
    "QUEST2_LOW_RESOLUTION",
    "QUEST2_HIGH_RESOLUTION",
    "QUEST2_REFRESH_RATES",
    "QUEST2_DISPLAY",
]

#: Lowest rendering resolution on Oculus Quest 2 (both eyes combined).
QUEST2_LOW_RESOLUTION = (2096, 4128)  # (height, width)
#: Highest rendering resolution on Oculus Quest 2 (paper Sec. 6.1).
QUEST2_HIGH_RESOLUTION = (2736, 5408)
#: Refresh rates available on Quest 2 (paper Fig. 13).
QUEST2_REFRESH_RATES = (72, 80, 90, 120)

#: Largest eccentricity map (bytes) retained by the per-geometry cache.
#: 8 MB holds a 1024x1024 float64 map; bounding per-entry size keeps
#: the 32-entry cache under ~256 MB even for adversarial gaze sweeps.
_CACHE_MAP_BYTES_LIMIT = 8 * 1024 * 1024

#: Eccentricity-map cache entries kept per geometry instance.
_CACHE_MAX_ENTRIES = 32


@dataclass(frozen=True)
class DisplayGeometry:
    """Pinhole model of one eye's display.

    Attributes
    ----------
    fov_horizontal_deg, fov_vertical_deg:
        Full field of view in degrees.
    """

    fov_horizontal_deg: float = 100.0
    fov_vertical_deg: float = 100.0

    def __post_init__(self):
        for name in ("fov_horizontal_deg", "fov_vertical_deg"):
            value = getattr(self, name)
            if not 0 < value < 180:
                raise ValueError(f"{name} must be in (0, 180), got {value}")
        # Per-instance map cache.  An ``lru_cache`` on the method would
        # key on ``self``, pinning every geometry ever used for the
        # lifetime of the class (a leak) and making all geometries fight
        # over one eviction budget; here each instance gets its own
        # LRU of :data:`_CACHE_MAX_ENTRIES` maps and dies with it.
        object.__setattr__(self, "_map_cache", OrderedDict())

    def __getstate__(self):
        # Cached maps do not travel across pickling (process-pool
        # workers rebuild what they need); ship only the geometry.
        state = dict(self.__dict__)
        state["_map_cache"] = OrderedDict()
        return state

    def _view_rays(self, height: int, width: int) -> np.ndarray:
        """Unit view rays for every pixel, shape ``(H, W, 3)``.

        The image plane sits at unit depth; pixel centers map to
        tangent-plane coordinates spanning the FoV.
        """
        tan_h = np.tan(np.radians(self.fov_horizontal_deg / 2.0))
        tan_v = np.tan(np.radians(self.fov_vertical_deg / 2.0))
        # Pixel centers in normalized device coordinates [-1, 1].
        xs = (np.arange(width) + 0.5) / width * 2.0 - 1.0
        ys = (np.arange(height) + 0.5) / height * 2.0 - 1.0
        plane_x = xs[None, :] * tan_h
        plane_y = ys[:, None] * tan_v
        rays = np.empty((height, width, 3), dtype=np.float64)
        rays[..., 0] = plane_x
        rays[..., 1] = plane_y
        rays[..., 2] = 1.0
        rays /= np.linalg.norm(rays, axis=-1, keepdims=True)
        return rays

    def eccentricity_map(
        self, height: int, width: int, fixation: tuple[float, float] = (0.5, 0.5)
    ) -> np.ndarray:
        """Per-pixel eccentricity (degrees) for a gaze point.

        Parameters
        ----------
        height, width:
            Frame size in pixels.
        fixation:
            Gaze point in normalized image coordinates ``(x, y)`` with
            ``(0.5, 0.5)`` the screen center; must lie within the frame.

        Notes
        -----
        Maps are cached per ``(geometry, height, width, fixation)`` —
        encoders ask for the same map every frame — and returned as
        read-only arrays so one caller cannot corrupt another's view.
        Copy before mutating.  Maps larger than
        :data:`_CACHE_MAP_BYTES_LIMIT` bypass the cache (a
        gaze-contingent sweep at headset resolution would otherwise
        pin gigabytes); they stay transient per call, as before.
        """
        if height < 1 or width < 1:
            raise ValueError(f"frame must be non-empty, got {height}x{width}")
        fx, fy = fixation
        if not (0.0 <= fx <= 1.0 and 0.0 <= fy <= 1.0):
            raise ValueError(f"fixation must be within [0, 1]^2, got {fixation}")
        key = (int(height), int(width), (float(fx), float(fy)))
        if height * width * 8 > _CACHE_MAP_BYTES_LIMIT:
            return self._compute_eccentricity_map(*key)
        cache: OrderedDict = self._map_cache
        if key in cache:
            cache.move_to_end(key)
            return cache[key]
        ecc = self._compute_eccentricity_map(*key)
        cache[key] = ecc
        while len(cache) > _CACHE_MAX_ENTRIES:
            cache.popitem(last=False)
        return ecc

    def _compute_eccentricity_map(
        self, height: int, width: int, fixation: tuple[float, float]
    ) -> np.ndarray:
        fx, fy = fixation
        rays = self._view_rays(height, width)
        tan_h = np.tan(np.radians(self.fov_horizontal_deg / 2.0))
        tan_v = np.tan(np.radians(self.fov_vertical_deg / 2.0))
        gaze = np.array([(fx * 2 - 1) * tan_h, (fy * 2 - 1) * tan_v, 1.0])
        gaze /= np.linalg.norm(gaze)
        cosines = np.clip(rays @ gaze, -1.0, 1.0)
        ecc = np.degrees(np.arccos(cosines))
        ecc.setflags(write=False)
        return ecc


#: Default headset geometry used throughout the experiments.
QUEST2_DISPLAY = DisplayGeometry()
