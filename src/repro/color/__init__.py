"""Color spaces used by the perceptual encoder.

Three representations appear in the paper and are mirrored here:

* **linear RGB** — what the renderer produces; floats in ``[0, 1]``.
* **sRGB** — gamma-encoded 8-bit codes; the domain where Base+Delta bit
  encoding happens (paper Eq. 1).
* **DKL** — the opponent space in which discrimination ellipsoids are
  axis-aligned; a linear transform away from linear RGB (paper Eq. 2).
"""
