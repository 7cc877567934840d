"""The paper's primary contribution: perceptual color adjustment.

Analytical per-tile adjustment (Fig. 6 two-case geometry) and the R/B
axis optimizer.  The frame pipeline that puts them in front of
Base+Delta is the ``perceptual`` codec,
:class:`~repro.codecs.wrappers.PerceptualCodec`.
"""
