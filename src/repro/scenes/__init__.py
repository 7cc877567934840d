"""Procedural VR scene substrate (paper Sec. 5.1).

Six named scenes with the luminance/palette properties the paper
reports, stereo sub-frame rendering, value-noise texturing, and the
display geometry that turns gaze into per-pixel eccentricity.
"""
