"""Base+Delta framebuffer compression substrate (paper Sec. 2.2).

Tiling, NumPy-vectorized bit packing kernels, the BD codec itself
(bit-exact round trip; one grouped stream format, of which fixed-width
BD is the one-group case), and the size accounting every experiment
reports.
"""
