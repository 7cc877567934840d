"""Comparison baselines: NoCom, BD, PNG-class lossless, SCC, and the
foveated-resolution comparator of the paper's Sec. 7."""
