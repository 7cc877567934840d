"""Simulated human-subject study (paper Sec. 5.2, 6.3, Fig. 14)."""
