"""Fig. 13 — power saving over BD across resolution x frame rate.

Paper reference: 180.3 mW at 4128x2096@72 (29.9% of measured system
power) up to 514.2 mW at 5408x2736@120, averaging 307.2 mW.
"""

from conftest import run_once

from repro.experiments import fig13_power
from repro.hardware.energy import SYSTEM_POWER_REFERENCE_W


def test_fig13_power_saving(benchmark, eval_config):
    result = run_once(benchmark, fig13_power.run, eval_config)
    print("\n[Fig. 13] power saving over BD")
    print(result.table())
    lowest = min(result.cells, key=lambda c: c.point.pixels * c.point.fps)
    share = lowest.saving_w / SYSTEM_POWER_REFERENCE_W
    print(f"{lowest.point.label}: {100 * share:.1f}% of system power (paper: 29.9%)")

    assert len(result.cells) == 8
    assert result.min_saving_w > 0.05
    assert 0.15 < result.mean_saving_w < 0.60
    assert 0.3 < result.max_saving_w < 0.9
    # The highest-throughput operating point saves the most.
    best = max(result.cells, key=lambda c: c.saving_w)
    assert best.point.fps == 120 and best.point.width == 5408
