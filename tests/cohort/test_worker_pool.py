"""run_tasks edge cases the cohort engine leans on.

Pooled fleets submit cohort state across the process boundary; these
tests pin the behaviours that failure would turn into hangs or corrupt
merges: results in task order, pools wider than the work, exceptions
propagating instead of deadlocking, dead workers failing fast, every
cohort payload type surviving pickling, and bad pool widths rejected
before any work.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.parallel import BrokenPoolError, run_tasks
from repro.streaming.cohort import CohortSpec, simulate_cohort_fleet
from repro.streaming.link import WirelessLink
from repro.streaming.reports import report_to_json
from repro.streaming.sketch import QuantileSketch
from repro.streaming.traces import BandwidthTrace


def _echo(value):
    """Module-level so the pool can pickle it by qualified name."""
    return value


def _square(value):
    return value * value


def _boom(message):
    raise RuntimeError(message)


def _die_hard(value):
    """Simulate the OOM killer: the worker vanishes without cleanup."""
    os.kill(os.getpid(), signal.SIGKILL)
    return value  # pragma: no cover - unreachable


def test_results_come_back_in_task_order():
    """More tasks than workers: results still follow the task order."""
    assert run_tasks(_square, [(n,) for n in range(5)], 2) == [0, 1, 4, 9, 16]


def test_pool_wider_than_the_work():
    """n_jobs far beyond the task count must not stall or reorder."""
    assert run_tasks(_square, [(n,) for n in range(3)], 8) == [0, 1, 4]


def test_fleet_n_jobs_beyond_cohort_count():
    specs = [
        CohortSpec(
            name=f"tiny{i}", n_members=10, payloads=((50_000,),), n_frames=2,
        )
        for i in range(3)
    ]
    link = WirelessLink(bandwidth_mbps=200.0, propagation_ms=3.0)
    report = simulate_cohort_fleet(specs, link, seed=0, n_jobs=16)
    assert report.n_clients == 30
    assert report_to_json(report) == report_to_json(
        simulate_cohort_fleet(specs, link, seed=0)
    )


def test_worker_exception_propagates_without_hanging():
    """A task raising in a worker must surface promptly, as itself:
    only dead workers get translated into BrokenPoolError."""
    with pytest.raises(RuntimeError, match="cohort task failed") as excinfo:
        run_tasks(_boom, [("cohort task failed",), ("sibling failed",)], 2)
    assert not isinstance(excinfo.value, BrokenPoolError)


def test_sigkilled_worker_fails_fast_with_broken_pool_error():
    """A worker killed by the OS (OOM killer, container limit) must not
    hang the pool: run_tasks fails fast with an actionable error, not a
    bare BrokenProcessPool or a deadlock."""
    with pytest.raises(BrokenPoolError, match="worker process died"):
        run_tasks(_die_hard, [(n,) for n in range(4)], 2)


@pytest.mark.parametrize("n_jobs", [0, -1, 1.5])
def test_bad_n_jobs_is_rejected_without_tasks(n_jobs):
    with pytest.raises(ValueError, match="n_jobs must be a positive integer"):
        run_tasks(_square, [], n_jobs)


def test_cohort_payloads_survive_pickling():
    """Everything a pool task ships across the boundary: numpy state
    arrays, frozen specs, sketches, and traced links."""
    spec = CohortSpec(
        name="pickled",
        n_members=12,
        payloads=((90_000,), (70_000,)),
        n_frames=3,
        rung_map=(0,),
    )
    sketch = QuantileSketch()
    sketch.add(np.asarray([0.01, 0.02, 0.03]), weight=4.0)
    link = WirelessLink.traced(
        BandwidthTrace.step_down(before_mbps=200.0, after_mbps=50.0, at_s=0.05),
        propagation_ms=3.0,
        jitter_ms=0.2,
    )
    state = np.linspace(0.0, 1.0, 7)

    spec_back, sketch_back, link_back, state_back = run_tasks(
        _echo, [(spec,), (sketch,), (link,), (state,)], 2
    )

    assert spec_back == spec
    assert sketch_back == sketch
    assert link_back.at(0.1) == link.at(0.1)
    assert link_back.jitter_ms == link.jitter_ms
    np.testing.assert_array_equal(state_back, state)
