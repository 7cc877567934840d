"""Process-pool plumbing shared by every parallel path in the library.

Everything CPU-heavy in this library is pure-Python + numpy, so real
parallel speed-ups need processes, not threads.  :func:`run_tasks` is
the one place a process pool is made: fork where the platform offers
it (cheap start-up, so even small batches win), the platform default
(spawn) elsewhere.  Results come back in task order, which keeps every
parallel path bit-identical to its serial equivalent.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

__all__ = ["run_tasks", "BrokenPoolError"]


class BrokenPoolError(RuntimeError):
    """A pool worker died before finishing its task.

    The usual culprit is the OS killing a worker outright — the Linux
    OOM killer under memory pressure, a container runtime enforcing a
    limit, or an explicit SIGKILL.  The pool cannot recover the lost
    work, so callers fail fast with this error instead of returning
    partial results.
    """


_BROKEN_POOL_HINT = (
    "a worker process died before finishing its task (likely killed by "
    "the OS: out-of-memory, container limit, or an explicit signal); "
    "retry with fewer workers (lower n_jobs) or a smaller per-task "
    "footprint"
)


def run_tasks(fn: Callable, tasks: Sequence[tuple], n_jobs: int) -> list:
    """``[fn(*task) for task in tasks]``, fanned over ``n_jobs`` processes.

    Runs in-process when ``n_jobs == 1`` or there is at most one task;
    otherwise ``min(n_jobs, len(tasks))`` workers each take one task at
    a time.  ``fn`` and every task must pickle.  Results are in task
    order whatever the pool width, and an exception raised by ``fn``
    propagates unchanged.

    Raises
    ------
    ValueError
        If ``n_jobs`` is not a positive integer — checked before any
        task runs, even when there are none.
    BrokenPoolError
        If a worker process died (OOM kill, SIGKILL, hard crash)
        before the work completed.
    """
    if not isinstance(n_jobs, int) or n_jobs < 1:
        raise ValueError(f"n_jobs must be a positive integer, got {n_jobs!r}")
    if n_jobs == 1 or len(tasks) <= 1:
        return [fn(*task) for task in tasks]
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    with ProcessPoolExecutor(
        max_workers=min(n_jobs, len(tasks)),
        mp_context=multiprocessing.get_context(method),
    ) as pool:
        futures = [pool.submit(fn, *task) for task in tasks]
        try:
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            raise BrokenPoolError(_BROKEN_POOL_HINT) from exc
