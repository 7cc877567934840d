"""Per-layer timing wrappers installed from outside the package.

The benchmark measures layers by replacing public functions and methods
of ``repro`` modules at run time; nothing under ``src/`` knows it is
being timed.  Callers often bind a function at import time
(``from .optimizer import optimize_tiles``), so a module-level function
is replaced in *every* loaded ``repro`` module that holds it, not only
where it is defined.  Methods are replaced on the class that defines
them, which covers every instance and subclass.

Spans are kept in memory and written at the end as Chrome trace-event
JSON (open it in Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

#: Spans kept for the trace file; aggregates count every call regardless.
MAX_SPANS = 100_000


class LayerStats:
    """Aggregate of one layer: calls, inclusive and self seconds."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Span recorder with self-time accounting.

    A layer's self time is its span's duration minus the time covered
    by child spans (wrapped calls made while it was open).
    """

    def __init__(self):
        self.layers: dict[str, LayerStats] = {}
        self.spans: list[tuple[str, float, float, int, int, int]] = []
        self.dropped_spans = 0
        #: Wrappers pass straight through while this is false.
        self.active = False
        #: Index of the workload op in progress; spans of one op share it.
        self.op = 0
        self._stack: list[list] = []  # [layer, start_s, child_s, span_id]
        self._next_id = 0
        self._origin = time.perf_counter()
        #: layer -> callable(args, kwargs) run before each call, untimed.
        self.hooks: dict[str, object] = {}

    def reset_stats(self) -> None:
        """Forget the aggregates (spans already recorded stay)."""
        self.layers = {}

    def stats(self, layer: str) -> LayerStats:
        stats = self.layers.get(layer)
        if stats is None:
            stats = self.layers[layer] = LayerStats()
        return stats

    def _enter(self, layer: str) -> list:
        self._next_id += 1
        frame = [layer, time.perf_counter(), 0.0, self._next_id]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        layer, start, child_s, span_id = frame
        popped = self._stack.pop()
        if popped is not frame:  # pragma: no cover - wrapper misuse
            raise RuntimeError(f"span stack corrupted at {layer}")
        duration = end - start
        stats = self.stats(layer)
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - child_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                (layer, start, end, span_id, parent[3] if parent is not None else 0, self.op)
            )
        else:
            self.dropped_spans += 1

    def wrap(self, layer: str, fn):
        """A timed stand-in for ``fn`` (generators are timed per resume)."""
        tracer = self
        hook = self.hooks.get(layer)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not tracer.active:
                    yield from gen
                    return
                while True:
                    frame = tracer._enter(layer)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if hook is not None:
                # Bookkeeping, not layer work: hide it from the parent's
                # self time by booking it as child time.
                started = time.perf_counter()
                hook(args, kwargs)
                if tracer._stack:
                    tracer._stack[-1][2] += time.perf_counter() - started
            frame = tracer._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return wrapper

    def chrome_trace(self) -> dict:
        """Spans as Chrome trace-event JSON (complete ``X`` events)."""
        events = [
            {
                "name": layer,
                "cat": layer.split(".", 1)[0],
                "ph": "X",
                "ts": (start - self._origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent_id, "op": op},
            }
            for layer, start, end, span_id, parent_id, op in self.spans
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": self.dropped_spans},
        }

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)


def _resolve(target: str):
    """``"module:Class.attr"`` or ``"module:func"`` -> (owner, attr, original)."""
    module_name, _, qualname = target.partition(":")
    module = sys.modules.get(module_name)
    if module is None:
        module = __import__(module_name, fromlist=["_"])
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            raise AttributeError(f"{target}: {owner.__name__} does not define {attr}")
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


@contextmanager
def installed(tracer: Tracer, layers: dict[str, tuple[str, ...]]):
    """Install timing wrappers for ``layers`` and restore on exit.

    ``layers`` maps a layer name to the targets timed as that layer.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for layer, targets in layers.items():
            for target in targets:
                owner, attr, original = _resolve(target)
                wrapper = tracer.wrap(layer, original)
                if isinstance(owner, type):
                    undo.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                # Rebind the function wherever a repro module imported it.
                for name, module in list(sys.modules.items()):
                    if module is None or not (name == "repro" or name.startswith("repro.")):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
