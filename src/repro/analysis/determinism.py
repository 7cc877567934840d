"""RPR2xx — determinism (no wall clocks, no unseeded global RNGs).

The engine, codecs, and perceptual model promise a *hyperproperty*:
two runs with the same seed produce bit-identical output.  No single
trace can witness it, but its standard violations are lexically
visible — a wall-clock read, the stdlib ``random`` module, or
numpy's legacy global RNG — so these rules ban the constructs
outright inside the deterministic packages.  Randomness must flow
through an injected ``numpy.random.Generator`` (spawned from
``SeedSequence``), and time must come from the simulated clock.

* **RPR201** — wall-clock reads (``time.time()``, ``perf_counter``,
  ``datetime.now()``...) inside a deterministic package.
* **RPR202** — the stdlib ``random`` module (import or call) inside a
  deterministic package.
* **RPR203** — numpy *legacy global* RNG calls (``np.random.rand``,
  ``np.random.seed``, ``np.random.normal``...) anywhere in the tree;
  only the ``Generator``/``SeedSequence`` construction surface is
  allowed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding, ModuleContext, register_rule

__all__ = ["DETERMINISTIC_PACKAGES", "dotted_name"]

#: Packages promising bit-for-bit determinism under a fixed seed.
DETERMINISTIC_PACKAGES: tuple[str, ...] = (
    "repro.streaming",
    "repro.codecs",
    "repro.encoding",
    "repro.perception",
)

#: Dotted call names that read a wall clock.  Bare forms cover
#: ``from datetime import datetime; datetime.now()``.
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today", "datetime.date.today",
})

#: The seedable construction surface of ``numpy.random`` — everything
#: else on the module is legacy global-state API.
_SEEDED_NP_RANDOM = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@register_rule("RPR201", "wall-clock read inside a deterministic package")
def _check_rpr201(tree: ast.Module, ctx: ModuleContext) -> Iterator[Finding]:
    if not ctx.in_package(DETERMINISTIC_PACKAGES):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_name(node.func)
        if dotted in _WALL_CLOCK:
            yield Finding(
                ctx.path, node.lineno, node.col_offset, "RPR201",
                f"`{dotted}()` reads the wall clock; deterministic code "
                "must take time from the simulated clock",
            )


@register_rule("RPR202", "stdlib `random` module inside a deterministic package")
def _check_rpr202(tree: ast.Module, ctx: ModuleContext) -> Iterator[Finding]:
    if not ctx.in_package(DETERMINISTIC_PACKAGES):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield Finding(
                        ctx.path, node.lineno, node.col_offset, "RPR202",
                        "stdlib `random` is process-global state; inject a "
                        "`numpy.random.Generator` instead",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random" and node.level == 0:
                yield Finding(
                    ctx.path, node.lineno, node.col_offset, "RPR202",
                    "stdlib `random` is process-global state; inject a "
                    "`numpy.random.Generator` instead",
                )
        elif isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            if dotted is not None and dotted.startswith("random."):
                yield Finding(
                    ctx.path, node.lineno, node.col_offset, "RPR202",
                    f"`{dotted}()` draws from process-global state; inject "
                    "a `numpy.random.Generator` instead",
                )


@register_rule("RPR203", "numpy legacy global RNG call (seed does not flow)")
def _check_rpr203(tree: ast.Module, ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_name(node.func)
        if dotted is None:
            continue
        for prefix in ("np.random.", "numpy.random."):
            if dotted.startswith(prefix):
                tail = dotted[len(prefix):]
                if tail.split(".")[0] not in _SEEDED_NP_RANDOM:
                    yield Finding(
                        ctx.path, node.lineno, node.col_offset, "RPR203",
                        f"`{dotted}()` uses numpy's legacy global RNG; "
                        "seeds must flow through `default_rng`/`SeedSequence`",
                    )
                break
