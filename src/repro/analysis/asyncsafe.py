"""RPR3xx — asyncio safety for the serving path.

``repro.serving`` runs every connection on one event loop; a single
blocking call stalls *all* clients, a dropped task reference lets the
garbage collector silently cancel work, and a ``write()`` that never
reaches ``drain()`` disables backpressure and buffers without bound.
All three are lexically checkable:

* **RPR301** — a known-blocking call (``time.sleep``, builtin
  ``open``, ``subprocess.*``, ``socket.create_connection``, a
  ``Future.result()``) in the immediate body of an ``async def``.
  Nested ``def``/``lambda`` bodies are exempt: wrapping blocking work
  in a callable for ``run_in_executor`` is the *fix*, not the bug.
* **RPR302** — ``asyncio.create_task(...)`` as a bare expression
  statement: the task is neither awaited nor retained, so it can be
  garbage-collected mid-flight and its exceptions vanish.
* **RPR303** — an ``async def`` that calls ``.write(...)`` but never
  calls ``.drain(...)`` anywhere in its body (nested sync helpers
  included): the transport buffer grows unboundedly under a slow
  reader.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .determinism import dotted_name
from .findings import Finding, ModuleContext, register_rule

#: The rules are read through the rule table, not by name.
__all__: list[str] = []

_BLOCKING_DOTTED = frozenset({
    "time.sleep",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "socket.create_connection", "socket.getaddrinfo",
    "urllib.request.urlopen",
})
_BLOCKING_BUILTINS = frozenset({"open", "input"})


def _immediate_body(fn: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Nodes lexically inside ``fn`` but not inside nested functions."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _whole_body(fn: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Nodes inside ``fn`` including nested *sync* helpers (they run on
    the loop thread too); nested ``async def`` get their own check."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.AsyncFunctionDef):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _async_defs(tree: ast.Module) -> Iterator[ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.AsyncFunctionDef):
            yield node


@register_rule("RPR301", "blocking call in the immediate body of an `async def`")
def _check_rpr301(tree: ast.Module, ctx: ModuleContext) -> Iterator[Finding]:
    for fn in _async_defs(tree):
        for node in _immediate_body(fn):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted in _BLOCKING_DOTTED or dotted in _BLOCKING_BUILTINS:
                yield Finding(
                    ctx.path, node.lineno, node.col_offset, "RPR301",
                    f"`{dotted}()` blocks the event loop inside "
                    f"`async def {fn.name}`; await the async equivalent or "
                    "push it through `run_in_executor`",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "result"
                and not node.args
            ):
                receiver = dotted_name(node.func.value) or "<expr>"
                yield Finding(
                    ctx.path, node.lineno, node.col_offset, "RPR301",
                    f"`{receiver}.result()` blocks (or raises) inside "
                    f"`async def {fn.name}`; await the future instead",
                )


@register_rule("RPR302", "`asyncio.create_task` result dropped (task may be GC'd)")
def _check_rpr302(tree: ast.Module, ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
            continue
        dotted = dotted_name(node.value.func)
        if dotted in ("asyncio.create_task", "asyncio.ensure_future"):
            yield Finding(
                ctx.path, node.lineno, node.col_offset, "RPR302",
                f"`{dotted}(...)` result is discarded: the event loop keeps "
                "only a weak reference, so the task can be garbage-collected "
                "mid-flight; retain it and await/cancel it on shutdown",
            )


@register_rule("RPR303", "`.write()` in an `async def` with no reachable `.drain()`")
def _check_rpr303(tree: ast.Module, ctx: ModuleContext) -> Iterator[Finding]:
    for fn in _async_defs(tree):
        writes: list[ast.Call] = []
        has_drain = False
        for node in _whole_body(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "write":
                    writes.append(node)
                elif node.func.attr == "drain":
                    has_drain = True
        if has_drain:
            continue
        for call in writes:
            receiver = dotted_name(call.func.value) or "<expr>"
            yield Finding(
                ctx.path, call.lineno, call.col_offset, "RPR303",
                f"`{receiver}.write(...)` in `async def {fn.name}` with no "
                "`drain()` anywhere in the function: backpressure is "
                "disabled and the send buffer can grow without bound",
            )
