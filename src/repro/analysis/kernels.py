"""RPR4xx — kernel purity (no per-element Python loops).

PR 5 replaced the per-field bitstream loops with NumPy bit-plane
kernels for an ~18x speedup; a kernel module regressing to a
per-element Python loop silently undoes that.  The discriminator is
the *extent* of the loop: iterating bit planes (``range(width)``) or
distinct widths (``np.unique(widths)``) is O(small-constant) and
fine; iterating an extent tied to the data size — ``range(len(x))``,
``range(x.size)``, ``range(x.shape[0])``, ``np.ndindex(...)``, or an
ndarray-annotated parameter directly — executes interpreter-level
Python once per element and is flagged as **RPR401**.

A module is a kernel module when the driver's configuration says so
(``repro.encoding.packing`` by default) or when it declares itself
with a ``# repro: kernel-module`` pragma comment.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .determinism import dotted_name
from .findings import Finding, ModuleContext, register_rule

__all__ = ["KERNEL_MODULES", "KERNEL_PRAGMA"]

#: Modules promising vectorized (no per-element Python) inner loops.
KERNEL_MODULES: tuple[str, ...] = ("repro.encoding.packing",)

#: Comment pragma opting any module into the RPR4xx checks.
KERNEL_PRAGMA = "# repro: kernel-module"

#: Attributes of an array whose appearance in a loop extent marks the
#: loop as data-sized.
_SIZE_ATTRS = frozenset({"size", "shape"})


def _mentions_data_extent(node: ast.AST) -> bool:
    """Whether an expression's value scales with an array's size."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
            if sub.func.id == "len":
                return True
        if isinstance(sub, ast.Attribute) and sub.attr in _SIZE_ATTRS:
            return True
    return False


def _ndarray_params(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Parameter names annotated as numpy arrays."""
    names: set[str] = set()
    for arg in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs):
        if arg.annotation is None:
            continue
        text = ast.unparse(arg.annotation)
        if "np.ndarray" in text or "numpy.ndarray" in text:
            names.add(arg.arg)
    return names


def _loop_is_per_element(node: ast.For | ast.While, array_names: set[str]) -> str | None:
    """A reason string when the loop runs once per array element."""
    if isinstance(node, ast.While):
        if _mentions_data_extent(node.test):
            return "`while` over a data-sized extent"
        return None
    it = node.iter
    dotted = dotted_name(it.func) if isinstance(it, ast.Call) else None
    if dotted in ("range", "enumerate"):
        inner = it.args[0] if it.args else None
        if any(_mentions_data_extent(arg) for arg in it.args):
            return f"`{dotted}()` over a data-sized extent"
        if dotted == "enumerate" and isinstance(inner, ast.Name) and inner.id in array_names:
            return "`enumerate()` over an ndarray parameter"
        return None
    if dotted in ("np.ndindex", "numpy.ndindex", "np.nditer", "numpy.nditer"):
        return f"`{dotted}()` iterates every element"
    if isinstance(it, ast.Name) and it.id in array_names:
        return "direct iteration over an ndarray parameter"
    return None


def _scan(
    node: ast.AST, ctx: ModuleContext, scope: str, array_names: set[str]
) -> Iterator[Finding]:
    """Depth-first loop scan attributing each loop to its nearest scope."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scan(child, ctx, child.name, _ndarray_params(child))
            continue
        if isinstance(child, (ast.For, ast.While)):
            reason = _loop_is_per_element(child, array_names)
            if reason:
                yield Finding(
                    ctx.path, child.lineno, child.col_offset, "RPR401",
                    f"{reason} in kernel `{scope}`: per-element Python "
                    "undoes the vectorized kernels; express this as array "
                    "operations (bit-plane/`np.packbits` style)",
                )
        yield from _scan(child, ctx, scope, array_names)


@register_rule("RPR401", "per-element Python loop in a kernel module")
def _check_rpr401(tree: ast.Module, ctx: ModuleContext) -> Iterator[Finding]:
    if not ctx.kernel:
        return
    yield from _scan(tree, ctx, "<module>", set())
