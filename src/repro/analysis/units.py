"""RPR1xx — unit-suffix dimensional analysis.

The convention that ``_s``/``_ms``/``_bits``/... names carry their
unit is only worth anything if no expression silently mixes them.
These rules flag the three ways a mix-up enters the tree:

* **RPR101** — additive arithmetic or comparison between two names
  with conflicting unit suffixes (``backlog_s + jitter_ms``).
  Multiplication and division are exempt: they legitimately *change*
  dimension (``payload_bits / time_s`` is a rate).  An operand that is
  itself arithmetic (``jitter_ms / 1000.0``) is assumed to be the
  conversion and is not matched.
* **RPR102** — a call-site keyword whose name claims one unit bound to
  a value claiming another (``f(timeout_s=delay_ms)``).
* **RPR103** — a function whose *name* claims a unit returning a bare
  name that claims a different one (``def duration_ms(): return
  elapsed_s``).
* **RPR104** — a positional argument with a unit suffix passed to a
  parameter with a conflicting suffix, for callees resolvable inside
  the same module (module-level functions called by name, methods
  called via ``self.``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding, ModuleContext, register_rule
from .unitnames import describe, unit_of, unit_of_node

#: The rules are read through the rule table, not by name.
__all__: list[str] = []

#: Operators whose operands must share a unit.  Mult/Div/Pow/etc. are
#: dimension-changing and deliberately absent.
_ADDITIVE = (ast.Add, ast.Sub)
_COMPARISONS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


def _mismatch(node_a: ast.AST, node_b: ast.AST) -> tuple[str, str, str, str] | None:
    """(name_a, unit_a, name_b, unit_b) when both sides claim units that differ."""
    a = unit_of_node(node_a)
    b = unit_of_node(node_b)
    if a is None or b is None or a[1] == b[1]:
        return None
    return a[0], a[1], b[0], b[1]


@register_rule("RPR101", "arithmetic/comparison mixes conflicting unit suffixes")
def _check_rpr101(tree: ast.Module, ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(tree):
        pairs: list[tuple[ast.AST, ast.AST, ast.AST]] = []
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ADDITIVE):
            pairs.append((node.left, node.right, node))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, _ADDITIVE):
            pairs.append((node.target, node.value, node))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(op, _COMPARISONS):
                    pairs.append((left, right, node))
        for left, right, site in pairs:
            hit = _mismatch(left, right)
            if hit:
                name_a, unit_a, name_b, unit_b = hit
                yield Finding(
                    ctx.path, site.lineno, site.col_offset, "RPR101",
                    f"`{name_a}` (_{unit_a}) combined with `{name_b}` "
                    f"(_{unit_b}): {describe(unit_a, unit_b)}",
                )


@register_rule("RPR102", "keyword argument unit suffix conflicts with its value")
def _check_rpr102(tree: ast.Module, ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        for kw in node.keywords:
            if kw.arg is None:
                continue
            kw_unit = unit_of(kw.arg)
            if kw_unit is None:
                continue
            value = unit_of_node(kw.value)
            if value is None or value[1] == kw_unit:
                continue
            name, unit = value
            yield Finding(
                ctx.path, kw.value.lineno, kw.value.col_offset, "RPR102",
                f"keyword `{kw.arg}=` (_{kw_unit}) receives `{name}` "
                f"(_{unit}): {describe(kw_unit, unit)}",
            )


def _function_returns(fn: ast.AST) -> Iterator[ast.Return]:
    """Return statements belonging to ``fn`` itself (not nested defs)."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Return):
            yield node
        stack.extend(ast.iter_child_nodes(node))


@register_rule("RPR103", "function name unit suffix conflicts with returned name")
def _check_rpr103(tree: ast.Module, ctx: ModuleContext) -> Iterator[Finding]:
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        fn_unit = unit_of(fn.name)
        if fn_unit is None:
            continue
        for ret in _function_returns(fn):
            if ret.value is None:
                continue
            value = unit_of_node(ret.value)
            if value is None or value[1] == fn_unit:
                continue
            name, unit = value
            yield Finding(
                ctx.path, ret.lineno, ret.col_offset, "RPR103",
                f"`{fn.name}()` (_{fn_unit}) returns `{name}` "
                f"(_{unit}): {describe(fn_unit, unit)}",
            )


def _positional_params(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, *, method: bool
) -> list[str] | None:
    """Positional parameter names, or ``None`` when *args defeats matching."""
    if fn.args.vararg is not None:
        return None
    names = [a.arg for a in (*fn.args.posonlyargs, *fn.args.args)]
    if method and names:
        names = names[1:]  # drop self/cls
    return names


#: name -> positional params, for callees resolvable without guessing.
_Callees = dict[str, "list[str] | None"]


def _collect_callees(tree: ast.Module) -> tuple[_Callees, _Callees]:
    """Maps of unambiguous same-module callees: by bare name, by ``self.`` name.

    A name defined more than once (overloads, per-class duplicates)
    maps to ``None`` params via a sentinel drop — ambiguity silences
    the rule rather than guessing.
    """
    functions: dict[str, list[str] | None] = {}
    methods: dict[str, list[str] | None] = {}
    seen_fn: set[str] = set()
    seen_method: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in seen_fn:
                functions.pop(node.name, None)
            else:
                seen_fn.add(node.name)
                functions[node.name] = _positional_params(node, method=False)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if item.name in seen_method:
                        methods.pop(item.name, None)
                    else:
                        seen_method.add(item.name)
                        methods[item.name] = _positional_params(item, method=True)
    return functions, methods


@register_rule("RPR104", "positional argument unit suffix conflicts with the parameter")
def _check_rpr104(tree: ast.Module, ctx: ModuleContext) -> Iterator[Finding]:
    functions, methods = _collect_callees(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        params: list[str] | None = None
        if isinstance(node.func, ast.Name):
            params = functions.get(node.func.id)
        elif (
            isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            params = methods.get(node.func.attr)
        if not params:
            continue
        for arg, param in zip(node.args, params):
            if isinstance(arg, ast.Starred):
                break
            param_unit = unit_of(param)
            if param_unit is None:
                continue
            value = unit_of_node(arg)
            if value is None or value[1] == param_unit:
                continue
            name, unit = value
            yield Finding(
                ctx.path, arg.lineno, arg.col_offset, "RPR104",
                f"parameter `{param}` (_{param_unit}) receives `{name}` "
                f"(_{unit}): {describe(param_unit, unit)}",
            )
