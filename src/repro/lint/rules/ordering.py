"""QOS103 — set/dict-order dependence in sim layers.

CPython set iteration order depends on insertion history and hash values;
dict-key order encodes insertion order.  Neither is part of any sim-layer
API contract, so code that *iterates* an unordered collection into results
(event scheduling, node selection, metric aggregation) must wrap it in
``sorted(...)``, and sim-layer APIs must not *return* bare sets for callers
to iterate.  The second check is what caught ``Cluster.running_jobs``
returning ``Set[int]`` straight into the EASY backfill release scan.

The rule also follows a set through a *local name*.  A name is set-valued
when every binding of it in its scope is a set literal or comprehension,
``set(...)``/``frozenset(...)``, set algebra, or a ``.copy()``/
``.union(...)``-style call on such a value; iterating it, returning it, or
freezing it with ``list(...)``/``tuple(...)`` (including ``list(set(x))``)
is flagged.  The check is flow-insensitive: a name ever rebound to
anything else (``pending = sorted(pending)``, a parameter) is not
set-valued, so it errs towards silence.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import ModuleContext, Rule, register
from repro.lint.findings import Finding, LintSeverity

#: Annotation heads that denote an unordered set type.
_SET_ANNOTATIONS = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)

#: Operators that turn a set operand into a new set.
_SET_ALGEBRA = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

#: Set methods that return a new set.
_SET_METHODS = frozenset(
    {"copy", "union", "intersection", "difference", "symmetric_difference"}
)

#: Calls that freeze their argument's iteration order into a sequence.
_MATERIALIZERS = frozenset({"list", "tuple"})

#: Nodes that open a scope the engine dispatches on its own.  Lambdas
#: cannot bind names (their parameters aside), so they stay in the
#: enclosing scope.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _annotation_head(annotation: ast.AST) -> Optional[str]:
    """Base name of an annotation: ``Set[int]`` → ``Set``; ``set`` → ``set``."""
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):  # typing.Set[...]
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Nodes of ``scope``'s own body: nested defs and classes are yielded
    but not entered."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _is_set(node: Optional[ast.AST], names: FrozenSet[str]) -> bool:
    """Whether ``node`` builds a set, given the set-valued ``names``."""
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, _SET_ALGEBRA) and (
            _is_set(node.left, names) or _is_set(node.right, names)
        )
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in ("set", "frozenset")
        return (
            isinstance(func, ast.Attribute)
            and func.attr in _SET_METHODS
            and _is_set(func.value, names)
        )
    return False


def _set_names(nodes: List[ast.AST]) -> FrozenSet[str]:
    """Names whose every binding in the scope is set-valued.

    Each binding is recorded with its value, or None when the bound value
    is unknown (parameters, loop targets, unpacking, imports...).
    """
    bindings: Dict[str, List[Optional[ast.AST]]] = {}
    valued: Set[int] = set()
    for node in nodes:
        pairs: List[Tuple[ast.expr, Optional[ast.expr]]]
        if isinstance(node, ast.Assign):
            pairs = [(target, node.value) for target in node.targets]
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)) and node.value:
            pairs = [(node.target, node.value)]
        elif isinstance(node, ast.AugAssign):
            keeps = isinstance(node.op, _SET_ALGEBRA)
            pairs = [(node.target, node.target if keeps else None)]
        else:
            continue
        for target, value in pairs:
            if isinstance(target, ast.Name):
                bindings.setdefault(target.id, []).append(value)
                valued.add(id(target))
    unknown: List[str] = []
    for node in nodes:
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            if id(node) not in valued:
                unknown.append(node.id)
        elif isinstance(node, ast.arg):
            unknown.append(node.arg)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            unknown.extend(node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            unknown.extend(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, _SCOPES):
            unknown.append(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            unknown.append(node.name)
    for name in unknown:
        bindings.setdefault(name, []).append(None)
    # Greatest fixpoint: drop names with a binding that is not a set until
    # the survivors only ever hold sets (``b = a`` keeps ``b`` iff ``a``).
    names = frozenset(n for n, values in bindings.items() if None not in values)
    while True:
        kept = frozenset(
            n for n in names if all(_is_set(v, names) for v in bindings[n])
        )
        if kept == names:
            return names
        names = kept


def _describe(expr: ast.AST) -> str:
    """How a finding names the set it reports."""
    if isinstance(expr, ast.Name):
        return f"set-valued name {expr.id!r}"
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return f"{expr.func.id}(...)"
    if isinstance(expr, ast.Set):
        return "a set literal"
    if isinstance(expr, ast.SetComp):
        return "a set comprehension"
    return "set algebra"


@register
class UnorderedIterationRule(Rule):
    code = "QOS103"
    name = "unordered-iteration"
    rationale = (
        "set and dict-key iteration order is an accident of insertion "
        "history; sim-layer results must come from sorted(...) sequences"
    )
    severity = LintSeverity.ERROR
    node_types = (ast.Module,) + _SCOPES

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_sim_layer:
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            head = (
                _annotation_head(node.returns)
                if node.returns is not None
                else None
            )
            if head in _SET_ANNOTATIONS:
                yield self.finding(
                    node,
                    ctx,
                    f"sim-layer function {node.name}() returns an unordered "
                    "set; return a sorted sequence so callers cannot depend "
                    "on set iteration order",
                )
        yield from self._scope_findings(node, ctx)

    def _scope_findings(
        self, scope: ast.AST, ctx: ModuleContext
    ) -> Iterator[Finding]:
        """Sets (and ``.keys()``) iterated, and set-valued names returned
        or materialised, in ``scope``'s own body."""
        nodes = list(_scope_nodes(scope))
        names = _set_names(nodes)
        for node in nodes:
            if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                expr = node.iter
                keys = (
                    isinstance(expr, ast.Call)
                    and isinstance(expr.func, ast.Attribute)
                    and expr.func.attr == "keys"
                )
                if keys or _is_set(expr, names):
                    what = ".keys()" if keys else _describe(expr)
                    yield self.finding(
                        expr,
                        ctx,
                        f"iteration over {what} in a sim layer; wrap it in "
                        "sorted(...) (or iterate the dict itself for "
                        "insertion order, stating why that order is "
                        "deterministic)",
                    )
            elif isinstance(node, ast.Return):
                if isinstance(node.value, ast.Name) and node.value.id in names:
                    yield self.finding(
                        node.value,
                        ctx,
                        f"{_describe(node.value)} is returned from a sim "
                        "layer; return sorted(...) so callers cannot depend "
                        "on its hash order",
                    )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _MATERIALIZERS
                and len(node.args) == 1
                and not node.keywords
                and _is_set(node.args[0], names)
            ):
                yield self.finding(
                    node,
                    ctx,
                    f"{node.func.id}(...) of {_describe(node.args[0])} in a "
                    "sim layer freezes hash order into a sequence; use "
                    "sorted(...)",
                )
