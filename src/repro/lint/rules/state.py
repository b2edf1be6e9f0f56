"""QOS107 — module-level mutable state in sim packages.

A module-level list/dict/set in a sim layer is process-global state shared
by every simulation in the process: memoised sweeps, parallel workers
after fork, and back-to-back replication runs all see whatever the previous
run left behind.  Constants belong in immutable containers (tuple,
frozenset, ``types.MappingProxyType``); anything genuinely mutable belongs
on the object that owns its lifecycle.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.engine import ModuleContext, Rule, register
from repro.lint.findings import Finding, LintSeverity

_MUTABLE_CONSTRUCTORS = frozenset(
    {
        "Counter",
        "OrderedDict",
        "bytearray",
        "defaultdict",
        "deque",
        "dict",
        "list",
        "set",
    }
)


def _mutable_value(node: ast.AST) -> Optional[str]:
    if isinstance(node, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CONSTRUCTORS
    ):
        return f"{node.func.id}(...)"
    return None


def _all_dunder_targets(node: ast.AST) -> bool:
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    elif isinstance(node, ast.Assign):
        targets = node.targets
    else:
        return False
    return all(
        isinstance(target, ast.Name)
        and target.id.startswith("__")
        and target.id.endswith("__")
        for target in targets
    )


@register
class ModuleMutableStateRule(Rule):
    code = "QOS107"
    name = "module-mutable-state"
    rationale = (
        "module-level mutable containers in sim packages are process-global "
        "state leaking between runs; use tuple/frozenset/MappingProxyType "
        "or move the state onto its owning object"
    )
    severity = LintSeverity.ERROR
    node_types = (ast.Assign, ast.AnnAssign)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_sim_layer or not ctx.at_module_level:
            return
        # Dunder metadata (__all__ = [...]) is read-only by convention and
        # consumed by the import system, not by simulations.
        if _all_dunder_targets(node):
            return
        value = node.value
        if value is None:  # annotation-only AnnAssign
            return
        description = _mutable_value(value)
        if description is not None:
            yield self.finding(
                node,
                ctx,
                f"module-level mutable {description} in a sim package is "
                "shared global state; use an immutable container (tuple, "
                "frozenset, types.MappingProxyType) or move it onto the "
                "owning object",
            )
