"""QOS5xx — architecture-layer enforcement over the whole import graph.

The per-file rules see one module at a time; these checks see the program.
``probqos lint --arch`` builds the top-level import graph across every
scanned ``repro`` module and enforces two global invariants:

* **QOS501 — layering.**  The library is a stack of layers (see
  :data:`LAYERS`); a module may import from its own layer or any layer
  below it, never from above.  The bands encode who is allowed to know
  about whom: pure numerics at the bottom, instrumentation above it, then
  the deterministic simulation substrate, the input models, the predictors,
  and so on up to the CLI, which may see everything.
* **QOS502 — cycles.**  No import cycles at module granularity, ever.
  Cycles make import order load-bearing and freeze the layering in place;
  Tarjan's SCC algorithm finds every one in linear time.

Only *top-level* imports count.  A deferred ``import`` inside a function is
an explicit, reviewable exception (the engine/rules layers use exactly that
to break a would-be cycle), and ``if TYPE_CHECKING:`` blocks never execute,
so neither constrains the runtime import graph.

The rule classes are registered like every other rule so their codes are
known to ``--select``/``--ignore`` and to suppression comments, but they
declare no node interest: the graph pass in :func:`check_architecture` is
driven from :func:`repro.lint.engine.lint_paths`, not the AST dispatcher.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.lint.engine import ModuleContext, Rule, register
from repro.lint.findings import Finding, LintSeverity

#: The layer stack, bottom (rank 0) first.  Each entry is
#: ``(layer name, dotted module prefixes)``; a module belongs to the entry
#: with the longest matching prefix.  Two packages share a band when their
#: modules legitimately interleave (``core.system`` drives ``scheduling``
#: while ``scheduling.fcfs`` runs ``core.negotiation``; the workload and
#: failure generators consume each other's models) — within a band only the
#: cycle check (QOS502) constrains imports.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("obs", ("repro.obs",)),
    ("sim", ("repro.sim",)),
    ("inputs", ("repro.workload", "repro.failures")),
    ("cluster+prediction", ("repro.cluster", "repro.prediction")),
    ("checkpointing", ("repro.checkpointing",)),
    ("core+scheduling", ("repro.core", "repro.scheduling")),
    ("experiments", ("repro.experiments", "repro.lint")),
    ("cli", ("repro.cli", "repro")),
)


def layer_of(module: str) -> Optional[Tuple[int, str]]:
    """``(rank, layer name)`` for a module, or None for unmapped modules.

    Longest-prefix match, so ``repro.cli`` wins over the bare ``repro``
    root entry.  Unmapped modules (a future package not yet placed in
    :data:`LAYERS`) are skipped rather than guessed at — adding the package
    to the map is part of adding the package.
    """
    best: Optional[Tuple[int, str]] = None
    best_len = -1
    for rank, (name, prefixes) in enumerate(LAYERS):
        for prefix in prefixes:
            if module == prefix or module.startswith(prefix + "."):
                if len(prefix) > best_len:
                    best = (rank, name)
                    best_len = len(prefix)
    return best


@dataclass(frozen=True)
class ImportEdge:
    """One top-level import between two scanned ``repro`` modules."""

    importer: str
    imported: str
    path: str
    line: int
    col: int


def _is_type_checking_test(test: ast.expr) -> bool:
    """Match ``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:`` guards."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


def _top_level_statements(tree: ast.Module) -> Iterator[ast.stmt]:
    """Module statements that execute at import time.

    Descends into module-level ``if``/``try`` bodies (minus
    ``TYPE_CHECKING`` guards and their ``else`` never matters for imports
    we'd miss) but never into function or class bodies.
    """
    pending: List[ast.stmt] = list(tree.body)
    while pending:
        stmt = pending.pop(0)
        if isinstance(stmt, ast.If):
            if _is_type_checking_test(stmt.test):
                pending.extend(stmt.orelse)
                continue
            pending.extend(stmt.body)
            pending.extend(stmt.orelse)
            continue
        if isinstance(stmt, ast.Try):
            pending.extend(stmt.body)
            for handler in stmt.handlers:
                pending.extend(handler.body)
            pending.extend(stmt.orelse)
            pending.extend(stmt.finalbody)
            continue
        yield stmt


def collect_import_edges(
    tree: ast.Module,
    module: str,
    path: str,
    known_modules: Sequence[str],
) -> List[ImportEdge]:
    """Top-level ``repro``-internal import edges out of one module.

    ``from repro.core import metrics`` resolves to ``repro.core.metrics``
    when that is itself a scanned module (importing a symbol from a package
    ``__init__`` otherwise resolves to the package).  Self-imports are
    dropped — a package re-exporting its own submodule is not an edge the
    layering cares about.

    Importing ``repro.x.m`` first runs ``repro/x/__init__.py``, so each
    scanned ancestor package of the target gets an edge too, except the
    root ``repro`` and the packages that contain the importer (already
    initialising when it runs).  A statement yields each edge once, however
    many of its names resolve to the same module.
    """
    known = set(known_modules)
    edges: List[ImportEdge] = []

    def add(target: str, node: ast.stmt) -> None:
        parts = target.split(".")
        ancestors = [
            package
            for package in (".".join(parts[:i]) for i in range(2, len(parts)))
            if package in known and not module.startswith(package + ".")
        ]
        for imported in [target] + ancestors:
            if imported == module:
                continue
            edges.append(
                ImportEdge(
                    importer=module,
                    imported=imported,
                    path=path,
                    line=node.lineno,
                    col=node.col_offset,
                )
            )

    for stmt in _top_level_statements(tree):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    add(alias.name, stmt)
        elif isinstance(stmt, ast.ImportFrom):
            base = stmt.module
            if stmt.level or base is None:
                continue  # the library uses absolute imports throughout
            if base != "repro" and not base.startswith("repro."):
                continue
            for alias in stmt.names:
                candidate = f"{base}.{alias.name}"
                add(candidate if candidate in known else base, stmt)
    return list(dict.fromkeys(edges))


def _layering_findings(edges: Sequence[ImportEdge]) -> List[Finding]:
    findings: List[Finding] = []
    for edge in edges:
        importer = layer_of(edge.importer)
        imported = layer_of(edge.imported)
        if importer is None or imported is None:
            continue
        if imported[0] <= importer[0]:
            continue
        findings.append(
            Finding(
                path=edge.path,
                line=edge.line,
                col=edge.col,
                code=LayeringRule.code,
                message=(
                    f"layer '{importer[1]}' module {edge.importer} imports "
                    f"{edge.imported} from higher layer '{imported[1]}'; "
                    "dependencies must point down the stack "
                    "(see LAYERS in repro.lint.arch)"
                ),
                severity=LintSeverity.ERROR,
            )
        )
    return findings


def _strongly_connected(
    edges: Sequence[ImportEdge],
) -> List[List[str]]:
    """Tarjan's algorithm, iterative; returns SCCs with more than one node.

    Only edges between scanned modules participate (an import of a module
    outside the scanned set cannot close a cycle we can report on).
    """
    graph: Dict[str, List[str]] = {}
    for edge in edges:
        graph.setdefault(edge.importer, []).append(edge.imported)
        graph.setdefault(edge.imported, [])

    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    stack: List[str] = []
    counter = 0
    sccs: List[List[str]] = []

    for root in sorted(graph):
        if root in index:
            continue
        # Each frame is (node, iterator position into its successors).
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, pos = work.pop()
            if pos == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            successors = graph[node]
            advanced = False
            for i in range(pos, len(successors)):
                succ = successors[i]
                if succ not in index:
                    work.append((node, i + 1))
                    work.append((succ, 0))
                    advanced = True
                    break
                if on_stack.get(succ):
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            if low[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


def _cycle_findings(edges: Sequence[ImportEdge]) -> List[Finding]:
    findings: List[Finding] = []
    by_importer: Dict[str, List[ImportEdge]] = {}
    for edge in edges:
        by_importer.setdefault(edge.importer, []).append(edge)
    for component in _strongly_connected(edges):
        members = set(component)
        cycle = " <-> ".join(component)
        # One finding per in-cycle edge: each import line is independently
        # actionable (and independently suppressable).
        for member in component:
            for edge in by_importer.get(member, ()):
                if edge.imported in members:
                    findings.append(
                        Finding(
                            path=edge.path,
                            line=edge.line,
                            col=edge.col,
                            code=CycleRule.code,
                            message=(
                                f"import cycle among {{{cycle}}}: "
                                f"{edge.importer} imports {edge.imported}; "
                                "break the cycle with a deferred "
                                "(function-scoped) import or by moving the "
                                "shared piece down a layer"
                            ),
                            severity=LintSeverity.ERROR,
                        )
                    )
    return findings


def check_architecture(
    modules: Dict[str, Tuple[str, ast.Module]],
) -> List[Finding]:
    """Run both graph checks over ``{module: (path, tree)}``; sorted."""
    edges: List[ImportEdge] = []
    known = list(modules)
    for module, (path, tree) in sorted(modules.items()):
        edges.extend(collect_import_edges(tree, module, path, known))
    return sorted(_layering_findings(edges) + _cycle_findings(edges))


@register
class LayeringRule(Rule):
    """QOS501 — marker class carrying the code, docs, and severity.

    Never dispatched per node; :func:`check_architecture` emits the
    findings.  Registering it keeps ``--select QOS501`` and suppression
    comments honest.
    """

    code = "QOS501"
    name = "arch-layering"
    rationale = (
        "an upward import makes a lower layer depend on policy above it, "
        "and the next refactor either breaks or ossifies around it"
    )
    severity = LintSeverity.ERROR
    node_types: Tuple = ()

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        return iter(())


@register
class CycleRule(Rule):
    """QOS502 — marker class for the import-cycle check."""

    code = "QOS502"
    name = "arch-cycle"
    rationale = (
        "an import cycle makes module initialisation order load-bearing; "
        "whether it works depends on who gets imported first"
    )
    severity = LintSeverity.ERROR
    node_types: Tuple = ()

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        return iter(())
