"""The lint engine: rule registry, AST dispatch, and file walking.

One :func:`lint_source` call makes a single pass over the module AST.
Rules declare the node types they care about (:attr:`Rule.node_types`) and
the engine dispatches each visited node to every interested rule, tracking
the lexical scope stack so rules can ask "is this module level?" without
re-walking.  Import aliases are resolved up front so rules match *canonical*
dotted names (``np.random.seed`` and ``from numpy import random`` both
resolve to ``numpy.random.seed``).  Rules disabled by ``--select``/
``--ignore`` never run.

Infrastructure codes (not suppressible rules):

* ``QOS000`` — the file does not parse; nothing else can be checked.
* ``QOS001`` — a suppression comment names a code no rule owns, so it
  silences nothing while looking like it does.
* ``QOS002`` — a suppression names a code that was checked on this run but
  silenced no finding; the excuse has outlived the offence.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple, Type

from repro.lint.config import LintConfig, module_name_for
from repro.lint.findings import Finding, LintSeverity
from repro.lint.suppress import SuppressionIndex

#: Code attached to files that fail to parse.
SYNTAX_ERROR_CODE = "QOS000"

#: Code attached to suppressions naming unknown rule codes.
UNKNOWN_SUPPRESSION_CODE = "QOS001"

#: Code attached to suppressions that silenced nothing on a run where the
#: named rule actually executed.
UNUSED_SUPPRESSION_CODE = "QOS002"


@dataclass
class ModuleContext:
    """Everything a rule may ask about the module being linted.

    Attributes:
        path: File path as given to the linter.
        module: Canonical dotted name (``repro.sim.engine``) or ``""`` for
            files outside the ``repro`` package (tests, benchmarks).
        config: The active :class:`LintConfig`.
        aliases: Local name → canonical dotted module/object, built from
            the file's import statements.
        scope_stack: Enclosing ``FunctionDef``/``ClassDef`` nodes, outermost
            first; empty at module level.  Maintained by the engine during
            traversal.
    """

    path: str
    module: str
    config: LintConfig
    aliases: Dict[str, str] = field(default_factory=dict)
    scope_stack: List[ast.AST] = field(default_factory=list)

    @property
    def at_module_level(self) -> bool:
        """True when the current node is directly in module scope (possibly
        nested in module-level ``if``/``try`` blocks, which still execute at
        import time)."""
        return not self.scope_stack

    @property
    def in_library(self) -> bool:
        return self.config.is_library(self.module)

    @property
    def in_sim_layer(self) -> bool:
        return self.config.is_sim_layer(self.module)

    def qualified_name(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name for a ``Name``/``Attribute`` chain.

        Returns None for anything that is not a plain dotted chain rooted
        in a resolvable name (calls, subscripts, literals...).
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self.aliases.get(current.id, current.id)
        parts.append(root)
        return ".".join(reversed(parts))


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`code`, :attr:`name`, :attr:`rationale`,
    :attr:`severity`, and :attr:`node_types`, then implement :meth:`visit`
    yielding findings for one node.  Rules must be stateless across files —
    one instance checks every file in a run.
    """

    code: str = ""
    name: str = ""
    #: One-sentence justification, surfaced in ``--explain``-style docs
    #: (DESIGN.md) and kept next to the implementation so they cannot drift.
    rationale: str = ""
    severity: LintSeverity = LintSeverity.ERROR
    node_types: Tuple[Type[ast.AST], ...] = ()

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, node: ast.AST, ctx: ModuleContext, message: str
    ) -> Finding:
        """Build a finding anchored at ``node``'s first line."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
            severity=self.severity,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    code = rule_class.code
    if not code:
        raise ValueError(f"{rule_class.__name__} has no code")
    existing = _REGISTRY.get(code)
    if existing is not None and existing is not rule_class:
        raise ValueError(
            f"rule code {code} registered twice "
            f"({existing.__name__} and {rule_class.__name__})"
        )
    _REGISTRY[code] = rule_class
    return rule_class


def all_rules() -> List[Rule]:
    """One instance of every registered rule, sorted by code."""
    # Importing the rules package populates the registry on first use.
    from repro.lint import rules  # noqa: F401

    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def known_codes() -> FrozenSet[str]:
    """All codes a suppression may legitimately name."""
    from repro.lint import rules  # noqa: F401

    return frozenset(_REGISTRY) | {
        SYNTAX_ERROR_CODE,
        UNKNOWN_SUPPRESSION_CODE,
        UNUSED_SUPPRESSION_CODE,
    }


def _collect_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to canonical dotted origins from import statements."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
                else:
                    # ``import numpy.random`` binds the *top* package.
                    top = alias.name.split(".", 1)[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports never reach the banned names
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


class _Dispatcher:
    """Single-pass traversal dispatching nodes to interested rules."""

    def __init__(self, rules: List[Rule], ctx: ModuleContext) -> None:
        self._ctx = ctx
        self._interest: Dict[Type[ast.AST], List[Rule]] = {}
        for rule in rules:
            for node_type in rule.node_types:
                self._interest.setdefault(node_type, []).append(rule)
        self.findings: List[Finding] = []

    def traverse(self, node: ast.AST) -> None:
        for rule in self._interest.get(type(node), ()):
            self.findings.extend(rule.visit(node, self._ctx))
        opens_scope = isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        )
        if opens_scope:
            self._ctx.scope_stack.append(node)
        try:
            for child in ast.iter_child_nodes(node):
                self.traverse(child)
        finally:
            if opens_scope:
                self._ctx.scope_stack.pop()


def lint_source(
    source: str,
    path: str = "<string>",
    config: Optional[LintConfig] = None,
    rules: Optional[List[Rule]] = None,
) -> List[Finding]:
    """Lint one module's source text; returns sorted, filtered findings."""
    config = config if config is not None else LintConfig()
    rules = [
        rule
        for rule in (rules if rules is not None else all_rules())
        if config.code_enabled(rule.code)
    ]
    try:
        tree = ast.parse(source, filename=path)
    except (SyntaxError, ValueError) as exc:
        line = getattr(exc, "lineno", None) or 1
        col = (getattr(exc, "offset", None) or 1) - 1
        return [
            Finding(
                path=path,
                line=line,
                col=max(col, 0),
                code=SYNTAX_ERROR_CODE,
                message=f"file does not parse: {exc.msg if isinstance(exc, SyntaxError) else exc}",
                severity=LintSeverity.ERROR,
            )
        ]

    ctx = ModuleContext(
        path=path,
        module=module_name_for(path),
        config=config,
        aliases=_collect_aliases(tree),
    )
    dispatcher = _Dispatcher(rules, ctx)
    dispatcher.traverse(tree)

    suppressions = SuppressionIndex.scan(source)
    used: Set[Tuple[int, str]] = {
        (finding.line, finding.code)
        for finding in dispatcher.findings
        if suppressions.is_suppressed(finding.line, finding.code)
    }
    findings = [
        finding
        for finding in dispatcher.findings
        if not suppressions.is_suppressed(finding.line, finding.code)
    ]
    if config.code_enabled(UNKNOWN_SUPPRESSION_CODE):
        for line, code in suppressions.unknown_codes(known_codes()):
            findings.append(
                Finding(
                    path=path,
                    line=line,
                    col=0,
                    code=UNKNOWN_SUPPRESSION_CODE,
                    message=(
                        f"suppression names unknown rule code {code!r}; "
                        "it silences nothing (typo?)"
                    ),
                    severity=LintSeverity.ERROR,
                )
            )
    if config.code_enabled(UNUSED_SUPPRESSION_CODE):
        # Only codes a rule actually evaluated on this run count: with
        # ``--select QOS101`` a dormant ``disable=QOS104`` is not evidence
        # of staleness, and arch codes (checked in a separate graph pass)
        # are never judged here.
        checked = {rule.code for rule in rules if rule.node_types}
        for suppression in suppressions.suppressions:
            for code in suppression.codes:
                if code not in checked:
                    continue
                if (suppression.line, code) in used:
                    continue
                findings.append(
                    Finding(
                        path=path,
                        line=suppression.line,
                        col=0,
                        code=UNUSED_SUPPRESSION_CODE,
                        message=(
                            f"suppression of {code} matched no finding; "
                            "remove the stale disable comment"
                        ),
                        severity=LintSeverity.ERROR,
                    )
                )
    return sorted(findings)


def iter_python_files(paths: List[str]) -> Iterator[str]:
    """Yield ``.py`` files under ``paths`` in sorted, deterministic order.

    Directories are walked recursively; caches, VCS internals, and build
    output are skipped.  Raises FileNotFoundError for a missing path.
    """
    skip_dirs = {"__pycache__", ".git", ".hypothesis", "build", "dist"}
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        if not os.path.isdir(path):
            raise FileNotFoundError(f"no such file or directory: {path}")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d
                for d in dirnames
                if d not in skip_dirs and not d.endswith(".egg-info")
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def lint_paths(
    paths: List[str],
    config: Optional[LintConfig] = None,
    arch: bool = False,
) -> Tuple[List[Finding], int]:
    """Lint every Python file under ``paths``.

    With ``arch=True`` the per-file pass is followed by the whole-program
    architecture pass (QOS501 layering, QOS502 cycles) over every scanned
    ``repro`` module; arch findings honour the same ``--select``/
    ``--ignore`` selection and per-line suppression comments.

    Returns:
        ``(findings, files_scanned)`` with findings sorted by location.
    """
    config = config if config is not None else LintConfig()
    rules = all_rules()
    findings: List[Finding] = []
    scanned = 0
    modules: Dict[str, Tuple[str, ast.Module]] = {}
    suppressions_by_path: Dict[str, SuppressionIndex] = {}
    for filename in iter_python_files(paths):
        with open(filename, "r", encoding="utf-8") as handle:
            source = handle.read()
        findings.extend(lint_source(source, filename, config, rules))
        scanned += 1
        if not arch:
            continue
        module = module_name_for(filename)
        if not module:
            continue
        try:
            tree = ast.parse(source, filename=filename)
        except (SyntaxError, ValueError):
            continue  # already reported as QOS000 by lint_source
        modules[module] = (filename, tree)
        suppressions_by_path[filename] = SuppressionIndex.scan(source)
    if arch:
        from repro.lint.arch import check_architecture

        for finding in check_architecture(modules):
            if not config.code_enabled(finding.code):
                continue
            index = suppressions_by_path.get(finding.path)
            if index is not None and index.is_suppressed(
                finding.line, finding.code
            ):
                continue
            findings.append(finding)
    return sorted(findings), scanned
