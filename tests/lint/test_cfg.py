"""CFG builder unit tests plus the whole-repo corpus invariant.

The corpus test is the load-bearing one: every function in ``src/`` must
lower to a CFG whose elements cover each statement exactly once, and the
taint analysis must reach a fixpoint on it.
A builder bug that only bites on some real control-flow shape (nested
try/finally, loop-else, match) shows up here before it ships as a
mysteriously silent rule.
"""

from __future__ import annotations

import ast
import pathlib
import textwrap

import pytest

from repro.lint.cfg import build_cfg, element_expressions
from repro.lint.config import LintConfig, module_name_for
from repro.lint.dataflow import TaintAnalysis
from repro.lint.engine import ModuleContext, _collect_aliases

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def cfg_of(source: str):
    tree = ast.parse(textwrap.dedent(source))
    function = tree.body[0]
    assert isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
    return build_cfg(function)


def statement_nodes(cfg):
    return [element.node for element in cfg.elements()]


class TestStructure:
    def test_linear_body_single_chain(self):
        cfg = cfg_of(
            """
            def f(x):
                a = x + 1
                b = a * 2
                return b
            """
        )
        kinds = [type(n).__name__ for n in statement_nodes(cfg)]
        assert kinds == ["Assign", "Assign", "Return"]

    def test_if_else_branches_join(self):
        cfg = cfg_of(
            """
            def f(x):
                if x:
                    y = 1
                else:
                    y = 2
                return y
            """
        )
        headers = [e for e in cfg.elements() if e.header]
        assert len(headers) == 1
        assert isinstance(headers[0].node, ast.If)
        # The header's block fans out to both branch blocks.
        header_block = next(
            b for b in cfg.blocks if any(e.header for e in b.elements)
        )
        assert len(header_block.successors) == 2

    def test_while_has_back_edge(self):
        cfg = cfg_of(
            """
            def f(n):
                while n > 0:
                    n = n - 1
                return n
            """
        )
        header_block = next(
            b for b in cfg.blocks if any(e.header for e in b.elements)
        )
        # Some block inside the loop links back to the header.
        assert any(
            header_block in b.successors
            for b in cfg.blocks
            if b is not header_block
        )

    def test_return_links_exit_and_dead_code_still_lowered(self):
        cfg = cfg_of(
            """
            def f():
                return 1
                x = 2
            """
        )
        kinds = [type(n).__name__ for n in statement_nodes(cfg)]
        assert kinds == ["Return", "Assign"]
        reachable = {
            id(e.node) for b in cfg.reachable_blocks() for e in b.elements
        }
        dead = [n for n in statement_nodes(cfg) if id(n) not in reachable]
        assert [type(n).__name__ for n in dead] == ["Assign"]

    def test_try_body_reaches_handler(self):
        cfg = cfg_of(
            """
            def f():
                try:
                    risky()
                except ValueError:
                    cleanup()
                return 0
            """
        )
        # Both calls and the return are present; the handler block is a
        # successor of the body block (any statement may raise).
        kinds = [type(n).__name__ for n in statement_nodes(cfg)]
        assert kinds.count("Expr") == 2
        assert "Return" in kinds

    def test_break_targets_loop_exit(self):
        cfg = cfg_of(
            """
            def f(items):
                for item in items:
                    if item:
                        break
                return items
            """
        )
        reachable = {
            id(e.node) for b in cfg.reachable_blocks() for e in b.elements
        }
        returns = [
            n for n in statement_nodes(cfg) if isinstance(n, ast.Return)
        ]
        assert returns and id(returns[0]) in reachable

    def test_header_expressions_only_controls(self):
        cfg = cfg_of(
            """
            def f(xs):
                for x in xs:
                    use(x)
            """
        )
        header = next(e for e in cfg.elements() if e.header)
        exprs = element_expressions(header)
        assert len(exprs) == 1
        assert isinstance(exprs[0], ast.Name)  # the iterable, not the body


def _function_scopes(tree: ast.Module):
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _own_statements(scope) -> list:
    """Statements belonging to this scope, mirroring the builder.

    Compound statements contribute themselves plus their nested bodies;
    nested function and class definitions contribute only themselves (their
    bodies are separate scopes the builder never descends into).
    """
    out = []

    def collect(statements):
        for stmt in statements:
            out.append(stmt)
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            for field_name in ("body", "orelse", "finalbody"):
                collect(getattr(stmt, field_name, []) or [])
            for handler in getattr(stmt, "handlers", []) or []:
                collect(handler.body)
            for case in getattr(stmt, "cases", []) or []:
                collect(case.body)

    collect(scope.body)
    return out


@pytest.mark.parametrize(
    "path",
    sorted((REPO_ROOT / "src").rglob("*.py")),
    ids=lambda p: str(p.relative_to(REPO_ROOT)),
)
def test_corpus_every_function_lowers_and_converges(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    ctx = ModuleContext(
        path=str(path),
        module=module_name_for(str(path)),
        config=LintConfig(),
        aliases=_collect_aliases(tree),
        tree=tree,
    )
    for scope in _function_scopes(tree):
        cfg = build_cfg(scope)
        seen = [id(e.node) for e in cfg.elements()]
        assert len(seen) == len(set(seen)), (
            f"statement lowered twice in {path}"
        )
        expected = {id(s) for s in _own_statements(scope)}
        assert set(seen) == expected, (
            f"CFG element set diverges from scope statements in {path}"
        )
        # The taint analysis must terminate on real code.
        TaintAnalysis(cfg, ctx)
