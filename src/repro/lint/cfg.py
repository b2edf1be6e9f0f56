"""Per-function control-flow graphs for the flow-aware lint rules.

The single-pass pattern rules (QOS1xx) see one AST node at a time; the
flow rules (QOS2xx) need to know what a *variable* holds when it
reaches a sink, which requires statement ordering, branching, and loops.
:func:`build_cfg` lowers one function body (or a whole module body, for
module-level flows in test files) into basic blocks of *elements*:

* simple statements appear as ordinary elements;
* compound statements (``if``/``while``/``for``/``with``/``try``/
  ``match``) appear as **header** elements that stand for evaluating the
  construct's controlling expressions only — their bodies live in other
  blocks, so no expression is ever analysed twice.

The graph is deliberately approximate where exactness buys nothing for a
linter: exceptional edges into ``except`` handlers join the environment
from every block of the ``try`` body (any statement may raise), ``with``
bodies are entered unconditionally, and loop ``else`` clauses hang off
the loop header.  The approximations are all *over*-approximations of
reachability, which keeps the taint and interval analyses sound for the
"can this value reach this sink" questions the rules ask.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Union

FunctionLike = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Module]


@dataclass
class Element:
    """One unit of execution inside a basic block.

    Attributes:
        node: The AST statement this element stands for.
        header: True when ``node`` is a compound statement and this
            element represents evaluating only its controlling
            expressions (``if``/``while`` test, ``for`` iterable, ``with``
            context managers, ``match`` subject); the body statements
            live in successor blocks.
    """

    node: ast.stmt
    header: bool = False


@dataclass
class Block:
    """A straight-line run of elements with a single entry point."""

    index: int
    elements: List[Element] = field(default_factory=list)
    successors: List["Block"] = field(default_factory=list)
    predecessors: List["Block"] = field(default_factory=list)

    def link(self, other: "Block") -> None:
        if other not in self.successors:
            self.successors.append(other)
            other.predecessors.append(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ",".join(type(e.node).__name__ for e in self.elements)
        return f"<Block {self.index} [{kinds}] -> {[b.index for b in self.successors]}>"


@dataclass
class CFG:
    """Control-flow graph of one function-like body.

    Attributes:
        function: The lowered ``FunctionDef``/``AsyncFunctionDef``, or an
            ``ast.Module`` for module-level flows.
        entry: The unique entry block (may be empty).
        exit: The unique exit block (always empty); ``return``/``raise``
            and falling off the end all link here.
        blocks: Every block, in creation order.
    """

    function: FunctionLike
    entry: Block
    exit: Block
    blocks: List[Block]

    def elements(self) -> Iterator[Element]:
        """Every element once, in block creation order."""
        for block in self.blocks:
            yield from block.elements

    def reachable_blocks(self) -> List[Block]:
        """Blocks reachable from the entry, in a reverse-postorder-ish
        (creation) order suitable for forward fixpoints."""
        seen = {self.entry.index}
        stack = [self.entry]
        while stack:
            block = stack.pop()
            for succ in block.successors:
                if succ.index not in seen:
                    seen.add(succ.index)
                    stack.append(succ)
        return [b for b in self.blocks if b.index in seen]


class _LoopFrame:
    """Targets for break/continue inside the innermost loop."""

    def __init__(self, header: Block, after: Block) -> None:
        self.header = header
        self.after = after


class _Builder:
    def __init__(self, function: FunctionLike) -> None:
        self.function = function
        self.blocks: List[Block] = []
        self.entry = self.new_block()
        self.exit = self.new_block()
        self.loops: List[_LoopFrame] = []

    def new_block(self) -> Block:
        block = Block(index=len(self.blocks))
        self.blocks.append(block)
        return block

    def build(self) -> CFG:
        body = list(self.function.body)
        tail = self.build_body(body, self.entry)
        if tail is not None:
            tail.link(self.exit)
        return CFG(
            function=self.function,
            entry=self.entry,
            exit=self.exit,
            blocks=self.blocks,
        )

    def build_body(
        self, statements: Sequence[ast.stmt], current: Optional[Block]
    ) -> Optional[Block]:
        """Lower ``statements`` starting in ``current``.

        Returns the block control falls out of, or None when every path
        diverges (return/raise/break/continue).  Statements after a
        diverging one are lowered into a fresh unreachable block so the
        corpus invariant "every statement appears in exactly one block"
        holds even for dead code.
        """
        for statement in statements:
            if current is None:
                current = self.new_block()  # unreachable continuation
            current = self.build_statement(statement, current)
        return current

    def build_statement(
        self, statement: ast.stmt, current: Block
    ) -> Optional[Block]:
        if isinstance(statement, (ast.If,)):
            return self._build_if(statement, current)
        if isinstance(statement, (ast.While,)):
            return self._build_while(statement, current)
        if isinstance(statement, (ast.For, ast.AsyncFor)):
            return self._build_for(statement, current)
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            return self._build_with(statement, current)
        if isinstance(statement, ast.Try) or (
            hasattr(ast, "TryStar") and isinstance(statement, ast.TryStar)
        ):
            return self._build_try(statement, current)
        if isinstance(statement, ast.Match):
            return self._build_match(statement, current)
        if isinstance(statement, (ast.Return, ast.Raise)):
            current.elements.append(Element(statement))
            current.link(self.exit)
            return None
        if isinstance(statement, ast.Break):
            current.elements.append(Element(statement))
            if self.loops:
                current.link(self.loops[-1].after)
            else:  # malformed code; treat as function exit
                current.link(self.exit)
            return None
        if isinstance(statement, ast.Continue):
            current.elements.append(Element(statement))
            if self.loops:
                current.link(self.loops[-1].header)
            else:
                current.link(self.exit)
            return None
        # Simple statements — including nested function/class definitions,
        # whose bodies are separate CFGs and not descended into here.
        current.elements.append(Element(statement))
        return current

    def _build_if(self, statement: ast.If, current: Block) -> Optional[Block]:
        current.elements.append(Element(statement, header=True))
        after = self.new_block()
        then_start = self.new_block()
        current.link(then_start)
        then_end = self.build_body(statement.body, then_start)
        if then_end is not None:
            then_end.link(after)
        if statement.orelse:
            else_start = self.new_block()
            current.link(else_start)
            else_end = self.build_body(statement.orelse, else_start)
            if else_end is not None:
                else_end.link(after)
        else:
            current.link(after)
        return after if after.predecessors else None

    def _build_while(
        self, statement: ast.While, current: Block
    ) -> Optional[Block]:
        header = self.new_block()
        current.link(header)
        header.elements.append(Element(statement, header=True))
        after = self.new_block()
        body_start = self.new_block()
        header.link(body_start)
        self.loops.append(_LoopFrame(header, after))
        try:
            body_end = self.build_body(statement.body, body_start)
        finally:
            self.loops.pop()
        if body_end is not None:
            body_end.link(header)
        if statement.orelse:
            else_start = self.new_block()
            header.link(else_start)
            else_end = self.build_body(statement.orelse, else_start)
            if else_end is not None:
                else_end.link(after)
        else:
            header.link(after)
        return after if after.predecessors else None

    def _build_for(
        self, statement: Union[ast.For, ast.AsyncFor], current: Block
    ) -> Optional[Block]:
        header = self.new_block()
        current.link(header)
        header.elements.append(Element(statement, header=True))
        after = self.new_block()
        body_start = self.new_block()
        header.link(body_start)
        self.loops.append(_LoopFrame(header, after))
        try:
            body_end = self.build_body(statement.body, body_start)
        finally:
            self.loops.pop()
        if body_end is not None:
            body_end.link(header)
        if statement.orelse:
            else_start = self.new_block()
            header.link(else_start)
            else_end = self.build_body(statement.orelse, else_start)
            if else_end is not None:
                else_end.link(after)
        else:
            header.link(after)
        return after if after.predecessors else None

    def _build_with(
        self, statement: Union[ast.With, ast.AsyncWith], current: Block
    ) -> Optional[Block]:
        current.elements.append(Element(statement, header=True))
        body_start = self.new_block()
        current.link(body_start)
        return self.build_body(statement.body, body_start)

    def _build_try(self, statement: ast.stmt, current: Block) -> Optional[Block]:
        # statement is ast.Try or ast.TryStar; both share the field names.
        current.elements.append(Element(statement, header=True))
        after = self.new_block()
        body_start = self.new_block()
        current.link(body_start)
        first_body_index = body_start.index
        body_end = self.build_body(statement.body, body_start)  # type: ignore[attr-defined]
        body_region = [
            b for b in self.blocks[first_body_index:] if b.index >= first_body_index
        ]

        # Any statement in the try body may raise: every block lowered for
        # the body (plus the block holding the header) can jump into every
        # handler.  This over-approximates reachability, which is the safe
        # direction for taint questions.
        handler_ends: List[Optional[Block]] = []
        for handler in statement.handlers:  # type: ignore[attr-defined]
            handler_start = self.new_block()
            current.link(handler_start)
            for block in body_region:
                block.link(handler_start)
            handler_ends.append(self.build_body(handler.body, handler_start))

        if statement.orelse:  # type: ignore[attr-defined]
            if body_end is not None:
                else_start = self.new_block()
                body_end.link(else_start)
                body_end = self.build_body(statement.orelse, else_start)  # type: ignore[attr-defined]

        exits = [body_end] + handler_ends
        live_exits = [b for b in exits if b is not None]
        if statement.finalbody:  # type: ignore[attr-defined]
            final_start = self.new_block()
            for block in live_exits:
                block.link(final_start)
            if not live_exits:
                # All paths diverge, but the finally body still runs on the
                # way out; keep it reachable from the try region.
                current.link(final_start)
            final_end = self.build_body(statement.finalbody, final_start)  # type: ignore[attr-defined]
            if final_end is not None and live_exits:
                final_end.link(after)
        else:
            for block in live_exits:
                block.link(after)
        return after if after.predecessors else None

    def _build_match(
        self, statement: ast.Match, current: Block
    ) -> Optional[Block]:
        current.elements.append(Element(statement, header=True))
        after = self.new_block()
        for case in statement.cases:
            case_start = self.new_block()
            current.link(case_start)
            case_end = self.build_body(case.body, case_start)
            if case_end is not None:
                case_end.link(after)
        current.link(after)  # no case may match
        return after if after.predecessors else None


def build_cfg(function: FunctionLike) -> CFG:
    """Lower one function (or module) body into a CFG."""
    return _Builder(function).build()


def header_expressions(element: Element) -> List[ast.expr]:
    """The expressions evaluated *at* a header element.

    For a non-header element the caller analyses the whole statement; for
    headers only the controlling expressions execute at this point — the
    bodies belong to successor blocks.
    """
    node = element.node
    if isinstance(node, (ast.If, ast.While)):
        return [node.test]
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [node.iter]
    if isinstance(node, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in node.items]
    if isinstance(node, ast.Match):
        return [node.subject]
    if isinstance(node, ast.Try) or (
        hasattr(ast, "TryStar") and isinstance(node, ast.TryStar)
    ):
        return []
    return []


def element_expressions(element: Element) -> List[ast.expr]:
    """Expressions evaluated by ``element`` (headers: controls only).

    Nested function/class definitions contribute their decorators and
    argument defaults (evaluated at definition time) but not their bodies.
    """
    node = element.node
    if element.header:
        return header_expressions(element)
    if isinstance(node, ast.Expr):
        return [node.value]
    if isinstance(node, ast.Assign):
        return [node.value] + list(node.targets)
    if isinstance(node, ast.AnnAssign):
        return [node.value, node.target] if node.value is not None else []
    if isinstance(node, ast.AugAssign):
        return [node.value, node.target]
    if isinstance(node, ast.Return):
        return [node.value] if node.value is not None else []
    if isinstance(node, ast.Raise):
        out = []
        if node.exc is not None:
            out.append(node.exc)
        if node.cause is not None:
            out.append(node.cause)
        return out
    if isinstance(node, ast.Assert):
        out = [node.test]
        if node.msg is not None:
            out.append(node.msg)
        return out
    if isinstance(node, ast.Delete):
        return list(node.targets)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        out = list(node.decorator_list)
        out.extend(d for d in node.args.defaults)
        out.extend(d for d in node.args.kw_defaults if d is not None)
        return out
    if isinstance(node, ast.ClassDef):
        return list(node.decorator_list) + list(node.bases) + [
            kw.value for kw in node.keywords
        ]
    return []


def assigned_names(target: ast.expr) -> List[Tuple[str, ast.expr]]:
    """Flatten an assignment target into ``(name, target_node)`` pairs.

    Attribute/subscript targets yield nothing — they mutate objects, not
    local bindings — and starred/nested tuples are recursed into.
    """
    if isinstance(target, ast.Name):
        return [(target.id, target)]
    if isinstance(target, ast.Starred):
        return assigned_names(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        out: List[Tuple[str, ast.expr]] = []
        for element in target.elts:
            out.extend(assigned_names(element))
        return out
    return []
