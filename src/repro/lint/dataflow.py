"""Forward dataflow over the lint CFG: fixpoint driver and taint lattice.

The flow rules ask one question shape: *can a value produced here reach a
sink there?*  :func:`forward_fixpoint` answers it generically — iterate
per-block transfer functions to a fixpoint over :class:`~repro.lint.cfg.CFG`
blocks, recording the environment **before every element** so rules can
interrogate any program point.  :class:`TaintAnalysis` instantiates it
with a powerset lattice of :class:`Taint` facts.

Taint labels:

* ``WALL_CLOCK`` — value derived from a host-clock read (``time.time()``
  and friends).
* ``GLOBAL_RNG`` — value derived from the process-global RNG streams.
* ``UNORDERED`` — a set/dict-key view whose iteration order is an
  accident of insertion history.

``WALL_CLOCK``/``GLOBAL_RNG`` are *sticky*: they survive arithmetic and
arbitrary calls (``round(time.time())`` is still wall-clock data).
``UNORDERED`` is *fragile*: it describes the container's iteration order,
so it survives only set algebra and copies — an unknown call may well
impose an order, and assuming it does not would drown the rules in false
positives.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    TYPE_CHECKING,
)

from repro.lint.banned import WALLCLOCK_CALLS, is_global_rng
from repro.lint.cfg import CFG, Element, assigned_names

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import ModuleContext

# ---------------------------------------------------------------------------
# Generic fixpoint driver
# ---------------------------------------------------------------------------

#: Safety valve for pathological graphs; real functions converge in a
#: handful of passes because the lattices here have tiny heights.
MAX_PASSES = 32


def forward_fixpoint(
    cfg: CFG,
    initial: Dict[str, object],
    transfer: Callable[[Element, Dict[str, object]], Dict[str, object]],
    join: Callable[[Dict[str, object], Dict[str, object]], Dict[str, object]],
    equal: Callable[[Dict[str, object], Dict[str, object]], bool],
) -> Dict[int, Dict[str, object]]:
    """Run a forward analysis to fixpoint.

    Returns a map from ``id(element.node)`` to the environment holding
    immediately *before* that element executes.  Unreachable elements are
    absent from the map.
    """
    blocks = cfg.reachable_blocks()
    block_in: Dict[int, Dict[str, object]] = {cfg.entry.index: dict(initial)}
    block_out: Dict[int, Dict[str, object]] = {}
    before: Dict[int, Dict[str, object]] = {}

    for _ in range(MAX_PASSES):
        changed = False
        for block in blocks:
            env: Optional[Dict[str, object]] = None
            if block is cfg.entry:
                env = dict(initial)
            for pred in block.predecessors:
                if pred.index in block_out:
                    env = (
                        dict(block_out[pred.index])
                        if env is None
                        else join(env, block_out[pred.index])
                    )
            if env is None:
                continue  # nothing reaches this block yet
            if block.index in block_in and equal(block_in[block.index], env):
                env = dict(block_in[block.index])
            else:
                block_in[block.index] = dict(env)
                changed = True
            for element in block.elements:
                before[id(element.node)] = dict(env)
                env = transfer(element, env)
            if block.index not in block_out or not equal(
                block_out[block.index], env
            ):
                block_out[block.index] = dict(env)
                changed = True
        if not changed:
            break
    return before


# ---------------------------------------------------------------------------
# Taint lattice
# ---------------------------------------------------------------------------

WALL_CLOCK = "wall-clock"
GLOBAL_RNG = "global-rng"
UNORDERED = "unordered"

#: Labels that survive arithmetic and unknown calls.
STICKY_LABELS = frozenset({WALL_CLOCK, GLOBAL_RNG})


@dataclass(frozen=True)
class Taint:
    """One taint fact: where a label entered the dataflow.

    Attributes:
        label: One of the module-level label constants.
        line: 1-based line of the originating expression.
        origin: Human description of the source (``"time.time()"``).
    """

    label: str
    line: int
    origin: str


TaintSet = FrozenSet[Taint]
EMPTY: TaintSet = frozenset()

#: Set-returning methods: a tainted receiver stays tainted through these.
_SET_PRESERVING_METHODS = frozenset(
    {
        "copy",
        "difference",
        "intersection",
        "symmetric_difference",
        "union",
    }
)

#: Calls whose result order no longer depends on set iteration order.
_ORDER_SANITIZERS = frozenset({"sorted", "NodeSet", "freeze_nodes"})

#: Order-insensitive consumers: result carries no UNORDERED taint even
#: though the argument does (sums, sizes, extrema are order-free).
_ORDER_FREE_CONSUMERS = frozenset(
    {"len", "sum", "min", "max", "any", "all", "frozenset", "set"}
)

#: Mutating methods that push argument taints into their receiver.
_MUTATORS = frozenset(
    {"add", "append", "appendleft", "extend", "insert", "setdefault", "update"}
)

_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


class TaintAnalysis:
    """Taint propagation over one function-like body.

    Build with the module context (for alias-resolved call names), then
    query :meth:`taint_of` with any expression and the environment the
    fixpoint recorded before the enclosing element.
    """

    def __init__(self, cfg: CFG, ctx: "ModuleContext") -> None:
        self._ctx = ctx
        self.cfg = cfg
        self.before = forward_fixpoint(
            cfg,
            {},
            self._transfer,
            _taint_join,
            _taint_equal,
        )

    # -- expression evaluation ----------------------------------------------

    def taint_of(self, expr: Optional[ast.expr], env: Dict[str, TaintSet]) -> TaintSet:
        if expr is None:
            return EMPTY
        return self._eval(expr, env)

    def _sticky(self, taints: TaintSet) -> TaintSet:
        return frozenset(t for t in taints if t.label in STICKY_LABELS)

    def _eval(self, expr: ast.expr, env: Dict[str, TaintSet]) -> TaintSet:
        if isinstance(expr, ast.Name):
            return env.get(expr.id, EMPTY)
        if isinstance(expr, ast.Constant):
            return EMPTY
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.BinOp):
            left = self._eval(expr.left, env)
            right = self._eval(expr.right, env)
            merged = left | right
            if isinstance(expr.op, _SET_OPS) and any(
                t.label == UNORDERED for t in merged
            ):
                return merged  # set algebra preserves unordered-ness
            return self._sticky(merged)
        if isinstance(expr, ast.UnaryOp):
            return self._sticky(self._eval(expr.operand, env))
        if isinstance(expr, ast.BoolOp):
            out: TaintSet = EMPTY
            for value in expr.values:
                out |= self._eval(value, env)
            return out
        if isinstance(expr, ast.IfExp):
            return self._eval(expr.body, env) | self._eval(expr.orelse, env)
        if isinstance(expr, ast.Compare):
            out = EMPTY
            for operand in [expr.left] + list(expr.comparators):
                out |= self._eval(operand, env)
            return self._sticky(out)
        if isinstance(expr, ast.Attribute):
            if expr.attr == "keys":
                # A bare ``d.keys`` reference (no call) — rare; treat like
                # the call for safety.
                return self._eval(expr.value, env)
            return self._sticky(self._eval(expr.value, env))
        if isinstance(expr, ast.Subscript):
            return self._sticky(self._eval(expr.value, env))
        if isinstance(expr, ast.Set):
            taints = EMPTY
            for element in expr.elts:
                taints |= self._sticky(self._eval(element, env))
            return taints | frozenset(
                {Taint(UNORDERED, expr.lineno, "set literal")}
            )
        if isinstance(expr, ast.SetComp):
            return frozenset(
                {Taint(UNORDERED, expr.lineno, "set comprehension")}
            )
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
            out = EMPTY
            for comp in expr.generators:
                iter_taint = self._eval(comp.iter, env)
                out |= iter_taint  # unordered iteration orders the result
                out |= self._unordered_literal(comp.iter)
            out |= self._sticky(self._eval_in_comp(expr.elt, env))
            return out
        if isinstance(expr, ast.DictComp):
            out = EMPTY
            for comp in expr.generators:
                out |= self._eval(comp.iter, env)
                out |= self._unordered_literal(comp.iter)
            return out
        if isinstance(expr, (ast.Tuple, ast.List)):
            out = EMPTY
            for element in expr.elts:
                out |= self._sticky(self._eval(element, env))
            return out
        if isinstance(expr, ast.Dict):
            out = EMPTY
            for value in expr.values:
                if value is not None:
                    out |= self._sticky(self._eval(value, env))
            return out
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value, env)
        if isinstance(expr, ast.Await):
            return self._eval(expr.value, env)
        if isinstance(expr, ast.JoinedStr):
            out = EMPTY
            for value in expr.values:
                if isinstance(value, ast.FormattedValue):
                    out |= self._sticky(self._eval(value.value, env))
            return out
        if isinstance(expr, ast.NamedExpr):
            return self._eval(expr.value, env)
        if isinstance(expr, ast.Lambda):
            return EMPTY
        return EMPTY

    def _eval_in_comp(
        self, expr: ast.expr, env: Dict[str, TaintSet]
    ) -> TaintSet:
        # Comprehension element expressions reference loop variables we do
        # not bind; evaluating with the outer env is a safe approximation
        # (loop variables read as untainted).
        return self._eval(expr, env)

    def _unordered_literal(self, expr: ast.expr) -> TaintSet:
        """UNORDERED taint for syntactically unordered iterables."""
        if isinstance(expr, ast.Set):
            return frozenset({Taint(UNORDERED, expr.lineno, "set literal")})
        if isinstance(expr, ast.SetComp):
            return frozenset(
                {Taint(UNORDERED, expr.lineno, "set comprehension")}
            )
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return frozenset(
                    {Taint(UNORDERED, expr.lineno, f"{func.id}(...)")}
                )
            if isinstance(func, ast.Attribute) and func.attr == "keys":
                return frozenset({Taint(UNORDERED, expr.lineno, ".keys()")})
        return EMPTY

    def _eval_call(self, expr: ast.Call, env: Dict[str, TaintSet]) -> TaintSet:
        func = expr.func
        qualified = self._ctx.qualified_name(func)
        arg_taints: TaintSet = EMPTY
        for arg in expr.args:
            arg_taints |= self._eval(arg, env)
        for keyword in expr.keywords:
            arg_taints |= self._eval(keyword.value, env)

        if qualified is not None:
            if qualified in WALLCLOCK_CALLS:
                return frozenset(
                    {Taint(WALL_CLOCK, expr.lineno, f"{qualified}()")}
                )
            if is_global_rng(qualified):
                return frozenset(
                    {Taint(GLOBAL_RNG, expr.lineno, f"{qualified}()")}
                )

        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else ""
        )
        if name in _ORDER_SANITIZERS:
            return self._sticky(arg_taints)
        if name in _ORDER_FREE_CONSUMERS:
            if name in ("set", "frozenset"):
                return self._sticky(arg_taints) | frozenset(
                    {Taint(UNORDERED, expr.lineno, f"{name}(...)")}
                )
            return self._sticky(arg_taints)
        if isinstance(func, ast.Attribute):
            if func.attr == "keys" and not expr.args:
                return frozenset(
                    {Taint(UNORDERED, expr.lineno, ".keys()")}
                ) | self._sticky(self._eval(func.value, env))
            if func.attr in _SET_PRESERVING_METHODS:
                receiver = self._eval(func.value, env)
                if any(t.label == UNORDERED for t in receiver):
                    return receiver | self._sticky(arg_taints)
                return self._sticky(receiver | arg_taints)
        # Unknown call: sticky labels flow through, UNORDERED does not —
        # the callee may well impose an order.
        return self._sticky(arg_taints)

    # -- transfer ------------------------------------------------------------

    def _transfer(
        self, element: Element, env: Dict[str, object]
    ) -> Dict[str, object]:
        tenv: Dict[str, TaintSet] = env  # type: ignore[assignment]
        node = element.node
        out = dict(tenv)
        if element.header:
            if isinstance(node, (ast.For, ast.AsyncFor)):
                element_taint = self._sticky(self._eval(node.iter, tenv))
                for name, _ in assigned_names(node.target):
                    out[name] = element_taint
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is None:
                        continue
                    taint = self._sticky(
                        self._eval(item.context_expr, tenv)
                    )
                    for name, _ in assigned_names(item.optional_vars):
                        out[name] = taint
            return out
        if isinstance(node, ast.Assign):
            value_taint = self._eval(node.value, tenv)
            for target in node.targets:
                for name, _ in assigned_names(target):
                    out[name] = value_taint
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    base = target.value.id
                    out[base] = tenv.get(base, EMPTY) | self._sticky(
                        value_taint
                    )
            return out
        if isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.value is not None:
                out[node.target.id] = self._eval(node.value, tenv)
            return out
        if isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name):
                name = node.target.id
                out[name] = tenv.get(name, EMPTY) | self._eval(
                    node.value, tenv
                )
            return out
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out.pop(target.id, None)
            return out
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            call = node.value
            func = call.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS
                and isinstance(func.value, ast.Name)
            ):
                pushed: TaintSet = EMPTY
                for arg in call.args:
                    pushed |= self._sticky(self._eval(arg, tenv))
                for keyword in call.keywords:
                    pushed |= self._sticky(self._eval(keyword.value, tenv))
                if pushed:
                    base = func.value.id
                    out[base] = tenv.get(base, EMPTY) | pushed
            return out
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = EMPTY
            return out
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                out[local] = EMPTY
            return out
        return out


def _taint_join(
    a: Dict[str, object], b: Dict[str, object]
) -> Dict[str, object]:
    out = dict(a)
    for name, taints in b.items():
        out[name] = out.get(name, EMPTY) | taints  # type: ignore[operator]
    return out


def _taint_equal(a: Dict[str, object], b: Dict[str, object]) -> bool:
    return a == b


def taints_with_label(taints: TaintSet, label: str) -> List[Taint]:
    return sorted(
        (t for t in taints if t.label == label), key=lambda t: t.line
    )

