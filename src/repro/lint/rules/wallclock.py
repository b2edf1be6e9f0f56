"""QOS102 — wall-clock reads in simulation library code.

Simulated time is the only clock the library may consult: a ``time.time()``
on a sim path couples results to the host's scheduler and CPU, which is
exactly the nondeterminism the replay tests exist to forbid.  The
instrumentation layer (:mod:`repro.obs`) is exempt — measuring wall time is
its job, and its timers never feed simulation state.  The two legitimate
sites outside it (the engine's obs handler timer, report elapsed-time
footers) carry explicit ``# qoslint: disable=QOS102`` suppressions with
their rationale.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ModuleContext, Rule, register
from repro.lint.findings import Finding, LintSeverity

#: Canonical dotted names of wall-clock sources.
WALLCLOCK_CALLS = frozenset(
    {
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)


@register
class WallClockRule(Rule):
    code = "QOS102"
    name = "wall-clock"
    rationale = (
        "library code must consult simulated time only; wall-clock reads "
        "couple results to the host machine (repro.obs is exempt by design)"
    )
    severity = LintSeverity.ERROR
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if not ctx.in_library or ctx.config.is_wallclock_exempt(ctx.module):
            return
        qualified = ctx.qualified_name(node.func)
        if qualified in WALLCLOCK_CALLS:
            yield self.finding(
                node,
                ctx,
                f"wall-clock read {qualified}() in library code; use "
                "simulated time (EventLoop.now) or move the measurement "
                "into repro.obs",
            )
