"""QOS101 — hidden global RNG state.

Every stochastic draw in this library must come from an explicitly seeded
generator derived in :mod:`repro.sim.rng`; the process-global streams
(``random.*`` module functions, ``numpy.random.*`` legacy functions) are
invisible inputs that make two "identical" runs diverge the moment any
other code touches the shared state.  Instantiating an explicit generator
(``random.Random(seed)``, ``np.random.default_rng(seed)``) is fine — the
rule bans the *module-level* streams, not seeded instances.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ModuleContext, Rule, register
from repro.lint.findings import Finding, LintSeverity

#: ``random.<name>`` module-level functions that read or mutate the hidden
#: global Mersenne Twister.
STDLIB_GLOBAL_RNG_FUNCTIONS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "getstate",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "setstate",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: ``numpy.random`` attributes that do NOT touch the legacy global state:
#: explicit generator/bit-generator constructors and seed plumbing.
NUMPY_EXPLICIT_RNG = frozenset(
    {
        "BitGenerator",
        "Generator",
        "MT19937",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "RandomState",
        "SFC64",
        "SeedSequence",
        "default_rng",
    }
)


def _is_global_rng(qualified: str) -> bool:
    """Whether a canonical dotted name is a process-global RNG access."""
    if qualified.startswith("random."):
        return qualified[len("random.") :] in STDLIB_GLOBAL_RNG_FUNCTIONS
    if qualified.startswith("numpy.random."):
        rest = qualified[len("numpy.random.") :]
        return "." not in rest and rest not in NUMPY_EXPLICIT_RNG
    return False


@register
class GlobalRandomRule(Rule):
    code = "QOS101"
    name = "global-rng"
    rationale = (
        "process-global RNG streams are hidden inputs; every draw must come "
        "from an explicitly seeded generator derived in repro.sim.rng"
    )
    severity = LintSeverity.ERROR
    node_types = (ast.Attribute, ast.ImportFrom)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.module == ctx.config.rng_module:
            return
        if isinstance(node, ast.ImportFrom):
            if node.level or node.module not in ("random", "numpy.random"):
                return
            for alias in node.names:
                if _is_global_rng(f"{node.module}.{alias.name}"):
                    yield self.finding(
                        node,
                        ctx,
                        f"import of global RNG function "
                        f"{node.module}.{alias.name}; use an explicit "
                        "generator from repro.sim.rng (make_rng/substream)",
                    )
            return
        # Attribute chains: random.seed(...), np.random.shuffle(...), ...
        # Nested attributes are visited again for each sub-chain, so only
        # report when the *full* chain is the banned name (the sub-chain
        # ``numpy.random`` alone is not banned, avoiding duplicates).
        qualified = ctx.qualified_name(node)
        if qualified is not None and _is_global_rng(qualified):
            yield self.finding(
                node,
                ctx,
                f"use of global RNG state {qualified}; draw from an "
                "explicitly seeded generator (repro.sim.rng.make_rng / "
                "substream) instead",
            )
