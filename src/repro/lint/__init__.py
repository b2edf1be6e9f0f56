"""``repro.lint`` — the determinism & sim-safety static-analysis pass.

The reproduction's guarantees are *exact*: tier-1 tests assert bit-identical
results across seed replays and worker counts.  This package
encodes the coding contract that makes those assertions hold — no hidden
global RNG state, no wall-clock reads on sim paths, no set-order
dependence — as machine-checked AST rules (QOS101-QOS110), so the contract
survives contributors who never read DESIGN.md.  Whether any ambient state
actually reaches a result is checked by running the code, in
``tests/test_ambient_state.py``.

Run it as ``probqos lint [PATHS] [--format text|json] [--select/--ignore]``;
silence a deliberate exception inline with
``# qoslint: disable=QOS102 -- <why this site is legitimate>``.
"""

from __future__ import annotations

from repro.lint.config import LintConfig, SIM_LAYER_PACKAGES
from repro.lint.engine import (
    ModuleContext,
    Rule,
    all_rules,
    known_codes,
    lint_paths,
    lint_source,
    register,
)
from repro.lint.findings import Finding, LintSeverity
from repro.lint.suppress import Suppression, SuppressionIndex

__all__ = [
    "Finding",
    "LintConfig",
    "LintSeverity",
    "ModuleContext",
    "Rule",
    "SIM_LAYER_PACKAGES",
    "Suppression",
    "SuppressionIndex",
    "all_rules",
    "known_codes",
    "lint_paths",
    "lint_source",
    "register",
]
