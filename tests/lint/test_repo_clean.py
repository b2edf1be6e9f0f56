"""Tier-1 gate: the repository's own tree lints clean.

This is the smoke test ISSUE-level CI relies on: every determinism rule is
active over ``src/`` (and the test tree), and any finding — including a
suppression naming an unknown code — fails the suite.  Suppressions in
library code must carry a ``--`` rationale; that convention is enforced
here rather than by the engine so the rule lives next to the gate.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.lint import SuppressionIndex, lint_paths

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def src_lint():
    # One pass serves both src tests: the arch run reports every per-file
    # finding too, then adds the import-graph checks.
    return lint_paths([str(REPO_ROOT / "src")], arch=True)


def test_src_tree_is_clean(src_lint):
    findings, scanned = src_lint
    findings = [f for f in findings if not f.code.startswith("QOS5")]
    assert scanned > 0
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)


def test_architecture_holds(src_lint):
    # The whole-program pass: layer DAG respected, no import cycles.
    findings, scanned = src_lint
    assert scanned > 0
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)


def test_test_tree_is_clean():
    findings, scanned = lint_paths([str(REPO_ROOT / "tests")])
    assert scanned > 0
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)


def test_library_suppressions_carry_rationale():
    missing = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        index = SuppressionIndex.scan(path.read_text(encoding="utf-8"))
        for suppression in index.suppressions:
            if suppression.reason is None:
                missing.append(f"{path}:{suppression.line}")
    assert missing == [], (
        "library suppressions must explain themselves with '-- reason': "
        + ", ".join(missing)
    )
