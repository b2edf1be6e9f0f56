"""The ``probqos lint`` command: run the pass, render text or JSON.

Exit codes follow the convention batch pipelines expect:

* ``0`` — every scanned file is clean;
* ``1`` — at least one finding survived selection and suppressions;
* ``2`` — usage error (missing path, unknown code in --select/--ignore).
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from typing import List, Optional, TextIO

from repro.lint.config import LintConfig
from repro.lint.engine import known_codes, lint_paths
from repro.lint.findings import Finding, LintSeverity

#: Version of the ``--format json`` document layout.
LINT_SCHEMA_VERSION = 1

#: Default lint roots when none are given (filtered to those that exist).
DEFAULT_PATHS = ("src", "tests")


def _parse_codes(raw: Optional[str], option: str) -> Optional[frozenset]:
    """Parse a comma-separated code list, validating against the registry."""
    if raw is None:
        return None
    codes = frozenset(code.strip() for code in raw.split(",") if code.strip())
    if not codes:
        raise ValueError(f"{option} got an empty code list")
    unknown = sorted(codes - known_codes())
    if unknown:
        raise ValueError(
            f"{option} names unknown code(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known_codes()))})"
        )
    return codes


def render_text(
    findings: List[Finding], files_scanned: int, stream: TextIO
) -> None:
    for finding in findings:
        stream.write(finding.render() + "\n")
    if findings:
        errors = sum(
            1 for f in findings if f.severity is LintSeverity.ERROR
        )
        warnings = len(findings) - errors
        stream.write(
            f"\n{len(findings)} finding(s) ({errors} error(s), "
            f"{warnings} warning(s)) across {files_scanned} file(s)\n"
        )
    else:
        stream.write(f"ok: {files_scanned} file(s), 0 findings\n")


def render_json(
    findings: List[Finding], files_scanned: int, stream: TextIO
) -> None:
    counts = Counter(finding.code for finding in findings)
    document = {
        "schema": LINT_SCHEMA_VERSION,
        "files_scanned": files_scanned,
        "findings": [finding.to_dict() for finding in findings],
        "counts": dict(sorted(counts.items())),
    }
    json.dump(document, stream, indent=2, sort_keys=True)
    stream.write("\n")


def run_lint(
    paths: Optional[List[str]],
    output_format: str = "text",
    select: Optional[str] = None,
    ignore: Optional[str] = None,
    arch: bool = False,
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    """Execute one lint run; returns the process exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        config = LintConfig(
            select=_parse_codes(select, "--select"),
            ignore=_parse_codes(ignore, "--ignore") or frozenset(),
        )
    except ValueError as exc:
        print(f"probqos lint: {exc}", file=stderr)
        return 2

    if not paths:
        import os

        paths = [p for p in DEFAULT_PATHS if os.path.isdir(p)] or ["."]
    try:
        findings, files_scanned = lint_paths(list(paths), config, arch=arch)
    except (FileNotFoundError, OSError) as exc:
        print(f"probqos lint: {exc}", file=stderr)
        return 2

    if output_format == "json":
        render_json(findings, files_scanned, stdout)
    elif output_format == "sarif":
        from repro.lint.sarif import render_sarif

        render_sarif(findings, stdout)
    else:
        render_text(findings, files_scanned, stdout)
    return 1 if findings else 0


def _main() -> int:
    """``python -m repro.lint.cli ARGS``: the same run as ``probqos lint ARGS``.

    Imported here, not at module level: the CLI sits above the linter.
    """
    from repro.cli import main

    return main(["lint", *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(_main())
