"""CLI contract: JSON schema, --select/--ignore, suppressions, exit codes."""

from __future__ import annotations

import io
import json

import pytest

from repro.lint import lint_source
from repro.lint.cli import LINT_SCHEMA_VERSION, run_lint

DIRTY = "import time\nt = time.time()\nx = hash(t)\n"


@pytest.fixture()
def tree(tmp_path):
    """A miniature repo tree with one dirty and one clean sim module."""
    pkg = tmp_path / "src" / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "dirty.py").write_text(DIRTY)
    (pkg / "clean.py").write_text("VALUE = 42\n")
    return tmp_path


def lint(paths, **kwargs):
    out, err = io.StringIO(), io.StringIO()
    code = run_lint([str(p) for p in paths], stdout=out, stderr=err, **kwargs)
    return code, out.getvalue(), err.getvalue()


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tree):
        code, out, _ = lint([tree / "src" / "repro" / "sim" / "clean.py"])
        assert code == 0
        assert "ok: 1 file(s), 0 findings" in out

    def test_findings_exit_one(self, tree):
        code, out, _ = lint([tree])
        assert code == 1
        assert "QOS102" in out and "QOS110" in out

    def test_missing_path_exits_two(self, tmp_path):
        code, _, err = lint([tmp_path / "nowhere"])
        assert code == 2
        assert "nowhere" in err

    def test_unknown_select_code_exits_two(self, tree):
        code, _, err = lint([tree], select="QOS9999")
        assert code == 2
        assert "QOS9999" in err

    def test_empty_select_exits_two(self, tree):
        code, _, err = lint([tree], select=" , ")
        assert code == 2
        assert "empty" in err


class TestRetiredCodes:
    """The flow rules' codes are gone: stale configs and suppressions that
    still name them fail loudly instead of silently checking nothing."""

    @pytest.mark.parametrize("code", ["QOS201", "QOS202", "QOS203"])
    def test_select_exits_two(self, tree, code):
        status, _, err = lint([tree], select=code)
        assert status == 2
        assert f"unknown code(s): {code}" in err

    @pytest.mark.parametrize("code", ["QOS201", "QOS202", "QOS203"])
    def test_suppression_is_unknown(self, code):
        source = f"x = 1  # qoslint: disable={code} -- stale excuse\n"
        findings = lint_source(source, "src/repro/sim/fake.py")
        assert [f.code for f in findings] == ["QOS001"]


class TestSelection:
    def test_select_narrows_to_named_codes(self, tree):
        code, out, _ = lint([tree], select="QOS110")
        assert code == 1
        assert "QOS110" in out and "QOS102" not in out

    def test_ignore_drops_named_codes(self, tree):
        code, out, _ = lint([tree], ignore="QOS102,QOS110")
        assert code == 0
        assert "0 findings" in out

    def test_summary_line_counts(self, tree):
        _, out, _ = lint([tree])
        assert "2 finding(s) (2 error(s), 0 warning(s)) across 2 file(s)" in out


class TestJsonFormat:
    def test_document_schema(self, tree):
        code, out, _ = lint([tree], output_format="json")
        assert code == 1
        document = json.loads(out)
        assert document["schema"] == LINT_SCHEMA_VERSION
        assert document["files_scanned"] == 2
        assert document["counts"] == {"QOS102": 1, "QOS110": 1}
        for row in document["findings"]:
            assert set(row) == {
                "path",
                "line",
                "col",
                "code",
                "message",
                "severity",
            }
            assert row["severity"] in ("error", "warning")

    def test_clean_json_document(self, tree):
        code, out, _ = lint(
            [tree / "src" / "repro" / "sim" / "clean.py"],
            output_format="json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["findings"] == []
        assert document["counts"] == {}


class TestSuppressionsEndToEnd:
    def test_suppressed_file_is_clean(self, tmp_path):
        module = tmp_path / "src" / "repro" / "sim" / "mod.py"
        module.parent.mkdir(parents=True)
        module.write_text(
            "x = hash('k')  # qoslint: disable=QOS110 -- fixture rationale\n"
        )
        code, out, _ = lint([module])
        assert code == 0

    def test_unknown_suppression_code_fails_run(self, tmp_path):
        module = tmp_path / "src" / "repro" / "sim" / "mod.py"
        module.parent.mkdir(parents=True)
        module.write_text("x = 1  # qoslint: disable=QOS777 -- typo\n")
        code, out, _ = lint([module])
        assert code == 1
        assert "QOS001" in out


class TestProbqosIntegration:
    def test_lint_subcommand_wired(self, tree, capsys):
        from repro.cli import main

        rc = main(
            ["lint", str(tree / "src" / "repro" / "sim" / "clean.py")]
        )
        assert rc == 0
        assert "0 findings" in capsys.readouterr().out

    def test_lint_subcommand_json(self, tree, capsys):
        from repro.cli import main

        rc = main(["lint", "--format", "json", str(tree)])
        assert rc == 1
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == LINT_SCHEMA_VERSION
