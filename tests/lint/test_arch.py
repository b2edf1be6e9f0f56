"""Architecture pass (QOS501/QOS502): layer map, cycles, exemptions.

The deliberately-cycled fixtures here are the negative control the repo
gate (``test_repo_clean``) needs: the real tree passing ``--arch`` only
means something if a broken tree fails it.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Dict

from repro.lint.arch import (
    check_architecture,
    collect_import_edges,
    layer_of,
)
from repro.lint.config import LintConfig
from repro.lint.engine import lint_paths

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"


def modules_from(sources: Dict[str, str]):
    """``{module: source}`` → the dict :func:`check_architecture` takes."""
    return {
        module: (
            "src/" + module.replace(".", "/") + ".py",
            ast.parse(textwrap.dedent(source)),
        )
        for module, source in sources.items()
    }


class TestLayerMap:
    def test_longest_prefix_wins(self):
        assert layer_of("repro.cli")[1] == "cli"
        assert layer_of("repro")[1] == "cli"
        assert layer_of("repro.sim.engine")[1] == "sim"
        assert layer_of("repro.lint.engine")[1] == "experiments"

    def test_shared_bands(self):
        assert layer_of("repro.core.system") == layer_of(
            "repro.scheduling.fcfs"
        )
        assert layer_of("repro.workload.models") == layer_of(
            "repro.failures.generator"
        )

    def test_unmapped_module_skipped(self):
        assert layer_of("otherpkg.thing") is None

    def test_ordering_matches_the_paper_stack(self):
        ranks = {
            name: layer_of(module)[0]
            for name, module in [
                ("sim", "repro.sim.engine"),
                ("prediction", "repro.prediction.base"),
                ("scheduling", "repro.scheduling.fcfs"),
                ("core", "repro.core.system"),
                ("experiments", "repro.experiments.report"),
                ("cli", "repro.cli"),
            ]
        }
        assert (
            ranks["sim"]
            < ranks["prediction"]
            <= ranks["scheduling"]
            == ranks["core"]
            < ranks["experiments"]
            < ranks["cli"]
        )


class TestEdgeCollection:
    def test_type_checking_guard_exempt(self):
        source = """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.core.system import System
        """
        tree = ast.parse(textwrap.dedent(source))
        edges = collect_import_edges(
            tree, "repro.sim.engine", "x.py", ["repro.core.system"]
        )
        assert edges == []

    def test_function_scoped_import_exempt(self):
        source = """
            def build():
                from repro.core.system import System
                return System
        """
        tree = ast.parse(textwrap.dedent(source))
        edges = collect_import_edges(
            tree, "repro.sim.engine", "x.py", ["repro.core.system"]
        )
        assert edges == []

    def test_from_import_resolves_to_known_submodule(self):
        tree = ast.parse("from repro.core import metrics\n")
        edges = collect_import_edges(
            tree, "repro.scheduling.easy", "x.py", ["repro.core.metrics"]
        )
        assert [e.imported for e in edges] == ["repro.core.metrics"]

    def test_from_import_of_symbol_resolves_to_package(self):
        tree = ast.parse("from repro.core.metrics import qos_metric\n")
        edges = collect_import_edges(
            tree, "repro.scheduling.easy", "x.py", ["repro.core.metrics"]
        )
        assert [e.imported for e in edges] == ["repro.core.metrics"]

    def test_names_from_one_module_make_one_edge(self):
        tree = ast.parse("from repro.core.metrics import a, b, c\n")
        edges = collect_import_edges(
            tree, "repro.scheduling.easy", "x.py",
            ["repro", "repro.core", "repro.core.metrics"],
        )
        assert [e.imported for e in edges] == ["repro.core.metrics", "repro.core"]

    def test_submodules_share_one_ancestor_edge(self):
        tree = ast.parse("from repro.core import metrics, system\n")
        edges = collect_import_edges(
            tree, "repro.scheduling.easy", "x.py",
            ["repro.core", "repro.core.metrics", "repro.core.system"],
        )
        assert [e.imported for e in edges] == [
            "repro.core.metrics", "repro.core", "repro.core.system"
        ]

    def test_try_fallback_import_counted(self):
        source = """
            try:
                from repro.core.system import System
            except ImportError:
                System = None
        """
        tree = ast.parse(textwrap.dedent(source))
        edges = collect_import_edges(
            tree, "repro.sim.engine", "x.py", ["repro.core.system"]
        )
        assert len(edges) == 1


class TestLayering:
    def test_upward_import_flagged(self):
        findings = check_architecture(
            modules_from(
                {
                    "repro.sim.engine": "from repro.core.metrics import x\n",
                    "repro.core.metrics": "x = 1\n",
                }
            )
        )
        assert [f.code for f in findings] == ["QOS501"]
        assert "higher layer" in findings[0].message

    def test_downward_import_clean(self):
        findings = check_architecture(
            modules_from(
                {
                    "repro.core.system": "from repro.sim.engine import x\n",
                    "repro.sim.engine": "x = 1\n",
                }
            )
        )
        assert findings == []

    def test_same_band_import_clean(self):
        findings = check_architecture(
            modules_from(
                {
                    "repro.scheduling.easy": (
                        "from repro.core.metrics import x\n"
                    ),
                    "repro.core.metrics": "x = 1\n",
                }
            )
        )
        assert findings == []


class TestCycles:
    def test_two_module_cycle_flagged_on_both_edges(self):
        findings = check_architecture(
            modules_from(
                {
                    "repro.cluster.nodes": (
                        "from repro.prediction.base import x\n"
                    ),
                    "repro.prediction.base": (
                        "from repro.cluster.nodes import y\n"
                    ),
                }
            )
        )
        assert [f.code for f in findings] == ["QOS502", "QOS502"]
        assert all("import cycle" in f.message for f in findings)

    def test_three_module_cycle(self):
        findings = check_architecture(
            modules_from(
                {
                    "repro.sim.a": "from repro.sim.b import x\n",
                    "repro.sim.b": "from repro.sim.c import x\n",
                    "repro.sim.c": "from repro.sim.a import x\n",
                }
            )
        )
        assert [f.code for f in findings] == ["QOS502"] * 3

    def test_multi_name_imports_flag_each_line_once(self):
        findings = check_architecture(
            modules_from(
                {
                    "repro.sim.a": "from repro.sim.b import x, y, z\n",
                    "repro.sim.b": (
                        "import os\n"
                        "from repro.sim.a import p, q\n"
                    ),
                }
            )
        )
        assert sorted((f.path, f.line) for f in findings) == [
            ("src/repro/sim/a.py", 1),
            ("src/repro/sim/b.py", 2),
        ]
        assert {f.code for f in findings} == {"QOS502"}

    def test_diamond_is_not_a_cycle(self):
        findings = check_architecture(
            modules_from(
                {
                    "repro.sim.a": (
                        "from repro.sim.b import x\n"
                        "from repro.sim.c import y\n"
                    ),
                    "repro.sim.b": "from repro.sim.d import x\n",
                    "repro.sim.c": "from repro.sim.d import x\n",
                    "repro.sim.d": "x = 1\n",
                }
            )
        )
        assert findings == []


#: A package ``__init__`` re-exporting a module that imports a second
#: package, whose module imports back into the first package: no cycle
#: between modules, but importing ``repro.scheduling`` first fails.
PACKAGE_INIT_CYCLE = {
    "repro.core": "from repro.core.system import System\n",
    "repro.core.system": "from repro.scheduling.fcfs import Scheduler\n",
    "repro.core.negotiation": "Negotiator = 1\n",
    "repro.scheduling": "from repro.scheduling.fcfs import Scheduler\n",
    "repro.scheduling.fcfs": "from repro.core.negotiation import Negotiator\n",
}


class TestPackageInitEdges:
    def test_import_runs_the_ancestor_package_init(self):
        tree = ast.parse("from repro.core.metrics import x\n")
        edges = collect_import_edges(
            tree, "repro.scheduling.fcfs", "x.py",
            ["repro", "repro.core", "repro.core.metrics"],
        )
        assert [e.imported for e in edges] == ["repro.core.metrics", "repro.core"]

    def test_root_and_own_packages_get_no_edge(self):
        tree = ast.parse("import repro.core.metrics\n")
        edges = collect_import_edges(
            tree, "repro.core.system", "x.py",
            ["repro", "repro.core", "repro.core.metrics"],
        )
        assert [e.imported for e in edges] == ["repro.core.metrics"]

    def test_import_from_own_package_init_still_counted(self):
        tree = ast.parse("from repro.core import Negotiator\n")
        edges = collect_import_edges(
            tree, "repro.core.system", "x.py", ["repro", "repro.core"]
        )
        assert [e.imported for e in edges] == ["repro.core"]

    def test_package_init_cycle_flagged(self):
        findings = check_architecture(modules_from(PACKAGE_INIT_CYCLE))
        assert {f.code for f in findings} == {"QOS502"}
        assert (
            "{repro.core <-> repro.core.system <-> repro.scheduling <-> "
            "repro.scheduling.fcfs}" in findings[0].message
        )

    def test_dropping_the_re_export_clears_the_cycle(self):
        sources = dict(PACKAGE_INIT_CYCLE, **{"repro.core": '"""Core."""\n'})
        assert check_architecture(modules_from(sources)) == []

    def test_every_subpackage_imports_first(self):
        """With the root ``__init__`` stubbed out (it fixes one import
        order), each subpackage imports on its own in a fresh module
        table."""
        packages = sorted(
            "repro." + init.parent.name for init in PACKAGE.glob("*/__init__.py")
        )
        script = textwrap.dedent(
            """
            import importlib, sys, types
            for name in sys.argv[2:]:
                for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
                    del sys.modules[loaded]
                root = types.ModuleType("repro")
                root.__path__ = [sys.argv[1]]
                sys.modules["repro"] = root
                importlib.import_module(name)
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(PACKAGE), *packages],
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert "repro.failures" in packages and "repro.scheduling" in packages


class TestEndToEnd:
    def _write_tree(self, root, files: Dict[str, str]) -> None:
        for relative, source in files.items():
            path = root / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source), encoding="utf-8")
        for directory in root.rglob("repro*"):
            if directory.is_dir():
                (directory / "__init__.py").touch()

    def test_lint_paths_arch_flags_cycle(self, tmp_path):
        self._write_tree(
            tmp_path,
            {
                "repro/sim/a.py": "from repro.sim.b import x\n",
                "repro/sim/b.py": "from repro.sim.a import y\n",
            },
        )
        findings, _ = lint_paths([str(tmp_path)], LintConfig(), arch=True)
        assert sorted({f.code for f in findings}) == ["QOS502"]

    def test_arch_off_by_default(self, tmp_path):
        self._write_tree(
            tmp_path,
            {
                "repro/sim/a.py": "from repro.sim.b import x\n",
                "repro/sim/b.py": "from repro.sim.a import y\n",
            },
        )
        findings, _ = lint_paths([str(tmp_path)], LintConfig())
        assert findings == []

    def test_arch_finding_suppressable(self, tmp_path):
        self._write_tree(
            tmp_path,
            {
                "repro/sim/engine.py": (
                    "from repro.core.metrics import x"
                    "  # qoslint: disable=QOS501 -- transitional\n"
                ),
                "repro/core/metrics.py": "x = 1\n",
            },
        )
        findings, _ = lint_paths([str(tmp_path)], LintConfig(), arch=True)
        assert findings == []

    def test_arch_honours_ignore(self, tmp_path):
        self._write_tree(
            tmp_path,
            {
                "repro/sim/engine.py": "from repro.core.metrics import x\n",
                "repro/core/metrics.py": "x = 1\n",
            },
        )
        config = LintConfig(ignore=frozenset({"QOS501"}))
        findings, _ = lint_paths([str(tmp_path)], config, arch=True)
        assert findings == []

    @staticmethod
    def _tree_with_import(tmp_path, module: str, line: str):
        """A copy of the package under ``tmp_path/src`` with ``line``
        added to ``module``'s imports."""
        src = tmp_path / "src"
        shutil.copytree(
            PACKAGE.parent, src, ignore=shutil.ignore_patterns("__pycache__")
        )
        path = src / "repro" / module
        path.write_text(
            path.read_text(encoding="utf-8").replace(
                "from __future__ import annotations\n",
                f"from __future__ import annotations\n\n{line}\n",
                1,
            ),
            encoding="utf-8",
        )
        return src

    @staticmethod
    def _lint(tmp_path, src, *command: str):
        return subprocess.run(
            [sys.executable, "-m", *command, "--arch", "src"],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )

    def test_cli_reports_import_time_cycle(self, tmp_path):
        """A cycle that fails at import time is a QOS502 finding of
        ``probqos lint --arch``, not a traceback from importing the tree
        the linter is checking."""
        src = self._tree_with_import(
            tmp_path,
            "checkpointing/runtime.py",
            "from repro.core.metrics import JobOutcome",
        )
        done = self._lint(tmp_path, src, "repro.cli", "lint")
        output = done.stdout + done.stderr
        assert done.returncode != 0
        assert "QOS502" in output
        assert "Traceback" not in output

    def test_module_entry_point_runs_probqos_lint(self, tmp_path):
        """``python -m repro.lint.cli`` is ``probqos lint``: same findings,
        same exit code, on a tree with an import-time cycle."""
        src = self._tree_with_import(
            tmp_path,
            "core/fastpath.py",
            "from repro.scheduling.placement import random_scorer",
        )
        module = self._lint(tmp_path, src, "repro.lint.cli")
        probqos = self._lint(tmp_path, src, "repro.cli", "lint")
        assert module.returncode == probqos.returncode == 1
        assert "QOS502" in module.stdout
        assert "Traceback" not in module.stdout + module.stderr
        assert module.stdout == probqos.stdout
