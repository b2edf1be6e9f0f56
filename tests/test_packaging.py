"""Packaging and public-API consistency checks."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

PUBLIC_MODULES = [
    "repro",
    "repro.sim",
    "repro.workload",
    "repro.failures",
    "repro.prediction",
    "repro.cluster",
    "repro.scheduling",
    "repro.checkpointing",
    "repro.core",
    "repro.obs",
    "repro.experiments",
    "repro.cli",
]


class TestImports:
    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_public_module_imports(self, module_name):
        importlib.import_module(module_name)

    def test_every_submodule_imports(self):
        failures = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            try:
                importlib.import_module(info.name)
            except Exception as exc:  # pragma: no cover - diagnostic path
                failures.append((info.name, exc))
        assert not failures, f"unimportable submodules: {failures}"


class TestPublicApi:
    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists {name}"

    def test_version_is_set(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_quickstart_symbols(self):
        assert callable(repro.simulate)
        config = repro.SystemConfig()
        assert config.node_count == 128

    def test_docstrings_on_public_entry_points(self):
        # Every public class/function exported at the top level documents
        # itself; this is the contract a downstream user reads first.
        for name in repro.__all__:
            if name.startswith("__"):
                continue
            obj = getattr(repro, name)
            if callable(obj):
                assert obj.__doc__, f"repro.{name} lacks a docstring"


def test_no_unused_top_level_imports():
    # A module-level import that is never read and not re-exported in
    # ``__all__`` is dead weight.  Package ``__init__`` files are skipped:
    # their imports are re-exports or rule registration.
    src = Path(repro.__file__).resolve().parent
    unused = []
    for path in sorted(src.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.Assign) and "__all__" in {
                getattr(target, "id", None) for target in node.targets
            }:
                read.update(ast.literal_eval(node.value))
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{path}:{node.lineno}: {name}")
    assert unused == [], "unused imports:\n" + "\n".join(unused)
