"""Packaging and public-API consistency checks."""

from __future__ import annotations

import importlib
import pkgutil

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
