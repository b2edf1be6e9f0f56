"""Engine behavior: alias resolution, layer mapping, ordering, QOS000."""

from __future__ import annotations

import ast

from repro.lint import LintConfig, lint_source
from repro.lint.config import module_name_for
from repro.lint.engine import (
    SYNTAX_ERROR_CODE,
    ModuleContext,
    _collect_aliases,
)

SIM = "src/repro/sim/fake.py"


class TestModuleNames:
    def test_library_path(self):
        assert module_name_for("src/repro/sim/engine.py") == "repro.sim.engine"

    def test_package_init(self):
        assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"

    def test_windows_separators(self):
        assert module_name_for("src\\repro\\core\\qos.py") == "repro.core.qos"

    def test_non_library_path(self):
        assert module_name_for("tests/sim/test_engine.py") == ""
        assert module_name_for("benchmarks/perf/test_speed.py") == ""


class TestLayerConfig:
    def test_sim_layer_membership(self):
        config = LintConfig()
        assert config.is_sim_layer("repro.sim.engine")
        assert config.is_sim_layer("repro.cluster")
        assert not config.is_sim_layer("repro.experiments.report")
        assert not config.is_sim_layer("repro.obs.sampler")

    def test_prefix_matching_is_per_component(self):
        # repro.simulator must not match the repro.sim package prefix.
        assert not LintConfig().is_sim_layer("repro.simulator")

    def test_select_and_ignore(self):
        config = LintConfig(select=frozenset({"QOS101"}))
        assert config.code_enabled("QOS101")
        assert not config.code_enabled("QOS102")
        config = LintConfig(ignore=frozenset({"QOS101"}))
        assert not config.code_enabled("QOS101")
        assert config.code_enabled("QOS102")

    def test_ignore_beats_select(self):
        config = LintConfig(
            select=frozenset({"QOS101"}), ignore=frozenset({"QOS101"})
        )
        assert not config.code_enabled("QOS101")


class TestAliasResolution:
    def resolve(self, source: str, expr: str) -> str:
        tree = ast.parse(source + f"\n_probe = {expr}\n")
        ctx = ModuleContext(
            path=SIM,
            module="repro.sim.fake",
            config=LintConfig(),
            aliases=_collect_aliases(tree),
        )
        probe = tree.body[-1].value
        return ctx.qualified_name(probe)

    def test_plain_import(self):
        assert self.resolve("import time", "time.time") == "time.time"

    def test_aliased_import(self):
        assert (
            self.resolve("import numpy as np", "np.random.seed")
            == "numpy.random.seed"
        )

    def test_from_import(self):
        assert (
            self.resolve("from numpy import random", "random.seed")
            == "numpy.random.seed"
        )

    def test_dotted_import_binds_top(self):
        assert (
            self.resolve("import numpy.random", "numpy.random.seed")
            == "numpy.random.seed"
        )

    def test_non_chain_returns_none(self):
        tree = ast.parse("x = (a or b).attr\n")
        ctx = ModuleContext(
            path=SIM, module="repro.sim.fake", config=LintConfig()
        )
        assert ctx.qualified_name(tree.body[0].value) is None


class TestEngineOutput:
    def test_syntax_error_becomes_qos000(self):
        findings = lint_source("def broken(:\n", SIM)
        assert [f.code for f in findings] == [SYNTAX_ERROR_CODE]
        assert findings[0].line >= 1

    def test_findings_sorted_by_location(self):
        source = "b = hash(y)\na = hash(x)\nimport time\nt = time.time()\n"
        findings = lint_source(source, SIM)
        keys = [(f.line, f.col, f.code) for f in findings]
        assert keys == sorted(keys)

    def test_select_filters_findings(self):
        source = "import time\nt = time.time()\nx = hash(t)\n"
        config = LintConfig(select=frozenset({"QOS110"}))
        findings = lint_source(source, SIM, config)
        assert [f.code for f in findings] == ["QOS110"]

    def test_deselected_rules_never_visit(self, monkeypatch):
        # A run limited to one rule must not pay for the others: disabled
        # rules are dropped before dispatch, not filtered after.
        from repro.lint.rules.ordering import UnorderedIterationRule

        def forbidden(self, node, ctx):
            raise AssertionError("a deselected rule visited a node")

        monkeypatch.setattr(UnorderedIterationRule, "visit", forbidden)
        source = "import random\n\ndef f(xs):\n    return random.choice(xs)\n"
        config = LintConfig(select=frozenset({"QOS101"}))
        findings = lint_source(source, SIM, config)
        assert [f.code for f in findings] == ["QOS101"]

    def test_finding_render_format(self):
        (finding,) = lint_source("x = hash(n)\n", SIM)
        rendered = finding.render()
        assert rendered.startswith(f"{SIM}:1:4: QOS110 [error] ")

    def test_nested_module_level_if_still_module_level(self):
        # Module-level state behind an `if` still executes at import time.
        source = "import sys\nif sys.platform == 'linux':\n    CACHE = {}\n"
        findings = lint_source(source, SIM)
        assert "QOS107" in [f.code for f in findings]


class TestUnusedSuppressions:
    def test_stale_suppression_becomes_qos002(self):
        source = "x = 1  # qoslint: disable=QOS102 -- stale excuse\n"
        findings = lint_source(source, SIM)
        assert [f.code for f in findings] == ["QOS002"]
        assert "stale" in findings[0].message

    def test_live_suppression_stays_silent(self):
        source = (
            "import time\n"
            "t = time.time()  # qoslint: disable=QOS102 -- fixture\n"
        )
        assert lint_source(source, SIM) == []

    def test_unchecked_code_not_judged(self):
        # With only QOS110 selected, QOS102 never ran; its suppression is
        # dormant, not stale.
        source = "x = 1  # qoslint: disable=QOS102 -- rule not active\n"
        config = LintConfig(select=frozenset({"QOS110"}))
        assert lint_source(source, SIM, config) == []

    def test_arch_code_suppression_not_judged(self):
        # QOS501 findings come from the whole-program pass, which a
        # single-file lint never runs; the per-file QOS002 check must not
        # call its suppressions stale.
        source = (
            "from repro.core import metrics"
            "  # qoslint: disable=QOS501 -- transitional\n"
        )
        assert lint_source(source, SIM) == []

    def test_one_stale_code_in_multi_code_suppression(self):
        source = (
            "import time\n"
            "t = time.time()  # qoslint: disable=QOS102,QOS110 -- half stale\n"
        )
        findings = lint_source(source, SIM)
        assert [f.code for f in findings] == ["QOS002"]
        assert "QOS110" in findings[0].message
