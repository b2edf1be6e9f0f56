"""Per-rule fixtures: every QOS rule has at least one bad and one good case.

Each fixture is a synthetic module linted under a path that places it in
the layer the rule targets:

* ``SIM`` — ``src/repro/sim/fake.py`` (sim layer, library);
* ``LIB`` — ``src/repro/experiments/fake.py`` (library, not a sim layer);
* ``TEST`` — ``tests/sim/fake_test.py`` (outside the library).
"""

from __future__ import annotations

import textwrap

from repro.lint import lint_source
from repro.lint.findings import LintSeverity

SIM = "src/repro/sim/fake.py"
LIB = "src/repro/experiments/fake.py"
TEST = "tests/sim/fake_test.py"


def codes(source: str, path: str = SIM) -> list:
    """Finding codes for ``source`` linted as ``path``, in report order."""
    return [f.code for f in lint_source(textwrap.dedent(source), path)]


class TestQOS101GlobalRandom:
    def test_bad_stdlib_module_function(self):
        assert codes("import random\nrandom.seed(7)\n") == ["QOS101"]

    def test_bad_numpy_alias_chain(self):
        assert codes("import numpy as np\nx = np.random.randint(3)\n") == [
            "QOS101"
        ]

    def test_bad_from_import(self):
        assert codes("from random import shuffle\n") == ["QOS101"]

    def test_good_explicit_generators(self):
        clean = """
            import random
            import numpy as np
            rng = random.Random(42)
            gen = np.random.default_rng(42)
            x = rng.random() + gen.random()
        """
        assert codes(clean) == []

    def test_good_inside_rng_module(self):
        # The designated RNG module is the one place allowed to touch the
        # machinery directly.
        assert codes("import random\nrandom.seed(1)\n", "src/repro/sim/rng.py") == []

    def test_no_duplicate_for_nested_attribute_chain(self):
        # np.random.seed visits both the outer and inner Attribute; only
        # the full banned chain may report.
        assert codes("import numpy\nnumpy.random.seed(1)\n") == ["QOS101"]


class TestQOS102WallClock:
    def test_bad_time_time_in_library(self):
        assert codes("import time\nt = time.time()\n", LIB) == ["QOS102"]

    def test_bad_datetime_now(self):
        assert codes(
            "import datetime\nts = datetime.datetime.now()\n", SIM
        ) == ["QOS102"]

    def test_good_obs_layer_exempt(self):
        assert codes(
            "import time\nt = time.perf_counter()\n", "src/repro/obs/fake.py"
        ) == []

    def test_good_outside_library(self):
        assert codes("import time\nt = time.time()\n", TEST) == []


class TestQOS103UnorderedIteration:
    def test_bad_for_over_set_literal(self):
        assert codes("for x in {3, 1, 2}:\n    print(x)\n") == ["QOS103"]

    def test_bad_comprehension_over_keys(self):
        bad = """
            def snapshot(d):
                return [k for k in d.keys()]
        """
        assert codes(bad) == ["QOS103"]

    def test_bad_set_return_annotation(self):
        bad = """
            from typing import Set

            def running() -> Set[int]:
                return set()
        """
        # The annotation finding plus the set() iteration-free body: only
        # the annotation reports (set() is not iterated here).
        assert codes(bad) == ["QOS103"]

    def test_good_sorted_iteration(self):
        assert codes("for x in sorted({3, 1, 2}):\n    print(x)\n") == []

    def test_good_outside_sim_layer(self):
        assert codes("for x in {3, 1, 2}:\n    print(x)\n", LIB) == []

    def test_bad_set_variable_iterated_later(self):
        bad = """
            def drain(jobs):
                pending = set(jobs)
                for job in pending:
                    job.run()
        """
        assert codes(bad) == ["QOS103"]

    def test_bad_materialized_same_line(self):
        bad = """
            def order(jobs):
                queue = list(set(jobs))
                return queue
        """
        assert codes(bad) == ["QOS103"]

    def test_bad_returned_from_sim_layer(self):
        bad = """
            def snapshot(jobs):
                pending = set(jobs)
                return pending
        """
        assert codes(bad) == ["QOS103"]

    def test_good_sorted_launders(self):
        good = """
            def drain(jobs):
                pending = set(jobs)
                for job in sorted(pending):
                    job.run()
        """
        assert codes(good) == []

    def test_good_set_algebra_then_sorted(self):
        good = """
            def free(nodes, busy):
                idle = set(nodes) - set(busy)
                return sorted(idle)
        """
        assert codes(good) == []

    def test_good_set_name_outside_sim_layer(self):
        bad = """
            def snapshot(jobs):
                pending = set(jobs)
                return pending
        """
        assert codes(bad, LIB) == []

    def test_good_membership_tests_only(self):
        # Sets used as sets (membership, len) never expose their order.
        good = """
            def admit(job, allowed):
                members = set(allowed)
                return job in members
        """
        assert codes(good) == []

    def test_good_rebound_name_not_tracked(self):
        # Flow-insensitive by design: one non-set binding clears the name.
        good = """
            def drain(jobs):
                pending = set(jobs)
                pending = sorted(pending)
                for job in pending:
                    job.run()
        """
        assert codes(good) == []


class TestQOS104FloatEquality:
    def test_bad_float_literal_compare(self):
        findings = lint_source("ok = x == 0.3\n", LIB)
        assert [f.code for f in findings] == ["QOS104"]
        assert findings[0].severity is LintSeverity.WARNING

    def test_bad_not_equal(self):
        assert codes("ok = 1.5 != y\n", LIB) == ["QOS104"]

    def test_good_tolerance_compare(self):
        assert codes("ok = abs(x - 0.3) < 1e-9\n", LIB) == []

    def test_good_tests_exempt(self):
        # Bit-exact replay assertions are the determinism suite's job.
        assert codes("assert x == 0.3\n", TEST) == []

    def test_good_integer_compare(self):
        assert codes("ok = x == 3\n", LIB) == []


class TestQOS105SharedDefault:
    def test_bad_mutable_literal_default(self):
        assert codes("def f(xs=[]):\n    return xs\n", TEST) == ["QOS105"]

    def test_bad_call_default(self):
        bad = """
            class Config:
                pass

            def f(cfg=Config()):
                return cfg
        """
        assert codes(bad, LIB) == ["QOS105"]

    def test_good_none_default(self):
        good = """
            def f(xs=None):
                xs = xs if xs is not None else []
                return xs
        """
        assert codes(good, LIB) == []

    def test_good_immutable_constructor_default(self):
        assert codes("def f(xs=tuple()):\n    return xs\n", LIB) == []


class TestQOS106SilentExcept:
    def test_bad_bare_except(self):
        bad = """
            try:
                work()
            except:
                handle()
        """
        assert codes(bad, TEST) == ["QOS106"]

    def test_bad_broad_pass_in_library(self):
        bad = """
            try:
                work()
            except Exception:
                pass
        """
        assert codes(bad, LIB) == ["QOS106"]

    def test_good_narrow_handler(self):
        good = """
            try:
                work()
            except ValueError:
                pass
        """
        assert codes(good, LIB) == []

    def test_good_broad_but_observable(self):
        good = """
            try:
                work()
            except Exception as exc:
                log(exc)
                raise
        """
        assert codes(good, LIB) == []


class TestQOS107ModuleMutableState:
    def test_bad_module_level_dict(self):
        assert codes("CACHE = {}\n") == ["QOS107"]

    def test_bad_annotated_list(self):
        assert codes("REGISTRY: list = []\n") == ["QOS107"]

    def test_good_immutable_containers(self):
        good = """
            from types import MappingProxyType

            ORDER = MappingProxyType({"a": 1})
            NAMES = ("a", "b")
            KINDS = frozenset({"x"})
        """
        assert codes(good) == []

    def test_good_dunder_exempt(self):
        assert codes('__all__ = ["x"]\n') == []

    def test_good_inside_function(self):
        assert codes("def f():\n    cache = {}\n    return cache\n") == []

    def test_good_outside_sim_layer(self):
        assert codes("CACHE = {}\n", LIB) == []


class TestQOS109AmbientEnvironment:
    def test_bad_environ_get(self):
        assert codes(
            "import os\nfull = os.environ.get('REPRO_FULL')\n", LIB
        ) == ["QOS109"]

    def test_bad_getenv_call(self):
        assert codes("import os\nseed = os.getenv('SEED')\n", LIB) == ["QOS109"]

    def test_bad_getcwd(self):
        assert codes("import os\nroot = os.getcwd()\n", SIM) == ["QOS109"]

    def test_good_outside_library(self):
        assert codes("import os\nfull = os.environ.get('X')\n", TEST) == []

    def test_good_parameterised(self):
        assert codes("def f(seed):\n    return seed\n", LIB) == []


class TestQOS110SaltedHash:
    def test_bad_builtin_hash(self):
        assert codes("bucket = hash(name) % 100\n") == ["QOS110"]

    def test_good_stable_hash(self):
        good = """
            from repro.sim.rng import stable_hash

            bucket = stable_hash(name) % 100
        """
        assert codes(good) == []

    def test_good_outside_sim_layer(self):
        assert codes("bucket = hash(name) % 100\n", LIB) == []

    def test_good_method_named_hash(self):
        # Only the builtin: obj.hash() is some other API.
        assert codes("digest = obj.hash()\n") == []


class TestRuleMetadata:
    def test_ten_distinct_rules_registered(self):
        from repro.lint import all_rules

        rules = all_rules()
        assert len({rule.code for rule in rules}) >= 10

    def test_every_rule_documents_itself(self):
        from repro.lint import all_rules

        for rule in all_rules():
            assert rule.code.startswith("QOS")
            assert rule.name
            assert rule.rationale
            # Pattern rules declare node interest; arch rules (QOS5xx) are
            # driven by the whole-program graph pass.
            assert rule.node_types or rule.code.startswith("QOS5")
