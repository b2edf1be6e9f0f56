"""Fixtures for the taint-flow rules (QOS201-QOS203).

Each bad fixture launders the banned value through at least one assignment
so the single-pass pattern rules *cannot* see it — that separation is the
point of the flow pass, and the ``select=`` filter keeps each assertion
about exactly one family.
"""

from __future__ import annotations

import textwrap
from typing import List, Optional, Sequence

from repro.lint import lint_source
from repro.lint.config import LintConfig

SIM = "src/repro/sim/fake.py"
LIB = "src/repro/experiments/fake.py"
OBS = "src/repro/obs/fake.py"
RNG = "src/repro/sim/rng.py"
TEST = "tests/sim/fake_test.py"


def codes(
    source: str, path: str = SIM, select: Optional[Sequence[str]] = None
) -> List[str]:
    config = LintConfig(
        select=frozenset(select) if select is not None else None
    )
    return [
        f.code for f in lint_source(textwrap.dedent(source), path, config)
    ]


class TestQOS201WallClockFlow:
    def test_bad_laundered_into_schedule(self):
        bad = """
            import time

            def mark(loop, kind):
                stamp = time.time()
                loop.schedule(stamp, kind)
        """
        assert codes(bad, select=["QOS201"]) == ["QOS201"]

    def test_bad_wall_clock_read_scheduled(self):
        # The full rule set, not one family: the read is a QOS102 finding
        # and its flow into the event loop a QOS201 one, so this defect
        # needs no unit-annotation rule of its own.
        bad = """
            import time

            def mark(loop, kind):
                stamp = time.time()
                loop.schedule(stamp, kind)
        """
        assert codes(bad) == ["QOS102", "QOS201"]

    def test_bad_laundered_through_arithmetic(self):
        bad = """
            import time

            def mark(loop, kind):
                stamp = time.time()
                adjusted = stamp + 5.0
                loop.schedule_in(adjusted, kind)
        """
        assert codes(bad, select=["QOS201"]) == ["QOS201"]

    def test_bad_instance_state_sink(self):
        bad = """
            import time

            class Tracker:
                def mark(self):
                    t = time.time()
                    self.started = t
        """
        assert codes(bad, LIB, select=["QOS201"]) == ["QOS201"]

    def test_bad_return_sink(self):
        bad = """
            import time

            def elapsed(since):
                now = time.time()
                return now - since
        """
        assert codes(bad, LIB, select=["QOS201"]) == ["QOS201"]

    def test_good_obs_layer_state_exempt(self):
        # The instrumentation layer measures wall time by design; its
        # timers and returns are not sim state.
        good = """
            import time

            def elapsed(since):
                now = time.time()
                return now - since
        """
        assert codes(good, OBS, select=["QOS201"]) == []

    def test_good_same_line_left_to_pattern_rule(self):
        # Direct use on one line is QOS102's jurisdiction; the flow rule
        # reporting it too would double every finding.
        bad = """
            import time

            def mark(loop, kind):
                loop.schedule(time.time(), kind)
        """
        assert codes(bad, select=["QOS201"]) == []
        assert codes(bad, select=["QOS102"]) == ["QOS102"]

    def test_good_sim_time_untouched(self):
        good = """
            def mark(loop, kind):
                t = loop.now + 10.0
                loop.schedule(t, kind)
        """
        assert codes(good, select=["QOS201"]) == []


class TestQOS202GlobalRngFlow:
    def test_bad_laundered_into_schedule(self):
        bad = """
            import random

            def jitter(loop, kind):
                noise = random.random()
                loop.schedule_in(noise, kind)
        """
        assert codes(bad, select=["QOS202"]) == ["QOS202"]

    def test_bad_return_sink(self):
        bad = """
            import random

            def sample():
                x = random.random()
                return x * 2.0
        """
        assert codes(bad, LIB, select=["QOS202"]) == ["QOS202"]

    def test_good_rng_module_state_exempt(self):
        good = """
            import random

            def seed_stream(seed):
                stream = random.Random(seed)
                x = stream.random()
                return x
        """
        assert codes(good, RNG, select=["QOS202"]) == []

    def test_good_explicit_generator(self):
        good = """
            import random

            def jitter(loop, kind, rng):
                noise = rng.random()
                loop.schedule_in(noise, kind)
        """
        assert codes(good, select=["QOS202"]) == []


class TestQOS203UnorderedFlow:
    def test_bad_set_variable_iterated_later(self):
        bad = """
            def drain(jobs):
                pending = set(jobs)
                for job in pending:
                    job.run()
        """
        assert codes(bad, select=["QOS203"]) == ["QOS203"]

    def test_bad_materialized_same_line(self):
        # list(set(...)) on one line: invisible to QOS103, caught here.
        bad = """
            def order(jobs):
                queue = list(set(jobs))
                return queue
        """
        assert codes(bad, select=["QOS203"]) == ["QOS203"]

    def test_bad_returned_from_sim_layer(self):
        bad = """
            def snapshot(jobs):
                pending = set(jobs)
                return pending
        """
        assert codes(bad, select=["QOS203"]) == ["QOS203"]

    def test_good_sorted_launders(self):
        good = """
            def drain(jobs):
                pending = set(jobs)
                for job in sorted(pending):
                    job.run()
        """
        assert codes(good, select=["QOS203"]) == []

    def test_good_set_algebra_then_sorted(self):
        good = """
            def free(nodes, busy):
                idle = set(nodes) - set(busy)
                return sorted(idle)
        """
        assert codes(good, select=["QOS203"]) == []

    def test_good_outside_sim_layer(self):
        bad = """
            def snapshot(jobs):
                pending = set(jobs)
                return pending
        """
        assert codes(bad, LIB, select=["QOS203"]) == []

    def test_good_membership_tests_untainted(self):
        # Sets used as sets (membership, len) never reach an order sink.
        good = """
            def admit(job, allowed):
                members = set(allowed)
                return job in members
        """
        assert codes(good, select=["QOS203"]) == []
