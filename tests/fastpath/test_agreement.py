"""Agreement between the analytical fast path and live predictor queries.

The contract (DESIGN.md "Analytical negotiation fast path"): for trace
predictors the fast path is *bit-identical*; for survival-decomposable
predictors (online) the cached reconstruction is also bit-identical
because it combines the same raw hazard terms in the same order; for
arbitrary predictors the documented tolerance is 1e-9 under the
independence assumption, checked by the checking oracle
(``probe_oracle.CheckingOracle``).

The exhaustive randomized sweep below covers well over the required 1000
(cluster, trace, job) cases with a fixed seed, so any disagreement is a
deterministic, reproducible failure.
"""

from __future__ import annotations

import itertools
import random

from repro.cluster.nodeset import NodeSet
from repro.core.fastpath import AnalyticalEvaluator
from repro.failures.events import FailureEvent, FailureTrace, RawEvent, Severity
from repro.prediction.base import combine_independent
from repro.prediction.online import OnlinePredictor
from repro.prediction.trace import TracePredictor

HOUR = 3600.0


def random_trace(rng: random.Random, nodes: int, horizon: float) -> FailureTrace:
    count = rng.randrange(0, 30)
    events = [
        FailureEvent(
            event_id=i + 1,
            time=rng.uniform(0.0, horizon),
            node=rng.randrange(nodes),
        )
        for i in range(count)
    ]
    return FailureTrace(events)


def random_window(rng: random.Random, horizon: float):
    a = rng.uniform(-0.1 * horizon, horizon)
    b = rng.uniform(-0.1 * horizon, horizon)
    if rng.random() < 0.1:
        return a, a  # empty window edge case
    return min(a, b), max(a, b)


class TestTraceAgreement:
    """Index answers == TracePredictor answers, bit for bit."""

    def test_exhaustive_randomized_agreement(self):
        rng = random.Random(20050628)
        cases = 0
        nonzero = 0
        for case in range(250):
            nodes = rng.randrange(2, 11)
            horizon = rng.uniform(10 * HOUR, 200 * HOUR)
            trace = random_trace(rng, nodes, horizon)
            accuracy = rng.choice([0.0, 1.0, rng.random()])
            predictor = TracePredictor(trace, accuracy=accuracy, seed=case)
            index = predictor.interval_index()
            for _ in range(5):
                start, end = random_window(rng, horizon)
                subset = [
                    n for n in range(nodes) if rng.random() < 0.7
                ] or [rng.randrange(nodes)]
                rng.shuffle(subset)
                cases += 1
                expected = predictor.failure_probability(subset, start, end)
                assert index.failure_probability(subset, start, end) == expected
                if expected > 0.0:
                    nonzero += 1
                expected_first = predictor.first_predicted_failure(
                    subset, start, end
                )
                assert index.first_predicted(subset, start, end) == expected_first
                assert index.predicted_failures(
                    subset, start, end
                ) == predictor.predicted_failures(subset, start, end)
                # A run-length set wider than the failing-node list is
                # scanned from the failing side.
                as_set = NodeSet.from_iterable(subset)
                assert index.failure_probability(as_set, start, end) == expected
                assert index.first_predicted(as_set, start, end) == expected_first
                assert index.predicted_failures(
                    as_set, start, end
                ) == predictor.predicted_failures(subset, start, end)
                # Once placement has ranked the window, a run-length set
                # in it is priced from the memoised window map.
                index.window_firsts(start, end)
                first = index.first_detectable(as_set, start, end)
                assert index.failure_probability(as_set, start, end) == (
                    first[2] if first is not None else 0.0
                ) == expected
                node = rng.randrange(nodes)
                assert index.node_term(
                    node, start, end
                ) == predictor.node_failure_probability(node, start, end)
        assert cases >= 1000
        # The sweep must actually exercise detectable failures, not just
        # empty windows agreeing on 0.0.
        assert nonzero > 100

    def test_evaluator_serves_trace_queries_identically(self):
        rng = random.Random(7)
        for case in range(50):
            nodes = rng.randrange(2, 9)
            trace = random_trace(rng, nodes, 50 * HOUR)
            predictor = TracePredictor(trace, accuracy=0.8, seed=case)
            evaluator = AnalyticalEvaluator(predictor, nodes)
            assert evaluator.exact
            evaluator.begin_dialogue()
            for _ in range(8):
                start, end = random_window(rng, 50 * HOUR)
                subset = list(range(nodes))
                rng.shuffle(subset)
                assert evaluator.failure_probability(
                    subset, start, end
                ) == predictor.failure_probability(subset, start, end)
                node = rng.randrange(nodes)
                # Twice: the second hit comes from the dialogue cache.
                for _ in range(2):
                    assert evaluator.node_failure_probability(
                        node, start, end
                    ) == predictor.node_failure_probability(node, start, end)

    def test_with_accuracy_clone_gets_its_own_index(self):
        trace = FailureTrace(
            [FailureEvent(event_id=1, time=HOUR, node=0)]
        )
        sharp = TracePredictor(trace, accuracy=1.0, seed=1)
        blind = sharp.with_accuracy(0.0)
        assert sharp.interval_index().detectable_count == 1
        assert blind.interval_index().detectable_count == 0
        assert blind.interval_index().failure_probability([0], 0.0, 2 * HOUR) == 0.0


class TestOnlineAgreement:
    """The online predictor is survival-decomposable, so the evaluator's
    cached reconstruction is bit-identical, not merely within tolerance."""

    def _predictor(self, rng: random.Random, nodes: int) -> OnlinePredictor:
        log = [
            RawEvent(
                time=rng.uniform(0.0, 20 * HOUR),
                node=rng.randrange(nodes),
                severity=rng.choice([Severity.WARNING, Severity.ERROR]),
            )
            for _ in range(rng.randrange(0, 60))
        ]
        log.sort(key=lambda e: e.time)
        return OnlinePredictor(log, health=None)

    def test_evaluator_matches_online_bit_identically(self):
        rng = random.Random(11)
        for _ in range(40):
            nodes = rng.randrange(2, 9)
            predictor = self._predictor(rng, nodes)
            evaluator = AnalyticalEvaluator(predictor, nodes)
            assert not evaluator.exact
            evaluator.begin_dialogue()
            for _ in range(6):
                start, end = random_window(rng, 20 * HOUR)
                subset = list(range(nodes))
                rng.shuffle(subset)
                expected = predictor.failure_probability(subset, start, end)
                got = evaluator.failure_probability(subset, start, end)
                assert got == expected
                assert abs(got - expected) <= 1e-9  # the documented contract

    def test_node_term_is_the_raw_hazard(self):
        rng = random.Random(13)
        predictor = self._predictor(rng, 4)
        assert predictor.node_failure_term(2, HOUR, 3 * HOUR) == (
            predictor.node_hazard(2, HOUR, 2 * HOUR)
        )
        # And combining the terms reproduces the set-level probability.
        terms = [predictor.node_failure_term(n, HOUR, 3 * HOUR) for n in range(4)]
        assert combine_independent(terms) == predictor.failure_probability(
            range(4), HOUR, 3 * HOUR
        )


class TestPruningBoundSoundness:
    """best_case_probability upper-bounds every partition's promise."""

    def test_bound_dominates_all_partitions(self):
        rng = random.Random(29)
        checked = 0
        bound_tight_hits = 0
        for case in range(120):
            nodes = rng.randrange(2, 8)
            trace = random_trace(rng, nodes, 40 * HOUR)
            predictor = TracePredictor(trace, accuracy=rng.random(), seed=case)
            index = predictor.interval_index()
            start, end = random_window(rng, 40 * HOUR)
            for size in range(1, nodes + 1):
                bound = index.best_case_probability(size, start, end, nodes)
                best = None
                for combo in itertools.combinations(range(nodes), size):
                    promise = 1.0 - predictor.failure_probability(
                        combo, start, end
                    )
                    checked += 1
                    assert promise <= bound + 1e-12
                    if best is None or promise > best:
                        best = promise
                if size == nodes and best is not None:
                    # Full-cluster bound is exact, not merely sound.
                    assert bound == best
                    bound_tight_hits += 1
        assert checked > 1000
        assert bound_tight_hits > 50

    def test_oversized_request_never_prunes(self):
        trace = FailureTrace([FailureEvent(event_id=1, time=HOUR, node=0)])
        index = TracePredictor(trace, accuracy=1.0, seed=1).interval_index()
        # size beyond the cluster: the bound must not claim infeasibility.
        assert index.best_case_probability(5, 0.0, 2 * HOUR, 4) == 1.0

    def test_clean_surplus_means_no_prune(self):
        trace = FailureTrace([FailureEvent(event_id=1, time=HOUR, node=0)])
        index = TracePredictor(trace, accuracy=1.0, seed=1).interval_index()
        # 3 clean nodes exist, so a 3-node partition can be failure-free.
        assert index.best_case_probability(3, 0.0, 2 * HOUR, 4) == 1.0
        # A 4-node partition must include the dirty node.
        px = index.node_term(0, 0.0, 2 * HOUR)
        assert index.best_case_probability(4, 0.0, 2 * HOUR, 4) == 1.0 - px
