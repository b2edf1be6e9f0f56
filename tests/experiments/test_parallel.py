"""Determinism and equivalence tests for parallel execution.

The guarantee: ``run_points`` returns bit-identical metrics whether
points run sequentially or across a process pool — and per-worker obs
snapshots merge into the same counter totals the sequential path
accumulates.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.experiments.config import ExperimentSetup
from repro.experiments.parallel import PointSpec, run_specs
from repro.experiments.replication import ReplicatedExperiment
from repro.experiments.runner import ExperimentContext
from repro.obs.export import empty_obs, merge_obs
from repro.obs.prof import Profiler, strip_wall_ns

SETUP = ExperimentSetup(workload="sdsc", job_count=60, seed=7)

#: A small (a, U) grid — enough points that pool scheduling order and
#: completion order genuinely differ from submission order.
GRID = [(a, u) for a in (0.0, 0.5, 1.0) for u in (0.1, 0.9)]


@pytest.fixture(scope="module")
def sequential_metrics():
    return ExperimentContext.prepare(SETUP).run_points(GRID)


class TestPointSpec:
    def test_picklable(self):
        spec = PointSpec.create(SETUP, 0.5, 0.9, {"checkpoint_policy": "never"})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_memo_key_matches_runner_rounding(self):
        # 0.1 * 3 != 0.3 exactly; the memo key must treat them as one point.
        lhs = PointSpec.create(SETUP, 0.1 * 3, 0.9, {})
        rhs = PointSpec.create(SETUP, 0.3, 0.9, {})
        assert lhs.memo_key() == rhs.memo_key()


class TestRunPointsDeterminism:
    """jobs=1 and jobs=4 must agree bit for bit."""

    def test_pool_matches_sequential(self, sequential_metrics):
        pooled = ExperimentContext.prepare(SETUP, jobs=4).run_points(GRID)
        assert pooled == sequential_metrics

    def test_result_order_is_submission_order(self, sequential_metrics):
        reversed_grid = list(reversed(GRID))
        pooled = ExperimentContext.prepare(SETUP, jobs=2).run_points(reversed_grid)
        assert pooled == list(reversed(sequential_metrics))

    def test_duplicate_points_simulated_once(self):
        ctx = ExperimentContext.prepare(SETUP, jobs=2)
        twice = ctx.run_points([(0.5, 0.5), (0.5, 0.5)])
        assert twice[0] == twice[1]
        once = ExperimentContext.prepare(SETUP)
        once.run_points([(0.5, 0.5)])
        # One simulation's counters, not two.
        assert ctx.obs == once.obs

    def test_per_point_overrides_match_run_point(self):
        ctx = ExperimentContext.prepare(SETUP)
        expected = ctx.run_point(0.5, 0.5, checkpoint_policy="periodic")
        batch = ExperimentContext.prepare(SETUP, jobs=2).run_points(
            [(0.5, 0.5, dict(checkpoint_policy="periodic")), (0.5, 0.5)]
        )
        assert batch[0] == expected
        assert batch[1] != expected  # the policy override really applied

    def test_pool_merges_worker_counters_exactly(self, sequential_metrics):
        sequential = ExperimentContext.prepare(SETUP)
        sequential.run_points(GRID)
        pooled = ExperimentContext.prepare(SETUP, jobs=3)
        pooled.run_points(GRID)
        assert sequential.obs["counters"]["negotiation.dialogue.dialogues"] > 0
        # Both paths fold whole points in submission order, so even the
        # float counters and the last-point gauges match exactly.
        assert pooled.obs == sequential.obs

    def test_pool_merges_worker_profiles_exactly(self):
        """Same zone tree and sim-time buckets whatever the worker count:
        each point starts its simulated clock at 0, and forked workers
        profile into their own attached profilers, counted once."""
        with Profiler().attach() as sequential:
            ExperimentContext.prepare(SETUP).run_points(GRID)
        with Profiler().attach() as pooled:
            ExperimentContext.prepare(SETUP, jobs=3).run_points(GRID)
        seq_snapshot = strip_wall_ns(sequential.snapshot())
        point_buckets = {
            index: zones["experiments.runner.point"]["calls"]
            for index, zones in seq_snapshot["buckets"].items()
            if "experiments.runner.point" in zones
        }
        assert point_buckets == {"0": len(GRID)}
        assert strip_wall_ns(pooled.snapshot()) == seq_snapshot


class TestRunSpecs:
    def test_contexts_map_reused_and_populated(self):
        contexts = {}
        specs = [PointSpec.create(SETUP, 0.5, 0.5, {})]
        first = run_specs(specs, contexts=contexts)
        assert SETUP in contexts  # lazily built and handed back
        again = run_specs(specs, contexts=contexts)
        assert again == first
        assert contexts[SETUP].cached_points >= 1


class TestObsMerge:
    def test_counter_merge_sums(self):
        a = {"counters": {"layer.comp.x": 2.0}, "gauges": {}}
        b = {"counters": {"layer.comp.x": 3.0, "layer.comp.y": 1.0}, "gauges": {}}
        merged = merge_obs(merge_obs(empty_obs(), a), b)["counters"]
        assert merged == {"layer.comp.x": 5.0, "layer.comp.y": 1.0}

    def test_merge_is_associative(self):
        a = {"counters": {"layer.comp.x": 1}, "gauges": {}}
        b = {"counters": {"layer.comp.x": 2}, "gauges": {}}
        c = {"counters": {"layer.comp.x": 4, "layer.comp.y": 8}, "gauges": {}}
        left = merge_obs(merge_obs(merge_obs(empty_obs(), a), b), c)
        right = merge_obs(
            merge_obs(empty_obs(), a), merge_obs(merge_obs(empty_obs(), b), c)
        )
        assert left == right

    def test_gauges_keep_the_later_level(self):
        a = {"counters": {}, "gauges": {"layer.comp.q": 3.0, "layer.comp.r": 1.0}}
        b = {"counters": {}, "gauges": {"layer.comp.q": 5.0}}
        merged = merge_obs(merge_obs(empty_obs(), a), b)["gauges"]
        assert merged == {"layer.comp.q": 5.0, "layer.comp.r": 1.0}

    def test_merge_snapshot_round_trips_json(self):
        a = {"counters": {"layer.comp.x": 1.5}, "gauges": {"layer.comp.q": 2.0}}
        snapshot = json.loads(json.dumps(a))
        assert merge_obs(empty_obs(), snapshot) == a


class TestLazyReplication:
    def test_construction_builds_no_contexts(self):
        experiment = ReplicatedExperiment("sdsc", job_count=40, seeds=range(1, 21))
        assert experiment.replications == 20
        assert experiment.prepared_contexts == 0

    def test_sequential_run_builds_only_used_seeds(self):
        experiment = ReplicatedExperiment("sdsc", job_count=40, seeds=[1, 2, 3])
        experiment.run_point(0.5, 0.5)
        assert experiment.prepared_contexts == 3

    def test_parallel_replication_matches_sequential(self):
        sequential = ReplicatedExperiment("sdsc", job_count=40, seeds=[1, 2, 3])
        pooled = ReplicatedExperiment(
            "sdsc", job_count=40, seeds=[1, 2, 3], jobs=3
        )
        assert (
            pooled.run_point(0.7, 0.9)["qos"].values
            == sequential.run_point(0.7, 0.9)["qos"].values
        )
