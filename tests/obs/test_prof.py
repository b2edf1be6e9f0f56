"""Unit and determinism tests for the hierarchical profiler."""

from __future__ import annotations

import json
import time

import pytest

from repro.core.system import SystemConfig, simulate
from repro.experiments.config import ExperimentSetup
from repro.experiments.runner import ExperimentContext
from repro.obs.prof import (
    DEFAULT_BUCKET_WIDTH,
    NULL_PROFILER,
    PROF_SCHEMA_VERSION,
    NullProfiler,
    Profiler,
    Zone,
    aggregate_self,
    load_profile,
    profiled,
    render_report,
    strip_wall_ns,
    to_collapsed,
    total_ns,
    validate_collapsed,
    walk_zones,
    write_profile,
)


class TestZoneTree:
    def test_nesting_builds_one_node_per_stack_position(self):
        prof = Profiler()
        outer = prof.zone("a.b.outer")
        inner = prof.zone("a.b.inner")
        with outer:
            with inner:
                pass
            with inner:
                pass
        with inner:
            pass
        root = prof.snapshot()["root"]
        assert set(root["children"]) == {"a.b.outer", "a.b.inner"}
        assert root["children"]["a.b.outer"]["calls"] == 1
        assert root["children"]["a.b.outer"]["children"]["a.b.inner"]["calls"] == 2
        assert root["children"]["a.b.inner"]["calls"] == 1
        # Same zone at two stack positions: aggregate_self folds them.
        assert aggregate_self(prof.snapshot())["a.b.inner"][0] == 3

    def test_self_time_excludes_children_and_cum_includes_them(self):
        prof = Profiler()
        with prof.zone("a.b.outer"):
            with prof.zone("a.b.inner"):
                time.sleep(0.002)
        root = prof.snapshot()["root"]
        outer = root["children"]["a.b.outer"]
        inner = outer["children"]["a.b.inner"]
        assert inner["cum_ns"] >= 2_000_000
        assert outer["cum_ns"] >= inner["cum_ns"]
        assert outer["self_ns"] == outer["cum_ns"] - inner["cum_ns"]
        assert total_ns(prof.snapshot()) == outer["cum_ns"]

    def test_zone_names_are_validated_at_binding_time(self):
        prof = Profiler()
        for bad in ("", "two.segments", "Upper.case.name", "a.b.c-d", "a b.c.d"):
            with pytest.raises(ValueError):
                prof.zone(bad)
        assert isinstance(prof.zone("layer.component.name"), Zone)

    def test_depth_tracks_open_zones(self):
        prof = Profiler()
        assert prof.depth == 0
        with prof.zone("a.b.c"):
            assert prof.depth == 1
            with prof.zone("a.b.d"):
                assert prof.depth == 2
        assert prof.depth == 0

    def test_walk_zones_yields_every_stack(self):
        prof = Profiler()
        with prof.zone("a.b.outer"):
            with prof.zone("a.b.inner"):
                pass
        stacks = [stack for stack, _ in walk_zones(prof.snapshot())]
        assert stacks == [("a.b.outer",), ("a.b.outer", "a.b.inner")]


class TestSimTimeBuckets:
    def test_wall_cost_lands_in_the_entry_bucket(self):
        prof = Profiler(bucket_width=100.0)
        prof.set_sim_time(50.0)
        with prof.zone("a.b.first"):
            pass
        prof.set_sim_time(250.0)
        with prof.zone("a.b.second"):
            pass
        buckets = prof.snapshot()["buckets"]
        assert set(buckets) == {"0", "2"}
        assert buckets["0"]["a.b.first"]["calls"] == 1
        assert buckets["2"]["a.b.second"]["calls"] == 1

    def test_bucket_boundary_is_half_open(self):
        prof = Profiler(bucket_width=100.0)
        prof.set_sim_time(100.0)  # exactly one width: bucket 1, not 0
        with prof.zone("a.b.z"):
            pass
        assert set(prof.snapshot()["buckets"]) == {"1"}

    def test_bucket_width_must_be_positive(self):
        with pytest.raises(ValueError):
            Profiler(bucket_width=0.0)
        assert Profiler().bucket_width == DEFAULT_BUCKET_WIDTH


class TestMergeAndSerialisation:
    def _profile(self, calls: int) -> Profiler:
        prof = Profiler()
        for _ in range(calls):
            with prof.zone("a.b.outer"):
                with prof.zone("a.b.inner"):
                    pass
        return prof

    def test_merge_snapshot_adds_counts_and_ns_exactly(self):
        one, two = self._profile(2), self._profile(3)
        expected_ns = total_ns(one.snapshot()) + total_ns(two.snapshot())
        one.merge_snapshot(two.snapshot())
        merged = one.snapshot()
        assert merged["root"]["children"]["a.b.outer"]["calls"] == 5
        assert total_ns(merged) == expected_ns  # integer-exact, no float fold

    def test_merge_is_associative_on_the_determinism_surface(self):
        parts = [self._profile(n).snapshot() for n in (1, 2, 3)]
        left = Profiler()
        for part in parts:
            left.merge_snapshot(part)
        right = Profiler()
        for part in reversed(parts):
            right.merge_snapshot(part)
        assert strip_wall_ns(left.snapshot()) == strip_wall_ns(right.snapshot())
        assert total_ns(left.snapshot()) == total_ns(right.snapshot())

    def test_merge_rejects_schema_and_bucket_mismatches(self):
        prof = Profiler(bucket_width=100.0)
        bad_schema = Profiler(bucket_width=100.0).snapshot()
        bad_schema["schema"] = PROF_SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            prof.merge_snapshot(bad_schema)
        with pytest.raises(ValueError):
            prof.merge_snapshot(Profiler(bucket_width=200.0).snapshot())

    def test_write_and_load_round_trip(self, tmp_path):
        prof = self._profile(2)
        path = str(tmp_path / "prof.json")
        written = write_profile(path, prof.snapshot(meta={"k": "v"}))
        loaded = load_profile(path)
        assert loaded == json.loads(json.dumps(written))
        assert loaded["meta"] == {"k": "v"}

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "prof.json"
        path.write_text(json.dumps({"schema": 999}))
        with pytest.raises(ValueError):
            load_profile(str(path))


class TestCollapsedExport:
    def test_collapsed_lines_follow_the_grammar(self):
        prof = Profiler()
        with prof.zone("a.b.outer"):
            with prof.zone("a.b.inner"):
                time.sleep(0.001)
        text = to_collapsed(prof.snapshot())
        assert validate_collapsed(text) == []
        lines = text.splitlines()
        assert any(line.startswith("a.b.outer;a.b.inner ") for line in lines)
        for line in lines:
            frames, weight = line.rsplit(" ", 1)
            assert int(weight) > 0
            assert all(frames.split(";"))

    def test_validate_collapsed_flags_bad_documents(self):
        assert validate_collapsed("a;b 10") == []
        assert validate_collapsed("justoneword") != []
        assert validate_collapsed("a;b zero") != []
        assert validate_collapsed("a;b 0") != []
        assert validate_collapsed(";empty 5") != []


class TestProfiledDecorator:
    def test_decorator_profiles_through_the_instance_attribute(self):
        class Worker:
            def __init__(self, profiler):
                self._profiler = profiler

            @profiled("layer.worker.step")
            def step(self):
                return 42

        prof = Profiler()
        assert Worker(prof).step() == 42
        assert Worker(NULL_PROFILER).step() == 42
        assert Worker(None).step() == 42
        snapshot = prof.snapshot()
        assert snapshot["root"]["children"]["layer.worker.step"]["calls"] == 1

    def test_decorator_validates_the_name_at_definition_time(self):
        with pytest.raises(ValueError):
            profiled("bad name")


class TestNullProfiler:
    def test_records_nothing_and_shares_one_zone(self):
        null = NullProfiler()
        assert null.enabled is False
        with null.zone("a.b.c"):
            with null.zone("d.e.f"):
                pass
        assert null.zone("a.b.c") is null.zone("x.y.z")
        assert null.snapshot()["root"]["children"] == {}
        assert NULL_PROFILER.enabled is False

    def test_merge_into_a_null_profiler_is_inert(self):
        live = Profiler()
        with live.zone("a.b.c"):
            pass
        null = NullProfiler()
        null.merge_snapshot(live.snapshot())
        assert null.snapshot()["root"]["children"] == {}


def _tiny_config(**overrides) -> SystemConfig:
    parameters = dict(node_count=16, accuracy=0.5, user_threshold=0.5, seed=11)
    parameters.update(overrides)
    return SystemConfig(**parameters)


def _nasa_context(job_count: int = 40) -> ExperimentContext:
    setup = ExperimentSetup(workload="nasa", job_count=job_count, seed=11)
    return ExperimentContext.prepare(setup)


class TestEndToEndDeterminism:
    def _snapshot(self, ctx: ExperimentContext) -> dict:
        prof = Profiler()
        simulate(
            ctx.config(0.5, 0.5),
            ctx.log,
            ctx.failures,
            profiler=prof,
        )
        return prof.snapshot()

    def test_zone_tree_is_bit_identical_across_reruns(self):
        ctx = _nasa_context()
        first = self._snapshot(ctx)
        second = self._snapshot(ctx)
        assert strip_wall_ns(first) == strip_wall_ns(second)

    def test_profiling_does_not_change_simulation_results(self):
        ctx = _nasa_context()
        bare = simulate(ctx.config(0.5, 0.5), ctx.log, ctx.failures)
        prof = Profiler()
        profiled_run = simulate(
            ctx.config(0.5, 0.5), ctx.log, ctx.failures, profiler=prof
        )
        assert bare.metrics == profiled_run.metrics
        assert bare.prof is None
        assert profiled_run.prof is not None

    def test_nasa_profile_names_the_hot_paths(self):
        """Acceptance: top self-time zones include event dispatch and the
        reservation ledger family."""
        ctx = _nasa_context(job_count=80)
        snapshot = self._snapshot(ctx)
        totals = aggregate_self(snapshot)
        ranked = sorted(totals, key=lambda n: -totals[n][1])
        top = ranked[:8]
        assert any(name.startswith("sim.engine.dispatch.") for name in top)
        assert any(name.startswith("cluster.ledger.") for name in top)
        assert validate_collapsed(to_collapsed(snapshot)) == []
        report = render_report(snapshot)
        assert "sim.engine.dispatch.arrival" in report
        assert "Sim-time buckets" in report

    @pytest.mark.parametrize(
        "profiler", [None, NullProfiler()], ids=["default", "null-profiler"]
    )
    def test_null_path_never_touches_a_zone(self, monkeypatch, profiler):
        """Structural zero-cost guarantee: with no profiler attached, or an
        explicit NullProfiler, no zone is ever entered (the one-bool
        guards skip them entirely) — both are the identical guarded fast
        path."""
        def boom(self):
            raise AssertionError(f"zone {self.name} entered on the null path")

        monkeypatch.setattr(Zone, "__enter__", boom)
        ctx = _nasa_context(job_count=10)
        result = simulate(
            ctx.config(0.5, 0.5), ctx.log, ctx.failures, profiler=profiler
        )
        assert result.metrics.job_count == 10
        assert result.prof is None
