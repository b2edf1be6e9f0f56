"""Unit and determinism tests for the hierarchical profiler."""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import re
import time

import pytest

from repro.core.system import simulate
from repro.core.users import UserModel
from repro.experiments.config import ExperimentSetup
from repro.experiments.runner import ExperimentContext, estimate_horizon
from repro.failures.generator import FailureModelSpec, generate_failure_trace
from repro.obs import prof as prof_module
from repro.obs.prof import (
    DEFAULT_BUCKET_WIDTH,
    PROF_SCHEMA_VERSION,
    ZONE_POINTS,
    Profiler,
    aggregate_self,
    attached,
    load_profile,
    render_report,
    strip_wall_ns,
    to_collapsed,
    total_ns,
    validate_collapsed,
    walk_zones,
    write_profile,
)
from repro.workload.synthetic import log_by_name


@contextlib.contextmanager
def zone(prof: Profiler, name: str):
    """Open ``name`` on ``prof`` for the block (what a wrapper does)."""
    prof.push(name)
    try:
        yield
    finally:
        prof.pop()


def _table_functions():
    """``(class, method) -> what the class holds`` for every table point."""
    held = {}
    for _, module, class_name, method in ZONE_POINTS:
        cls = getattr(importlib.import_module(module), class_name)
        for target in prof_module._defining(cls, method):
            held[(target, method)] = vars(target)[method]
    return held


class TestZoneTree:
    def test_nesting_builds_one_node_per_stack_position(self):
        prof = Profiler()
        with zone(prof, "a.b.outer"):
            with zone(prof, "a.b.inner"):
                pass
            with zone(prof, "a.b.inner"):
                pass
        with zone(prof, "a.b.inner"):
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
        with zone(prof, "a.b.outer"):
            with zone(prof, "a.b.inner"):
                time.sleep(0.002)
        root = prof.snapshot()["root"]
        outer = root["children"]["a.b.outer"]
        inner = outer["children"]["a.b.inner"]
        assert inner["cum_ns"] >= 2_000_000
        assert outer["cum_ns"] >= inner["cum_ns"]
        assert outer["self_ns"] == outer["cum_ns"] - inner["cum_ns"]
        assert total_ns(prof.snapshot()) == outer["cum_ns"]

    def test_zone_names_are_validated_at_binding_time(self, monkeypatch):
        """The table follows the naming scheme, and attaching binds every
        point or none: a point whose method is gone raises."""
        scheme = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+){2,}$")
        assert all(scheme.match(point[0]) for point in ZONE_POINTS)
        before = _table_functions()
        monkeypatch.setattr(
            prof_module,
            "ZONE_POINTS",
            ZONE_POINTS
            + (("a.b.gone", "repro.sim.engine", "EventLoop", "no_such"),),
        )
        with pytest.raises(AttributeError, match="no_such"):
            with Profiler().attach():
                pass
        assert _table_functions() == before
        assert attached() is None

    def test_depth_tracks_open_zones(self):
        prof = Profiler()
        assert prof.depth == 0
        with zone(prof, "a.b.c"):
            assert prof.depth == 1
            with zone(prof, "a.b.d"):
                assert prof.depth == 2
        assert prof.depth == 0

    def test_walk_zones_yields_every_stack(self):
        prof = Profiler()
        with zone(prof, "a.b.outer"):
            with zone(prof, "a.b.inner"):
                pass
        stacks = [stack for stack, _ in walk_zones(prof.snapshot())]
        assert stacks == [("a.b.outer",), ("a.b.outer", "a.b.inner")]


class TestSimTimeBuckets:
    def test_wall_cost_lands_in_the_entry_bucket(self):
        prof = Profiler(bucket_width=100.0)
        prof.set_sim_time(50.0)
        with zone(prof, "a.b.first"):
            pass
        prof.set_sim_time(250.0)
        with zone(prof, "a.b.second"):
            pass
        buckets = prof.snapshot()["buckets"]
        assert set(buckets) == {"0", "2"}
        assert buckets["0"]["a.b.first"]["calls"] == 1
        assert buckets["2"]["a.b.second"]["calls"] == 1

    def test_bucket_boundary_is_half_open(self):
        prof = Profiler(bucket_width=100.0)
        prof.set_sim_time(100.0)  # exactly one width: bucket 1, not 0
        with zone(prof, "a.b.z"):
            pass
        assert set(prof.snapshot()["buckets"]) == {"1"}

    def test_bucket_width_must_be_positive(self):
        for width in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                Profiler(bucket_width=width)
        assert Profiler().bucket_width == DEFAULT_BUCKET_WIDTH


class TestMergeAndSerialisation:
    def _profile(self, calls: int) -> Profiler:
        prof = Profiler()
        for _ in range(calls):
            with zone(prof, "a.b.outer"):
                with zone(prof, "a.b.inner"):
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

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["root"]["children"]["a.b.outer"].pop("cum_ns"),
            lambda doc: doc["root"].update(calls="1"),
            lambda doc: doc["root"].update(children=[]),
            lambda doc: doc.pop("root"),
            lambda doc: doc.update(buckets=[]),
            lambda doc: doc["buckets"]["0"]["a.b.inner"].pop("self_ns"),
            lambda doc: doc.update(bucket_width="wide"),
        ],
        ids=[
            "node-without-cum_ns", "string-calls", "list-children", "no-root",
            "list-buckets", "bucket-without-self_ns", "string-width",
        ],
    )
    def test_load_rejects_a_non_profile_shape(self, tmp_path, edit):
        doc = self._profile(1).snapshot()
        edit(doc)
        path = tmp_path / "prof.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_profile(str(path))

    def test_load_rejects_a_non_object(self, tmp_path):
        path = tmp_path / "prof.json"
        path.write_text("[]")
        with pytest.raises(ValueError):
            load_profile(str(path))


class TestCollapsedExport:
    def test_collapsed_lines_follow_the_grammar(self):
        prof = Profiler()
        with zone(prof, "a.b.outer"):
            with zone(prof, "a.b.inner"):
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


def _nasa_context(job_count: int = 40) -> ExperimentContext:
    setup = ExperimentSetup(workload="nasa", job_count=job_count, seed=11)
    return ExperimentContext.prepare(setup)


def _run(ctx: ExperimentContext, **kwargs):
    return simulate(ctx.config(0.5, 0.5), ctx.log, ctx.failures, **kwargs)


class _RefusingUser(UserModel):
    """Fails the run from inside a negotiation dialogue."""

    def accepts(self, offer) -> bool:
        raise RuntimeError("user walked away")


class TestEndToEndDeterminism:
    def _snapshot(self, ctx: ExperimentContext) -> dict:
        with Profiler().attach() as prof:
            _run(ctx)
        return prof.snapshot()

    def test_zone_tree_is_bit_identical_across_reruns(self):
        ctx = _nasa_context()
        first = self._snapshot(ctx)
        second = self._snapshot(ctx)
        assert strip_wall_ns(first) == strip_wall_ns(second)

    def test_profiling_does_not_change_simulation_results(self):
        ctx = _nasa_context()
        bare = _run(ctx)
        with Profiler().attach() as prof:
            profiled_run = _run(ctx)
        assert bare.metrics == profiled_run.metrics
        assert prof.snapshot()["root"]["children"]

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
        "profiler", [None, Profiler()], ids=["default", "null-profiler"]
    )
    def test_null_path_never_touches_a_zone(self, profiler):
        """Structural zero-cost guarantee: with no profiler, or one that is
        never attached, the run executes the library's own functions —
        no wrapper is installed, so no zone can be entered."""
        originals = _table_functions()
        ctx = _nasa_context(job_count=10)
        result = _run(ctx)
        assert result.metrics.job_count == 10
        assert _table_functions() == originals
        assert attached() is None
        if profiler is not None:
            assert profiler.snapshot()["root"]["children"] == {}


class TestAttach:
    def test_table_methods_are_the_originals_outside_attach(self):
        originals = _table_functions()
        ctx = _nasa_context(job_count=10)
        with Profiler().attach() as prof:
            wrapped = _table_functions()
            assert all(
                wrapped[key] is not original
                for key, original in originals.items()
            )
            assert attached() is prof
            _run(ctx)
        assert _table_functions() == originals  # the same function objects
        with pytest.raises(RuntimeError, match="walked away"):
            with Profiler().attach() as failed:
                _run(ctx, user=_RefusingUser())
        assert failed.depth == 0  # every zone closed on the way out
        assert failed.snapshot()["root"]["children"]
        assert _table_functions() == originals
        assert attached() is None

    def test_inner_attach_takes_the_zones_until_it_detaches(self):
        originals = _table_functions()
        ctx = _nasa_context(job_count=10)
        with Profiler().attach() as outer:
            with Profiler().attach() as inner:
                _run(ctx)
            assert outer.snapshot()["root"]["children"] == {}
            # Still wrapped: the outer profiler is attached.
            assert _table_functions() != originals
            _run(ctx)
        assert _table_functions() == originals
        assert strip_wall_ns(outer.snapshot()) == strip_wall_ns(inner.snapshot())

    def test_every_table_point_is_entered_on_a_churning_run(self):
        """A small SDSC sweep point with failures enters every point but
        two: ``find_slot`` serves ledger-only callers, and the simulator
        queries the trace predictor through the evaluator.  The failure
        rate is the golden counters' 40 a day, so some checkpoint
        request's window sees a predicted failure and reaches
        ``decide``."""
        setup = ExperimentSetup(workload="sdsc", job_count=200, seed=3)
        log = log_by_name("sdsc", seed=3, job_count=200)
        failures = generate_failure_trace(
            estimate_horizon(log.scaled_sizes(setup.node_count), setup.node_count),
            spec=FailureModelSpec(nodes=setup.node_count, rate_per_day=40.0),
            seed=3,
        )
        ctx = ExperimentContext.prepare(setup, log=log, failures=failures)
        with Profiler().attach() as prof:
            ctx.run_point(0.5, 0.9)
        names = set(aggregate_self(prof.snapshot()))
        for zone_name, *_ in ZONE_POINTS:
            if zone_name in ("prediction.trace.query", "cluster.ledger.find_slot"):
                continue
            assert any(name.startswith(zone_name) for name in names), zone_name
