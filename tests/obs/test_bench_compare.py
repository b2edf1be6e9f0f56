"""Regression-gate tests for ``probqos bench compare`` / ``bench trend``.

The acceptance scenario: against the committed smoke BENCH ledger, a
deterministic jittered "rerun" must pass the noise gate, while injecting
an artificial 2x slowdown into one scenario must flag exactly that
scenario.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.obs.bench import (
    DEFAULT_MIN_ABS_S,
    compare_ledgers,
    load_ledger,
    render_compare,
    render_trend,
    scenario_metrics,
    trend_data,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
COMMITTED_LEDGER = REPO_ROOT / "benchmarks" / "perf" / "BENCH_ledger.json"


@pytest.fixture()
def baseline() -> dict:
    return load_ledger(str(COMMITTED_LEDGER))


def _jittered(doc: dict, factor: float) -> dict:
    """A synthetic rerun: every timing scaled by ``factor``, counts kept."""
    rerun = copy.deepcopy(doc)

    def scale(obj) -> None:
        if isinstance(obj, dict):
            for key, value in obj.items():
                if key == "median_s":
                    obj[key] = value * factor
                else:
                    scale(value)

    scale(rerun["scenarios"])
    return rerun


def _largest_time_metric(doc: dict):
    """``(scenario, path, value)`` of the globally slowest timing median."""
    best = None
    for name, scenario in doc["scenarios"].items():
        for path, (cls, value) in scenario_metrics(scenario).items():
            if cls == "time" and (best is None or value > best[2]):
                best = (name, path, value)
    assert best is not None
    return best


class TestAgainstCommittedLedger:
    def test_committed_ledger_loads_and_self_compares_ok(self, baseline):
        result = compare_ledgers(baseline, copy.deepcopy(baseline))
        assert result["verdict"] == "ok"
        assert result["regressions"] == []
        assert set(result["scenarios"]) == set(baseline["scenarios"])

    def test_jittered_rerun_passes_the_noise_gate(self, baseline):
        result = compare_ledgers(baseline, _jittered(baseline, 1.1))
        assert result["verdict"] == "ok", result["regressions"]

    def test_injected_2x_slowdown_flags_exactly_that_scenario(self, baseline):
        scenario, path, value = _largest_time_metric(baseline)
        # The acceptance injection must clear the absolute noise floor.
        assert value > DEFAULT_MIN_ABS_S
        perturbed = _jittered(baseline, 1.1)
        target = perturbed["scenarios"][scenario]
        node = target
        *parents, leaf = path.split(".")
        for key in parents:
            node = node[key]
        node[leaf] = value * 2.0

        result = compare_ledgers(baseline, perturbed)
        assert result["verdict"] == "regressed"
        flagged = {(r["scenario"], r["metric"]) for r in result["regressions"]}
        assert flagged == {(scenario, path)}
        for name, data in result["scenarios"].items():
            if name == scenario:
                assert data["verdict"] == "regressed"
            else:
                assert data["verdict"] in ("ok", "improved")
        rendered = render_compare(result)
        assert "REGRESSED" in rendered
        assert scenario in rendered

    def test_counts_only_ignores_wall_time_entirely(self, baseline):
        slowed = _jittered(baseline, 10.0)
        assert compare_ledgers(baseline, slowed)["verdict"] == "regressed"
        result = compare_ledgers(baseline, slowed, counts_only=True)
        assert result["verdict"] == "ok"
        gated = {
            m["class"]
            for s in result["scenarios"].values()
            for m in s["metrics"].values()
        }
        assert gated <= {"count"}

    def test_count_growth_regresses_even_counts_only(self, baseline):
        perturbed = copy.deepcopy(baseline)
        for scenario in perturbed["scenarios"].values():
            obs = scenario.get("obs")
            if obs:
                key = sorted(obs)[0]
                obs[key] = obs[key] * 2.0 + 1000.0
                break
        result = compare_ledgers(baseline, perturbed, counts_only=True)
        assert result["verdict"] == "regressed"

    def test_lost_counter_regresses_counts_only(self, baseline):
        """A baseline ``obs.`` counter missing from the new ledger is a
        regression under --counts-only, not a silent skip."""
        lost = copy.deepcopy(baseline)
        name = next(n for n, s in lost["scenarios"].items() if s.get("obs"))
        key = sorted(lost["scenarios"][name]["obs"])[0]
        del lost["scenarios"][name]["obs"][key]
        result = compare_ledgers(baseline, lost, counts_only=True)
        assert result["verdict"] == "regressed"
        assert [(e["scenario"], e["metric"], e["new"]) for e in result["regressions"]] == [
            (name, f"obs.{key}", None)
        ]
        assert f"obs.{key}: " in render_compare(result)
        assert "missing" in render_compare(result)
        # A counter only the new ledger reports is still informational.
        assert compare_ledgers(lost, baseline, counts_only=True)["verdict"] == "ok"


class TestComparisonSemantics:
    def _doc(self, median=0.2, count=1000.0, schema=5, **params) -> dict:
        return {
            "schema": schema,
            "scenarios": {
                "s": {
                    "params": dict(params),
                    "timing": {"median_s": median, "samples_s": [median]},
                    "obs": {"layer.comp.calls": count},
                }
            },
        }

    def test_small_absolute_slowdowns_never_regress(self):
        # 10x slower but only 18ms absolute: under the min-abs floor.
        result = compare_ledgers(self._doc(0.002), self._doc(0.020))
        assert result["verdict"] == "ok"

    def test_large_slowdowns_past_both_gates_regress(self):
        result = compare_ledgers(self._doc(0.2), self._doc(0.5))
        assert result["verdict"] == "regressed"

    def test_speedups_are_reported_as_improved(self):
        result = compare_ledgers(self._doc(0.5), self._doc(0.2))
        assert result["verdict"] == "ok"
        assert result["scenarios"]["s"]["verdict"] == "improved"
        assert len(result["improvements"]) == 1

    def test_param_mismatch_is_incomparable_not_regressed(self):
        result = compare_ledgers(
            self._doc(0.2, n=10), self._doc(0.9, n=20)
        )
        assert result["scenarios"]["s"]["verdict"] == "incomparable"
        assert result["scenarios"]["s"]["params_diff"] == {"n": [10, 20]}
        assert result["verdict"] == "ok"

    def test_volatile_params_do_not_break_comparability(self):
        result = compare_ledgers(
            self._doc(0.2, cpu_count=4), self._doc(0.21, cpu_count=64)
        )
        assert result["scenarios"]["s"]["verdict"] == "ok"

    def test_added_and_removed_scenarios_are_informational(self):
        old = self._doc()
        new = copy.deepcopy(old)
        new["scenarios"]["extra"] = new["scenarios"].pop("s")
        result = compare_ledgers(old, new)
        assert result["scenarios"]["s"]["verdict"] == "removed"
        assert result["scenarios"]["extra"]["verdict"] == "added"
        assert result["verdict"] == "ok"

    def test_schema_mismatch_refuses_to_compare(self):
        with pytest.raises(ValueError):
            compare_ledgers(self._doc(schema=4), self._doc(schema=5))

    def test_result_is_json_serialisable(self):
        result = compare_ledgers(self._doc(0.2), self._doc(0.5))
        assert json.loads(json.dumps(result))["verdict"] == "regressed"

    def test_load_ledger_rejects_non_ledgers(self, tmp_path):
        path = tmp_path / "not_a_ledger.json"
        path.write_text(json.dumps({"foo": 1}))
        with pytest.raises(ValueError):
            load_ledger(str(path))


class TestTrend:
    def test_trend_tracks_metrics_across_ledgers(self):
        docs = []
        for median in (0.2, 0.3, 0.4):
            docs.append((
                f"v{len(docs)}",
                {
                    "schema": 5,
                    "scenarios": {
                        "s": {
                            "params": {},
                            "timing": {"median_s": median},
                            "obs": {"layer.comp.calls": 10.0},
                        }
                    },
                },
            ))
        data = trend_data(docs)
        assert data["s::timing.median_s"]["values"] == [0.2, 0.3, 0.4]
        text = render_trend(docs)
        assert "s::timing.median_s" in text
        assert "+100.0%" in text

    def test_trend_over_the_committed_ledger(self):
        doc = load_ledger(str(COMMITTED_LEDGER))
        text = render_trend([("old", doc), ("new", doc)])
        assert "figures_grid" in text
        assert "(+0.0%)" in text
        # Zero-valued counters that stay zero are flat, not "+inf%".
        assert "inf" not in text
