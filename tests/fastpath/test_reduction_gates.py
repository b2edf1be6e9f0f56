"""The fast path's work gates, measured against the probe oracle.

On picky near-full-cluster dialogues the probe loop prices ~30
candidates per dialogue; the analytical bound prunes the hopeless ones
without touching the predictor.  The gates are count-based (probes and
predictor queries), so they are deterministic for the fixed seed and
immune to timer noise:

* at least 10x fewer probes and predictor queries per dialogue than the
  probe oracle, with bit-identical bookings (and the checking oracle
  agreeing on every offer price within 1e-9);
* on a small figures grid (SDSC, 50 jobs, a in {0, 0.5, 1}, U=0.9), at
  least 10x fewer predictor queries with bit-identical metrics.

The dialogues are the ``negotiation_fastpath`` fixture of
``benchmarks/perf/ledger_bench.py`` (smoke size: 32 nodes, 12 jobs),
which times them on the fast path alone; here the oracle is swapped in
for its evaluator.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import repro.core.system
from repro.experiments.config import ExperimentSetup
from repro.experiments.runner import ExperimentContext
from tests.fastpath.probe_oracle import PRICING

_BENCH = Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "ledger_bench.py"
_spec = importlib.util.spec_from_file_location("ledger_bench", _BENCH)
ledger_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger_bench)

SEED = 20050628


def counted_run(mode, monkeypatch):
    """The bench's picky dialogues at smoke size, priced by ``mode``:
    ``(bookings, counters)``."""
    monkeypatch.setattr(ledger_bench, "AnalyticalEvaluator", PRICING[mode])
    return ledger_bench.run_fastpath_dialogues(32, 12, SEED)


def run_fastpath_dialogues(mode, monkeypatch):
    return counted_run(mode, monkeypatch)[0]


class TestDialogueGates:
    def test_bookings_identical_to_both_oracles(self, monkeypatch):
        analytical = run_fastpath_dialogues("analytical", monkeypatch)
        assert analytical == run_fastpath_dialogues("probe", monkeypatch)
        # The checking oracle raises on any offer priced more than 1e-9
        # away from the analytical value.
        assert analytical == run_fastpath_dialogues("oracle", monkeypatch)

    def test_probes_and_predictor_queries_drop_tenfold(self, monkeypatch):
        probe_bookings, probe = counted_run("probe", monkeypatch)
        fast_bookings, fast = counted_run("analytical", monkeypatch)
        assert fast_bookings == probe_bookings
        assert fast["negotiation.dialogue.pruned"] > 0
        assert probe.get("negotiation.dialogue.pruned", 0) == 0
        probe_reduction = probe["negotiation.dialogue.probes"] / max(
            fast["negotiation.dialogue.probes"], 1
        )
        assert probe_reduction >= 10.0, (
            f"the fast path no longer kills the probe loop "
            f"({probe_reduction:.1f}x)"
        )
        query_reduction = probe["prediction.trace.queries"] / max(
            fast.get("prediction.trace.queries", 0), 1
        )
        assert query_reduction >= 10.0, (
            f"the fast path still hits the predictor ({query_reduction:.1f}x)"
        )


class TestFiguresGridGate:
    def test_grid_queries_drop_tenfold_with_identical_metrics(self, monkeypatch):
        setup = ExperimentSetup(workload="sdsc", job_count=50, seed=SEED)
        points = [(accuracy, 0.9) for accuracy in (0.0, 0.5, 1.0)]
        metrics = {}
        queries = {}
        for mode in ("probe", "analytical"):
            # The system builds its one shared evaluator by this name.
            monkeypatch.setattr(
                repro.core.system, "AnalyticalEvaluator", PRICING[mode]
            )
            context = ExperimentContext.prepare(setup)
            metrics[mode] = context.run_points(points)
            queries[mode] = context.obs["counters"]["prediction.trace.queries"]
        assert metrics["probe"] == metrics["analytical"]
        reduction = queries["probe"] / max(queries["analytical"], 1)
        assert reduction >= 10.0, f"figures-grid predictor queries: {queries}"
