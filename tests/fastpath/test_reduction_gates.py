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

The dialogues are :func:`run_fastpath_dialogues` (32 nodes, 12 jobs),
priced by the evaluator class each gate passes in.
"""

from __future__ import annotations

import random

import repro.core.system
from repro.cluster.reservations import ReservationLedger
from repro.cluster.topology import FlatTopology
from repro.core.fastpath import AnalyticalEvaluator
from repro.core.negotiation import Negotiator
from repro.core.users import RiskThresholdUser
from repro.experiments.config import ExperimentSetup
from repro.experiments.runner import ExperimentContext
from repro.failures.generator import FailureModelSpec, generate_failure_trace
from repro.prediction.trace import TracePredictor
from repro.scheduling.placement import fault_aware_scorer
from tests.fastpath.probe_oracle import PRICING

SEED = 20050628


def run_fastpath_dialogues(nodes, jobs, seed, evaluator_cls=AnalyticalEvaluator):
    """``jobs`` picky, near-full-cluster dialogues priced by
    ``evaluator_cls``: ``(bookings, counters)``, the counters being the
    negotiator's, evaluator's and predictor's.

    Engineered so a per-candidate probe loop hurts: requests want (nearly)
    the whole cluster, the failure trace is dense enough that every long
    window is dirty, and at accuracy 1.0 a U=0.97 user only accepts once
    the first detectable failure in the window carries ``p_x <= 0.03``,
    so the probe loop prices ~30 candidates per dialogue while the
    analytical bound (exact at full cluster, near-exact one node short of
    it) prunes the hopeless ones without ever touching the predictor.
    """
    rng = random.Random(seed + 3)
    failures = generate_failure_trace(
        120.0 * 86400.0,
        spec=FailureModelSpec(nodes=nodes, rate_per_day=24.0),
        seed=seed,
    )
    predictor = TracePredictor(failures, accuracy=1.0, seed=seed)
    # Mirror the system wiring: the placement scorer reads the
    # evaluator's cached terms.
    evaluator = evaluator_cls(predictor, nodes)
    negotiator = Negotiator(
        ReservationLedger(nodes),
        FlatTopology(nodes),
        predictor,
        fault_aware_scorer(evaluator),
        evaluator=evaluator,
    )
    user = RiskThresholdUser(0.97)
    bookings = []
    clock = 0.0
    for job_id in range(20_000, 20_000 + jobs):
        size = rng.randint(max(1, nodes - 1), nodes)
        duration = rng.uniform(6.0 * 3600.0, 12.0 * 3600.0)
        outcome = negotiator.negotiate(job_id, size, duration, clock, user)
        bookings.append(
            (
                outcome.start,
                outcome.nodes,
                outcome.reserved_end,
                outcome.guarantee.probability,
                outcome.forced,
            )
        )
        clock += rng.uniform(0.0, 600.0)
    counters = {
        **negotiator.counters(), **evaluator.counters(), **predictor.counters()
    }
    return bookings, counters


def counted_run(mode):
    """The picky dialogues priced by ``mode``: ``(bookings, counters)``."""
    return run_fastpath_dialogues(32, 12, SEED, PRICING[mode])


class TestDialogueGates:
    def test_bookings_identical_to_both_oracles(self):
        analytical = counted_run("analytical")[0]
        assert analytical == counted_run("probe")[0]
        # The checking oracle raises on any offer priced more than 1e-9
        # away from the analytical value.
        assert analytical == counted_run("oracle")[0]

    def test_probes_and_predictor_queries_drop_tenfold(self):
        probe_bookings, probe = counted_run("probe")
        fast_bookings, fast = counted_run("analytical")
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
