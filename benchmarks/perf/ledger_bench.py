"""Ledger hot-path microbenchmarks (the ``BENCH_ledger.json`` harness).

Four scenarios bracket the hot paths from unit scale to the full
evaluation pipeline:

* ``find_slot_deep_queue`` — a deep conservative-backfilling queue (many
  live bookings) probed with a batch of ``find_slot`` queries, with zero
  mutations between probes; this isolates the query cost (the seed ledger
  rebuilds its profile and scans every node per probe), and is the
  scenario the ≥3× acceptance gate applies to.
* ``negotiation_dialogue`` — full submission dialogues (offer enumeration,
  capacity prefilter, free-set verification, booking) against a picky
  user, so queries and mutations interleave the way the simulator drives
  them.
* ``nasa_end_to_end`` — an end-to-end NASA-trace simulation point, the
  outermost number a future perf PR should watch.
* ``figures_grid`` — a figure-sized ``(a, U)`` sweep grid executed three
  ways: sequentially (``jobs=1``, the pre-parallel behaviour), through
  the process pool with a cold on-disk point cache (``--jobs 4``), and
  again against the warm cache; asserts all three produce bit-identical
  metrics and reports both speedups plus cache hit statistics.  The
  parallel speedup is hardware-bound (``params.cpu_count`` records what
  was available); the warm-cache speedup is not.
* ``negotiation_fastpath`` — picky near-full-cluster dialogues on the
  analytical fast path: wall time, probes and predictor queries per
  dialogue, and pruned candidates.  The ≥10× probe/query reduction gates
  against the probe loop live in tier-1
  (``tests/fastpath/test_reduction_gates.py``), where the probe loop is
  kept as the reference oracle.
* ``scale`` — streamed big-cluster replays (1k/10k/100k nodes) through
  ``benchmarks/perf/scale_bench.py``, one subprocess per configuration so
  peak RSS is attributable.  Records events/sec per (node count, ledger
  implementation), asserts trajectory-checksum identity across the
  configurations at each node count, reports the current-vs-seed
  throughput ratio the ≥10× acceptance gate applies to, and carries the
  ``reserve`` list-vs-NodeSet normalisation micro-bench.

The first three scenarios run on the optimised
:class:`~repro.cluster.reservations.ReservationLedger` *and* on the frozen
:class:`seed_ledger.SeedReservationLedger`, asserting along
the way that both return identical answers; timings are reported as the
median over ``--repeats`` runs.  Results go to ``BENCH_ledger.json`` so
the perf trajectory is diffable across PRs:

    PYTHONPATH=src python benchmarks/perf/run.py            # default scale
    PYTHONPATH=src python benchmarks/perf/run.py --smoke    # seconds, CI
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import repro
import repro.cluster.machine as machine_module
from repro.cluster.nodeset import NodeSet
from repro.cluster.reservations import ReservationLedger
from repro.cluster.topology import FlatTopology
from repro.core.fastpath import AnalyticalEvaluator
from repro.core.negotiation import Negotiator
from repro.core.system import simulate
from repro.core.users import RiskThresholdUser
from repro.experiments.cache import PointCache
from repro.experiments.config import ExperimentSetup
from repro.experiments.runner import ExperimentContext
from repro.prediction.trace import TracePredictor
from repro.scheduling.placement import fault_aware_scorer
from repro.failures.generator import FailureModelSpec, generate_failure_trace

# Loaded by path: tier-1 tests exec this file by path too, with this
# directory off ``sys.path``.
_seed_spec = importlib.util.spec_from_file_location(
    "seed_ledger", Path(__file__).resolve().parent / "seed_ledger.py"
)
_seed_ledger = importlib.util.module_from_spec(_seed_spec)
_seed_spec.loader.exec_module(_seed_ledger)
SeedReservationLedger = _seed_ledger.SeedReservationLedger

#: Presets trade fidelity for wall clock; ``smoke`` exists so the tier-1
#: suite can exercise the harness end-to-end in a couple of seconds.
#: ``grid_jobs``/``grid_accuracies``/``grid_users``/``pool_jobs`` shape the
#: ``figures_grid`` scenario (log size, sweep axes, worker processes).
PRESETS: Dict[str, Dict] = {
    "default": dict(
        nodes=128, bookings=400, queries=150, dialogue_jobs=60, nasa_jobs=250,
        grid_jobs=150, grid_accuracies=11, grid_users=(0.1, 0.9), pool_jobs=4,
        fastpath_jobs=40,
        scale_node_counts=(1_000, 10_000, 100_000),
        scale_seed_node_counts=(1_000, 10_000),
        scale_jobs=2_000, scale_reserve_ops=2_000,
    ),
    "smoke": dict(
        nodes=32, bookings=40, queries=15, dialogue_jobs=8, nasa_jobs=0,
        grid_jobs=50, grid_accuracies=3, grid_users=(0.9,), pool_jobs=2,
        fastpath_jobs=12,
        scale_node_counts=(1_000,),
        scale_seed_node_counts=(1_000,),
        scale_jobs=200, scale_reserve_ops=200,
    ),
}

#: Schema 2 added the per-scenario ``obs`` block: counter totals from one
#: counted (non-timed) rerun, so a perf diff can tell *why* a number
#: moved — probe counts, cache hit rates, dialogue depths — not just that
#: it did.  Timed runs stay uninstrumented.  Schema 3 added the
#: ``figures_grid`` scenario (sequential vs process-pool vs warm-cache
#: sweep execution, with ``speedup_parallel``/``speedup_warm`` instead of
#: the current-vs-seed ``speedup``).  Schema 4 added the
#: ``negotiation_fastpath`` scenario (probes/queries per dialogue on the
#: fast path; the probe- and oracle-mode runs it first carried left with
#: those modes, without a schema change since no kept key moved).
#: Schema 5 added the ``scale`` scenario: big-cluster streaming replays in
#: per-config subprocesses (events/sec, isolated peak RSS, trajectory
#: checksums across ledger implementations) plus the ``reserve``
#: normalisation micro-benchmark (list vs NodeSet input).
SCHEMA_VERSION = 5


# ----------------------------------------------------------------------
# Scenario construction (deterministic: everything flows from `seed`)
# ----------------------------------------------------------------------
def build_deep_ledger(ledger_cls, nodes: int, bookings: int, seed: int):
    """A realistic deep queue: jobs packed by find_slot itself."""
    rng = random.Random(seed)
    ledger = ledger_cls(nodes)
    clock = 0.0
    for job_id in range(1, bookings + 1):
        size = rng.randint(1, max(1, nodes // 2))
        duration = rng.uniform(600.0, 6.0 * 3600.0)
        start, chosen = ledger.find_slot(size, duration, clock)
        ledger.reserve(job_id, chosen, start, start + duration)
        clock += rng.uniform(0.0, 120.0)
    return ledger


def make_queries(
    nodes: int, queries: int, horizon: float, seed: int
) -> List[Tuple[int, float, float]]:
    rng = random.Random(seed + 1)
    return [
        (
            rng.randint(1, max(1, nodes // 2)),
            rng.uniform(600.0, 6.0 * 3600.0),
            rng.uniform(0.0, horizon),
        )
        for _ in range(queries)
    ]


def _ledger_horizon(ledger) -> float:
    ends = [r.end for r in ledger.reservations()]
    return max(ends) if ends else 0.0


def run_find_slot_queries(ledger, queries) -> List[Tuple[float, List[int]]]:
    return [ledger.find_slot(size, dur, t0) for size, dur, t0 in queries]


def run_dialogues(
    ledger, nodes: int, jobs: int, seed: int
) -> Tuple[List[Tuple], Dict[str, float]]:
    """Negotiate and book `jobs` submissions back to back; returns the
    outcomes and the negotiator's (and its evaluator's) counters."""
    rng = random.Random(seed + 2)
    horizon = 60.0 * 86400.0
    failures = generate_failure_trace(
        horizon, spec=FailureModelSpec(nodes=nodes), seed=seed
    )
    predictor = TracePredictor(failures, accuracy=0.7, seed=seed)
    user = RiskThresholdUser(0.9)
    negotiator = Negotiator(ledger, FlatTopology(nodes), predictor, scorer=None)
    outcomes = []
    clock = 0.0
    for job_id in range(10_000, 10_000 + jobs):
        size = rng.randint(1, max(1, nodes // 2))
        duration = rng.uniform(1800.0, 8.0 * 3600.0)
        outcome = negotiator.negotiate(job_id, size, duration, clock, user)
        outcomes.append(
            (outcome.start, outcome.nodes, outcome.reserved_end, outcome.offers_made)
        )
        clock += rng.uniform(0.0, 60.0)
    return outcomes, {**negotiator.counters(), **negotiator.evaluator.counters()}


def run_nasa_point(jobs: int, seed: int):
    """One end-to-end (a=0.7, U=0.5) NASA simulation point."""
    setup = ExperimentSetup(workload="nasa", job_count=jobs, seed=seed)
    context = ExperimentContext.prepare(setup)
    config = context.config(accuracy=0.7, user_threshold=0.5)
    return simulate(config, context.log, context.failures)


# ----------------------------------------------------------------------
# Timing machinery
# ----------------------------------------------------------------------
def _timed(fn: Callable[[], object], repeats: int) -> Tuple[List[float], object]:
    """Wall-clock samples for ``repeats`` runs plus the last result."""
    samples = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - t0)
    return samples, result


def _timed_pair(
    current: Callable[[], object], seed: Callable[[], object], repeats: int
) -> Tuple[List[float], object, List[float], object]:
    """:func:`_timed` for a current/seed pair, alternating the two on each
    repeat so drift in host speed lands on both sides alike."""
    cur_samples: List[float] = []
    seed_samples: List[float] = []
    cur_result = seed_result = None
    for _ in range(repeats):
        cur, cur_result = _timed(current, 1)
        base, seed_result = _timed(seed, 1)
        cur_samples += cur
        seed_samples += base
    return cur_samples, cur_result, seed_samples, seed_result


def _entry(samples: List[float]) -> Dict[str, object]:
    return {
        "median_s": statistics.median(samples),
        "samples_s": [round(s, 6) for s in samples],
    }


def bench_find_slot(params: Dict[str, int], seed: int, repeats: int) -> Dict:
    nodes, bookings, queries = params["nodes"], params["bookings"], params["queries"]
    current = build_deep_ledger(ReservationLedger, nodes, bookings, seed)
    baseline = build_deep_ledger(SeedReservationLedger, nodes, bookings, seed)
    if current.reservations() != baseline.reservations():
        raise AssertionError("optimised ledger packed the queue differently")
    batch = make_queries(nodes, queries, _ledger_horizon(current), seed)

    cur_samples, cur_answers, seed_samples, seed_answers = _timed_pair(
        lambda: run_find_slot_queries(current, batch),
        lambda: run_find_slot_queries(baseline, batch),
        repeats,
    )
    if cur_answers != seed_answers:
        raise AssertionError("find_slot answers diverge from the seed ledger")

    # One counted rerun, outside the timing loop, for the obs block.
    counted = build_deep_ledger(ReservationLedger, nodes, bookings, seed)
    run_find_slot_queries(counted, batch)

    cur_med, seed_med = statistics.median(cur_samples), statistics.median(seed_samples)
    return {
        "description": "batch of find_slot probes against a deep static queue",
        "params": {**params, "seed": seed},
        "current": _entry(cur_samples),
        "seed": _entry(seed_samples),
        "speedup": seed_med / cur_med if cur_med > 0 else float("inf"),
        "answers_identical": True,
        "obs": counted.counters(),
    }


def bench_negotiation(params: Dict[str, int], seed: int, repeats: int) -> Dict:
    nodes, jobs = params["nodes"], params["dialogue_jobs"]
    bookings = params["bookings"] // 2

    def current_run():
        ledger = build_deep_ledger(ReservationLedger, nodes, bookings, seed)
        return run_dialogues(ledger, nodes, jobs, seed)[0]

    def seed_run():
        ledger = build_deep_ledger(SeedReservationLedger, nodes, bookings, seed)
        return run_dialogues(ledger, nodes, jobs, seed)[0]

    cur_samples, cur_out, seed_samples, seed_out = _timed_pair(
        current_run, seed_run, repeats
    )
    if cur_out != seed_out:
        raise AssertionError("negotiation outcomes diverge from the seed ledger")

    counted = build_deep_ledger(ReservationLedger, nodes, bookings, seed)
    _, dialogue_counters = run_dialogues(counted, nodes, jobs, seed)

    cur_med, seed_med = statistics.median(cur_samples), statistics.median(seed_samples)
    return {
        "description": "full submission dialogues (offers + bookings) vs a picky user",
        "params": {"nodes": nodes, "warm_bookings": bookings, "jobs": jobs, "seed": seed},
        "current": _entry(cur_samples),
        "seed": _entry(seed_samples),
        "speedup": seed_med / cur_med if cur_med > 0 else float("inf"),
        "answers_identical": True,
        "obs": {**counted.counters(), **dialogue_counters},
    }


def bench_nasa(params: Dict[str, int], seed: int, repeats: int) -> Optional[Dict]:
    jobs = params["nasa_jobs"]
    if jobs <= 0:
        return None

    cur_samples, cur_result = _timed(lambda: run_nasa_point(jobs, seed), repeats)

    # Re-run the identical point on the seed ledger by swapping the class
    # the Cluster instantiates; everything downstream is duck-typed.
    original = machine_module.ReservationLedger
    machine_module.ReservationLedger = SeedReservationLedger
    try:
        seed_samples, seed_result = _timed(lambda: run_nasa_point(jobs, seed), repeats)
    finally:
        machine_module.ReservationLedger = original

    if cur_result.metrics != seed_result.metrics:
        raise AssertionError("end-to-end metrics diverge from the seed ledger")

    cur_med, seed_med = statistics.median(cur_samples), statistics.median(seed_samples)
    return {
        "description": "end-to-end NASA replication point (a=0.7, U=0.5)",
        "params": {"jobs": jobs, "seed": seed},
        "current": _entry(cur_samples),
        "seed": _entry(seed_samples),
        "speedup": seed_med / cur_med if cur_med > 0 else float("inf"),
        "metrics_identical": True,
        "obs": cur_result.obs["counters"],
    }


def bench_figures_grid(params: Dict, seed: int, repeats: int) -> Optional[Dict]:
    """A figure-sized sweep grid: sequential vs pooled vs warm cache.

    All three execution modes must produce bit-identical metrics; the
    scenario exists to track (a) how much the process pool buys on the
    machine at hand and (b) that a warm on-disk cache makes regeneration
    nearly free regardless of hardware.
    """
    grid_jobs = params.get("grid_jobs", 0)
    if grid_jobs <= 0:
        return None
    pool_jobs = params["pool_jobs"]
    accuracy_count = params["grid_accuracies"]
    accuracies = [
        round(k / (accuracy_count - 1), 6) for k in range(accuracy_count)
    ] if accuracy_count > 1 else [0.5]
    users = list(params["grid_users"])
    points = [(a, u) for u in users for a in accuracies]
    setup = ExperimentSetup(workload="sdsc", job_count=grid_jobs, seed=seed)

    def sequential():
        return ExperimentContext.prepare(setup).run_points(points)

    seq_samples, seq_answers = _timed(sequential, repeats)

    scratch = tempfile.mkdtemp(prefix="probqos-bench-cache-")
    try:
        cold_dirs = iter(
            os.path.join(scratch, f"cold-{i}") for i in range(repeats + 1)
        )

        def parallel_cold():
            context = ExperimentContext.prepare(
                setup, jobs=pool_jobs, cache=PointCache(next(cold_dirs))
            )
            return context.run_points(points)

        par_samples, par_answers = _timed(parallel_cold, repeats)
        if par_answers != seq_answers:
            raise AssertionError("pooled grid metrics diverge from sequential")

        # Populate one cache (untimed), then time reruns against it with
        # fresh contexts so only the disk cache can satisfy the points.
        warm_dir = os.path.join(scratch, "warm")
        ExperimentContext.prepare(
            setup, jobs=pool_jobs, cache=PointCache(warm_dir)
        ).run_points(points)
        warm_cache = PointCache(warm_dir)

        def warm_rerun():
            context = ExperimentContext.prepare(
                setup, jobs=pool_jobs, cache=warm_cache
            )
            return context.run_points(points)

        warm_samples, warm_answers = _timed(warm_rerun, repeats)
        if warm_answers != seq_answers:
            raise AssertionError("warm-cache metrics diverge from sequential")
        cache_stats = dict(warm_cache.stats)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # One pooled rerun (uncached, untimed): exercises the per-worker obs
    # merge and yields the obs block.
    counted = ExperimentContext.prepare(setup, jobs=pool_jobs)
    counted.run_points(points)

    seq_med = statistics.median(seq_samples)
    par_med = statistics.median(par_samples)
    warm_med = statistics.median(warm_samples)
    return {
        "description": (
            "figure-sized (a, U) sweep grid: sequential vs process pool "
            "(cold cache) vs warm on-disk cache"
        ),
        "params": {
            "workload": "sdsc",
            "grid_jobs": grid_jobs,
            "points": len(points),
            "pool_jobs": pool_jobs,
            "seed": seed,
            "cpu_count": os.cpu_count(),
        },
        "sequential": _entry(seq_samples),
        "parallel": _entry(par_samples),
        "warm_cache": _entry(warm_samples),
        "speedup_parallel": seq_med / par_med if par_med > 0 else float("inf"),
        "speedup_warm": seq_med / warm_med if warm_med > 0 else float("inf"),
        "answers_identical": True,
        "cache": cache_stats,
        "obs": counted.obs["counters"],
    }


def run_fastpath_dialogues(
    nodes: int, jobs: int, seed: int
) -> Tuple[List[Tuple], Dict[str, float]]:
    """``jobs`` picky, near-full-cluster dialogues on the fast path; returns
    the bookings and the negotiator's, evaluator's and predictor's counters.

    Engineered so a per-candidate probe loop hurts: requests want (nearly)
    the whole cluster, the failure trace is dense enough that every long
    window is dirty, and at accuracy 1.0 a U=0.97 user only accepts once
    the first detectable failure in the window carries ``p_x ≤ 0.03`` —
    so the probe loop prices ~30 candidates per dialogue while the
    analytical bound (exact at full cluster, near-exact one node short of
    it) prunes the hopeless ones without ever touching the predictor.
    ``tests/fastpath/test_reduction_gates.py`` runs this fixture with the
    probe oracle patched in for this module's ``AnalyticalEvaluator``.
    """
    rng = random.Random(seed + 3)
    horizon = 120.0 * 86400.0
    failures = generate_failure_trace(
        horizon,
        spec=FailureModelSpec(nodes=nodes, rate_per_day=24.0),
        seed=seed,
    )
    predictor = TracePredictor(failures, accuracy=1.0, seed=seed)
    # Mirror the system wiring: the placement scorer reads the
    # evaluator's cached terms.
    evaluator = AnalyticalEvaluator(predictor, nodes)
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


def bench_negotiation_fastpath(params: Dict, seed: int, repeats: int) -> Dict:
    """Analytical negotiation on hard dialogues.

    The work numbers are count-based — probes, predictor queries and
    pruned candidates — so they are immune to timer noise and gated by
    ``bench compare --counts-only``; wall time is recorded alongside.
    """
    nodes, jobs = params["nodes"], params["fastpath_jobs"]
    samples, (_, obs) = _timed(
        lambda: run_fastpath_dialogues(nodes, jobs, seed), repeats
    )
    dialogues = obs["negotiation.dialogue.dialogues"]
    return {
        "description": "picky near-full-cluster dialogues on the analytical fast path",
        "params": {
            "nodes": nodes,
            "jobs": jobs,
            "rate_per_day": 24.0,
            "accuracy": 1.0,
            "user_threshold": 0.97,
            "seed": seed,
        },
        "analytical": _entry(samples),
        "probes_per_dialogue": {
            "analytical": obs["negotiation.dialogue.probes"] / dialogues,
        },
        "predictor_queries_per_dialogue": {
            "analytical": obs.get("prediction.trace.queries", 0) / dialogues,
        },
        "pruned": obs["negotiation.dialogue.pruned"],
        "obs": obs,
    }


# ----------------------------------------------------------------------
# Scale scenario (big-cluster replays in per-config subprocesses)
# ----------------------------------------------------------------------
def _run_scale_subprocess(nodes: int, jobs: int, impl: str, seed: int) -> Dict:
    """One ``scale_bench.py`` replay in a fresh interpreter.

    A subprocess per configuration is what makes the reported peak RSS
    attributable: ``ru_maxrss`` is a whole-process high-water mark, so
    sharing a process across configurations would smear the largest
    configuration's footprint over all of them.
    """
    script = Path(__file__).resolve().parent / "scale_bench.py"
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [
            sys.executable,
            str(script),
            "--nodes", str(nodes),
            "--jobs", str(jobs),
            "--impl", impl,
            "--seed", str(seed),
        ],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout)


def bench_reserve_normalization(
    nodes: int, ops: int, seed: int, repeats: int
) -> Dict:
    """``reserve`` with pre-normalised NodeSets vs plain (shuffled) lists.

    Times only the reserve loop — the ledger is rebuilt fresh per sample —
    so the reported difference is the ``tuple(sorted(set(...)))``
    normalisation the NodeSet fast path skips.  ``allow_overlap`` keeps
    the bookings legal without free-window validation muddying the signal.
    """
    rng = random.Random(seed + 4)
    max_width = max(16, nodes // 64)
    as_lists: List[List[int]] = []
    as_sets: List[NodeSet] = []
    for _ in range(ops):
        width = rng.randint(8, max_width)
        base = rng.randint(0, nodes - width)
        members = list(range(base, base + width))
        shuffled = members[:]
        rng.shuffle(shuffled)
        as_lists.append(shuffled)
        as_sets.append(NodeSet.interval(base, base + width))

    def reserve_pass(variants) -> float:
        ledger = ReservationLedger(nodes)
        t0 = time.perf_counter()
        for job_id, part in enumerate(variants, start=1):
            ledger.reserve(job_id, part, 0.0, 3600.0, allow_overlap=True)
        return time.perf_counter() - t0

    list_samples = [reserve_pass(as_lists) for _ in range(repeats)]
    set_samples = [reserve_pass(as_sets) for _ in range(repeats)]
    list_med = statistics.median(list_samples)
    set_med = statistics.median(set_samples)
    return {
        "nodes": nodes,
        "ops": ops,
        "list": _entry(list_samples),
        "nodeset": _entry(set_samples),
        "speedup": list_med / set_med if set_med > 0 else float("inf"),
    }


def bench_scale(params: Dict, seed: int, repeats: int) -> Dict:
    """Streaming replays at 1k/10k/100k nodes: throughput, RSS, identity.

    Each configuration — (node count, ledger implementation) — replays the
    same streamed synthetic arrival process in its own subprocess.  The
    trajectory checksums must agree across every configuration at a given
    node count (the optimised substrate changes nothing but speed);
    events/sec medians feed the ≥10× acceptance gate
    against the seed ledger, and per-config peak RSS shows the footprint
    staying sub-linear in cluster width.  Replays are capped at
    ``min(repeats, 3)`` samples: the seed ledger's quadratic replay is
    what makes a full ``--repeats`` pass here cost minutes for no extra
    signal.
    """
    node_counts = list(params["scale_node_counts"])
    seed_node_counts = list(params["scale_seed_node_counts"])
    jobs = params["scale_jobs"]
    scale_repeats = max(1, min(repeats, 3))

    matrix: List[Tuple[int, str]] = [(n, "current") for n in node_counts]
    for n in seed_node_counts:
        if n not in node_counts:
            raise ValueError(f"seed baseline at {n} nodes has no current run")
        matrix.append((n, "seed"))

    configs: Dict[str, Dict] = {}
    for n, impl in matrix:
        runs = [
            _run_scale_subprocess(n, jobs, impl, seed)
            for _ in range(scale_repeats)
        ]
        checksums = {r["checksum"] for r in runs}
        if len(checksums) != 1:
            raise AssertionError(
                f"scale replay not deterministic for {impl}@{n}"
            )
        eps_samples = [r["events_per_s"] for r in runs]
        # "heap" in the key is the event loop the configs have always run
        # on; it stays so ledger history lines up across runs.
        configs[f"{impl}-heap-n{n}"] = {
            "nodes": n,
            "impl": impl,
            "events": runs[0]["events"],
            "events_per_s_median": statistics.median(eps_samples),
            "events_per_s_samples": eps_samples,
            "peak_bookings": runs[0]["peak_bookings"],
            "peak_rss_bytes": min(r["peak_rss_bytes"] for r in runs),
            "checksum": runs[0]["checksum"],
        }

    for n in node_counts:
        at_n = {c["checksum"] for c in configs.values() if c["nodes"] == n}
        if len(at_n) != 1:
            raise AssertionError(
                f"trajectory checksums diverge across configs at {n} nodes"
            )

    speedup_vs_seed = {
        str(n): (
            configs[f"current-heap-n{n}"]["events_per_s_median"]
            / configs[f"seed-heap-n{n}"]["events_per_s_median"]
        )
        for n in seed_node_counts
    }
    n_lo, n_hi = min(node_counts), max(node_counts)
    rss_lo = configs[f"current-heap-n{n_lo}"]["peak_rss_bytes"]
    rss_hi = configs[f"current-heap-n{n_hi}"]["peak_rss_bytes"]
    rss = {
        "node_growth": n_hi / n_lo,
        "rss_growth": rss_hi / rss_lo if rss_lo > 0 else float("inf"),
    }

    return {
        "description": (
            "streamed big-cluster replays (subprocess per config): "
            "events/sec, isolated peak RSS, cross-impl trajectory identity"
        ),
        "params": {
            "node_counts": node_counts,
            "seed_node_counts": seed_node_counts,
            "jobs": jobs,
            "replays_per_config": scale_repeats,
            "seed": seed,
        },
        "configs": configs,
        "checksums_identical": True,
        "speedup_vs_seed": speedup_vs_seed,
        "rss": rss,
        "reserve_normalization": bench_reserve_normalization(
            max(node_counts), params["scale_reserve_ops"], seed, repeats
        ),
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_benchmarks(
    out_path: str = "BENCH_ledger.json",
    preset: str = "default",
    repeats: int = 5,
    seed: int = 20050628,
) -> Dict:
    params = PRESETS[preset]
    repeats = max(1, repeats)
    scenarios: Dict[str, Dict] = {}
    scenarios["find_slot_deep_queue"] = bench_find_slot(params, seed, repeats)
    scenarios["negotiation_dialogue"] = bench_negotiation(params, seed, repeats)
    nasa = bench_nasa(params, seed, repeats)
    if nasa is not None:
        scenarios["nasa_end_to_end"] = nasa
    grid = bench_figures_grid(params, seed, repeats)
    if grid is not None:
        scenarios["figures_grid"] = grid
    scenarios["negotiation_fastpath"] = bench_negotiation_fastpath(
        params, seed, repeats
    )
    scenarios["scale"] = bench_scale(params, seed, repeats)

    report = {
        "schema": SCHEMA_VERSION,
        "generated_by": "benchmarks/perf/run.py",
        "preset": preset,
        "repeats": repeats,
        "seed": seed,
        "scenarios": scenarios,
    }
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_ledger.json", help="output JSON path")
    parser.add_argument("--preset", choices=sorted(PRESETS), default="default")
    parser.add_argument("--smoke", action="store_true", help="alias for --preset smoke")
    parser.add_argument("--repeats", type=int, default=5, help="median-of-N runs")
    parser.add_argument("--seed", type=int, default=20050628)
    args = parser.parse_args(argv)

    preset = "smoke" if args.smoke else args.preset
    report = run_benchmarks(
        out_path=args.out, preset=preset, repeats=args.repeats, seed=args.seed
    )
    for name, data in report["scenarios"].items():
        if "speedup_vs_seed" in data:
            for key, cfg in sorted(data["configs"].items()):
                print(
                    f"{name:24s} {key:28s}"
                    f" {cfg['events_per_s_median']:10.0f} ev/s"
                    f"   rss {cfg['peak_rss_bytes'] / 2**20:7.1f} MiB"
                )
            for n, ratio in sorted(data["speedup_vs_seed"].items(), key=lambda kv: int(kv[0])):
                print(f"{name:24s} speedup vs seed @ {n} nodes: {ratio:.1f}x")
            norm = data["reserve_normalization"]
            print(
                f"{name:24s} reserve normalization: list"
                f" {norm['list']['median_s'] * 1e3:7.2f} ms -> nodeset"
                f" {norm['nodeset']['median_s'] * 1e3:7.2f} ms"
                f" ({norm['speedup']:.2f}x)"
            )
        elif "probes_per_dialogue" in data:
            print(
                f"{name:24s} analytical {data['analytical']['median_s'] * 1e3:9.2f} ms"
                f"   probes/dlg {data['probes_per_dialogue']['analytical']:.1f}"
                f"   queries/dlg"
                f" {data['predictor_queries_per_dialogue']['analytical']:.1f}"
                f"   pruned {data['pruned']:.0f}"
            )
        elif "speedup" in data:
            print(
                f"{name:24s} current {data['current']['median_s'] * 1e3:9.2f} ms"
                f"   seed {data['seed']['median_s'] * 1e3:9.2f} ms"
                f"   speedup {data['speedup']:.2f}x"
            )
        else:
            print(
                f"{name:24s} seq {data['sequential']['median_s'] * 1e3:9.2f} ms"
                f"   pool x{data['params']['pool_jobs']}"
                f" {data['parallel']['median_s'] * 1e3:9.2f} ms"
                f" ({data['speedup_parallel']:.2f}x,"
                f" {data['params']['cpu_count']} cpu)"
                f"   warm {data['warm_cache']['median_s'] * 1e3:9.2f} ms"
                f" ({data['speedup_warm']:.2f}x)"
            )
    print(f"wrote {args.out}")
    return 0
