"""The repository benchmark: NASA, SDSC and 10k-node replays.

Runs one workload and prints, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

* ``--trace 0`` measures the end-to-end metrics with no tracing: set-up
  time, replay time, peak memory, and the paper's model metrics.
* ``--trace 1`` replays the run's first inputs untraced, then with every
  layer's public methods wrapped (see ``spans.py``), untraced again, and
  with all of the library's observability hooks on.  It prints the
  per-layer metrics and writes the spans under ``.perfbench/``.

Usage, from the repository root::

    python3 perfbench/run.py --workload nasa --seed 1 --seconds 20 --trace 0

See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import heapq
import importlib
import inspect
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from replays import (  # noqa: E402
    MODEL_METRICS,
    WORKLOADS,
    Input,
    SetupTimes,
    Workload,
    check,
    combined_digest,
    digest,
    input_seeds,
    make_batch,
    make_input,
    make_reference,
    model_metrics,
    replay,
)
from spans import ROOT_OP, Tracer, fold, install, name_counts  # noqa: E402

#: Where the traced run writes its spans.
OUT_DIR = ROOT / ".perfbench"

#: Fewest passes over the batch in an untraced run; every end-to-end
#: time is a median over passes.
MIN_PASSES = 3

#: Inputs of the batch the traced run replays (the first ones).
TRACED_INPUTS = 12

#: Nominal seconds of ``reference_loop`` (about what a quiet 2-vCPU Xeon
#: takes).  Untraced times are wall times rescaled by this over the loop's
#: time measured beside them: seconds on a host that runs the loop in
#: exactly this long.
REFERENCE_LOOP_S = 0.02

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "sim_s": "s",
    "peak_rss_mb": "MiB",
    **{name: "1" for name in MODEL_METRICS},
}

PER_LAYER: Dict[str, str] = {
    "core.negotiate.calls": "count",
    "core.negotiate.cum_s": "s",
    "core.negotiate.self_s": "s",
    "core.negotiate.p50_us": "us",
    "core.negotiate.p99_us": "us",
    "core.offers_per_dialogue": "1",
    "core.accept_ratio": "1",
    "core.fastpath.calls": "count",
    "core.fastpath.node_terms": "count",
    "core.fastpath.self_s": "s",
    **{
        f"cluster.{op}.{kind}": unit
        for op in ("find_slot", "reserve", "release", "free_nodes", "profile")
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    },
    "cluster.peak_bookings": "count",
    "sim.events": "count",
    "sim.self_s": "s",
    "sim.self_ns_per_event": "ns",
    "checkpointing.decide.calls": "count",
    "checkpointing.decide.self_s": "s",
    "checkpointing.performed_ratio": "1",
    "prediction.queries": "count",
    "prediction.self_s": "s",
    "scheduling.arrivals": "count",
    "scheduling.restarts": "count",
    "scheduling.self_s": "s",
    "replay.self_s": "s",
    "trace.sim_s": "s",
    "trace.overhead_ratio": "1",
    "trace.missing_methods": "count",
    "workload.generate_s": "s",
    "failures.generate_s": "s",
    "obs.hooks_on": "count",
    "obs.all_on_s": "s",
    "obs.all_on_ratio": "1",
}


class Tally:
    """Operations attempted and failed, and the failures' descriptions."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: List[str] = []

    def replayed(self, inp: Input, result) -> None:
        self.attempted += len(inp.jobs)
        self.problems.extend(check(inp, result))

    def same(self, label: str, expected: str, got: str) -> None:
        if got != expected:
            self.problems.append(f"{label}: digest {got[:12]} != {expected[:12]}")


def current_rss_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss_bytes() -> int:
    """The process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class _Event:
    __slots__ = ("time", "job", "arrival")

    def __init__(self, time: int, job: int, arrival: bool) -> None:
        self.time, self.job, self.arrival = time, job, arrival

    def __lt__(self, other: "_Event") -> bool:
        return self.time < other.time


_GRID = np.arange(4096, dtype=float)


def reference_loop() -> float:
    """Seconds a fixed miniature replay takes now.

    The host is shared: its speed for this process changes by up to 1.8x
    in spells of seconds, and the whole process slows together (CPU time
    tracks wall time, with no steal).  This loop does the replays' kinds
    of work (an event heap of Python objects, dict and sorted-list
    bookkeeping, small numpy calls) and slows down with them, so a
    replay's wall time over the loop's time beside it is a host-speed-free
    measure of the replay.  It is the benchmark's own code: no change to
    the library moves it.
    """
    collecting = gc.isenabled()
    gc.disable()  # a collection here would scan the replay's heap
    try:
        return _miniature_replay()
    finally:
        if collecting:
            gc.enable()


def _miniature_replay() -> float:
    t0 = time.perf_counter()
    x, heap, booked, running = 1, [], [], {}
    for job in range(1200):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, _Event(x % 10_000, job, True))
    while heap:
        event = heapq.heappop(heap)
        if event.arrival:
            bisect.insort(booked, event.time)
            running[event.job] = event.time
            finish = event.time + event.job * 37 % 500 + 1
            heapq.heappush(heap, _Event(finish, event.job, False))
        else:
            start = running.pop(event.job)
            del booked[bisect.bisect_left(booked, start)]
            if event.job % 3 == 0:
                heapq.heappush(heap, _Event(event.time + 7, event.job + 10_000, True))
    total = 0.0
    for i in range(1500):
        k = int(np.searchsorted(_GRID, i * 2.5))
        total += float(_GRID[k : k + 16].sum())
    return time.perf_counter() - t0


def timed_replay(workload: Workload, inp: Input, **hooks) -> Tuple[float, object]:
    gc.collect()
    t0 = time.perf_counter()
    result = replay(workload, inp, **hooks)
    return time.perf_counter() - t0, result


def run_untraced(
    workload: Workload, seed: int, seconds: float
) -> Tuple[Dict[str, float], Tally]:
    """End-to-end metrics from passes over the run's inputs, until
    ``seconds`` have gone by and at least ``MIN_PASSES`` are done.

    A pass generates each input afresh (a set-up sample) and replays it
    (a replay sample).  ``reference_loop`` runs before and after the two,
    and both samples are rescaled by ``REFERENCE_LOOP_S`` over the mean of
    those two loop times.  One input's samples are a pass apart; the
    batch's time is the sum of its inputs' medians.
    """
    tally = Tally()
    baseline = current_rss_bytes()
    reference = make_reference(workload)
    _, result = timed_replay(workload, reference)
    peak_rss_mb = (peak_rss_bytes() - baseline) / 2**20
    tally.replayed(reference, result)
    model = model_metrics(result)
    print(f"reference sha256 {digest(result)}")
    del result, reference

    seeds = input_seeds(seed, workload.inputs)
    setups: List[List[float]] = [[] for _ in seeds]
    replays: List[List[float]] = [[] for _ in seeds]
    digests: List[str] = []
    wall_s = 0.0
    passes = 0
    last_loop_s = reference_loop()
    deadline = time.perf_counter() + seconds
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        for i, input_seed in enumerate(seeds):
            gc.collect()
            times = SetupTimes()
            inp = make_input(workload, input_seed, times)
            elapsed, result = timed_replay(workload, inp)
            after_loop_s = reference_loop()
            scale = 2 * REFERENCE_LOOP_S / (last_loop_s + after_loop_s)
            setups[i].append(times.total_s * scale)
            replays[i].append(elapsed * scale)
            last_loop_s = after_loop_s
            wall_s += elapsed
            tally.replayed(inp, result)
            got = digest(result)
            if passes:
                tally.same(f"input {i} pass {passes}", digests[i], got)
            else:
                digests.append(got)
            del result, inp
        passes += 1
    print(
        f"{workload.name}: seed {seed}, {len(seeds)} inputs x "
        f"{workload.jobs} jobs, {passes} passes, "
        f"{wall_s / passes:.3f} s wall per pass of replays"
    )
    print(f"trajectory sha256 {combined_digest(digests)}")
    metrics = {
        "setup_s": sum(map(statistics.median, setups)),
        "sim_s": sum(map(statistics.median, replays)),
        "peak_rss_mb": peak_rss_mb,
        **model,
    }
    return metrics, tally


def obs_hooks(workload: Workload) -> Dict[str, object]:
    """Fresh instances of every observability hook the replay accepts."""
    candidates = (
        ("registry", "repro.obs.registry", "MetricsRegistry"),
        ("recorder", "repro.obs.trace", "SpanBuilder"),
        ("audit", "repro.obs.audit", "GuaranteeAudit"),
        ("profiler", "repro.obs.prof", "Profiler"),
    )
    if workload.log is None:
        from repro.cluster.reservations import ReservationLedger
        from repro.sim.engine import EventLoop

        accepted = set(inspect.signature(ReservationLedger).parameters) & set(
            inspect.signature(EventLoop).parameters
        )
    else:
        from repro.core.system import simulate

        accepted = set(inspect.signature(simulate).parameters)
    hooks: Dict[str, object] = {}
    for keyword, module, name in candidates:
        if keyword not in accepted:
            continue
        try:
            hooks[keyword] = getattr(importlib.import_module(module), name)()
        except (ImportError, AttributeError):
            continue
    return hooks


def run_traced(workload: Workload, seed: int) -> Tuple[Dict[str, float], Tally]:
    """Per-layer metrics from one traced pass over the batch, bracketed
    by two untraced passes, plus one pass with observability on."""
    tally = Tally()
    batch, times = make_batch(workload, seed, TRACED_INPUTS)

    untraced = [0.0] * len(batch)
    digests: List[str] = []
    for i, inp in enumerate(batch):
        elapsed, result = timed_replay(workload, inp)
        untraced[i] += elapsed / 2
        tally.replayed(inp, result)
        digests.append(digest(result))
        del result

    tracer = Tracer()
    counters = {"offers": 0, "accepted": 0, "performed": 0, "peak_bookings": 0}

    def after_negotiate(_negotiator, outcome) -> None:
        counters["offers"] += getattr(outcome, "offers_made", 0)
        counters["accepted"] += not getattr(outcome, "forced", True)

    def after_decide(_policy, decision) -> None:
        counters["performed"] += bool(getattr(decision, "perform", False))

    def after_reserve(ledger, _reservation) -> None:
        counters["peak_bookings"] = max(counters["peak_bookings"], len(ledger))

    installed = install(
        tracer,
        after={
            "core.negotiate:negotiate": after_negotiate,
            "checkpointing.decide:decide": after_decide,
            "cluster.reserve:reserve": after_reserve,
        },
    )
    events = 0
    try:
        traced_replay = tracer.wrap(ROOT_OP, "replay", replay)
        for i, inp in enumerate(batch):
            gc.collect()
            result = traced_replay(workload, inp)
            events += result.events_processed
            tally.replayed(inp, result)
            tally.same(f"traced input {i}", digests[i], digest(result))
            del result
    finally:
        installed.remove()
    for name in installed.missing:
        print(f"trace: absent layer method {name}")

    for i, inp in enumerate(batch):
        elapsed, result = timed_replay(workload, inp)
        untraced[i] += elapsed / 2
        tally.same(f"untraced input {i}", digests[i], digest(result))
        del result

    hooks_on = 0
    obs_s = 0.0
    for i, inp in enumerate(batch):
        hooks = obs_hooks(workload)
        hooks_on = len(hooks)
        elapsed, result = timed_replay(workload, inp, **hooks)
        obs_s += elapsed
        tally.same(f"observed input {i}", digests[i], digest(result))
        del result, hooks

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{workload.name}-seed{seed}-spans.npz"
    tracer.write(spans_path)
    print(f"trace: {len(tracer)} spans written to {spans_path}")

    metrics = layer_metrics(tracer, counters, events)
    untraced_s = sum(untraced)
    metrics.update(
        {
            "trace.overhead_ratio": metrics["trace.sim_s"] / untraced_s,
            "trace.missing_methods": len(installed.missing),
            "workload.generate_s": times.workload_s,
            "failures.generate_s": times.failures_s,
            "obs.hooks_on": hooks_on,
            "obs.all_on_s": obs_s,
            "obs.all_on_ratio": obs_s / untraced_s,
        }
    )
    return metrics, tally


def layer_metrics(
    tracer: Tracer, counters: Dict[str, int], events: int
) -> Dict[str, float]:
    """Per-layer metrics folded from the spans of a traced pass."""
    stats = fold(tracer)
    counts = name_counts(tracer)

    def calls(op: str) -> int:
        return stats[op].calls if op in stats else 0

    def self_s(op: str) -> float:
        return stats[op].self_s if op in stats else 0.0

    def cum_s(op: str) -> float:
        return float(stats[op].durations_ns.sum()) / 1e9 if op in stats else 0.0

    def percentile_us(op: str, q: float) -> float:
        if op not in stats:
            return 0.0
        return float(np.percentile(stats[op].durations_ns, q)) / 1e3

    negotiations = calls("core.negotiate")
    decisions = calls("checkpointing.decide")
    metrics: Dict[str, float] = {
        "core.negotiate.calls": negotiations,
        "core.negotiate.cum_s": cum_s("core.negotiate"),
        "core.negotiate.self_s": self_s("core.negotiate"),
        "core.negotiate.p50_us": percentile_us("core.negotiate", 50),
        "core.negotiate.p99_us": percentile_us("core.negotiate", 99),
        "core.offers_per_dialogue": counters["offers"] / negotiations if negotiations else 0.0,
        "core.accept_ratio": counters["accepted"] / counters["offers"] if counters["offers"] else 0.0,
        "core.fastpath.calls": calls("core.fastpath"),
        "core.fastpath.node_terms": counts.get("core.fastpath:node_failure_probability", 0),
        "core.fastpath.self_s": self_s("core.fastpath"),
        "cluster.peak_bookings": counters["peak_bookings"],
        "sim.events": events,
        "sim.self_s": self_s("sim"),
        "sim.self_ns_per_event": self_s("sim") * 1e9 / events if events else 0.0,
        "checkpointing.decide.calls": decisions,
        "checkpointing.decide.self_s": self_s("checkpointing.decide"),
        "checkpointing.performed_ratio": counters["performed"] / decisions if decisions else 0.0,
        "prediction.queries": calls("prediction"),
        "prediction.self_s": self_s("prediction"),
        "scheduling.arrivals": counts.get("scheduling:schedule_arrival", 0),
        "scheduling.restarts": counts.get("scheduling:schedule_restart", 0),
        "scheduling.self_s": self_s("scheduling"),
        "replay.self_s": self_s(ROOT_OP),
        "trace.sim_s": cum_s(ROOT_OP),
    }
    for op in ("find_slot", "reserve", "release", "free_nodes", "profile"):
        metrics[f"cluster.{op}.calls"] = calls(f"cluster.{op}")
        metrics[f"cluster.{op}.self_s"] = self_s(f"cluster.{op}")
    return metrics


def result_line(
    metrics: Dict[str, float], units: Dict[str, str], tally: Tally
) -> str:
    return json.dumps(
        {
            "correct": not tally.problems,
            "attempted": tally.attempted,
            "failed": len(tally.problems),
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items()
            },
        }
    )


def run(
    workload: Workload, seed: int, seconds: float, trace: bool
) -> str:
    """Run one workload and return the result line."""
    if trace:
        metrics, tally = run_traced(workload, seed)
    else:
        metrics, tally = run_untraced(workload, seed, seconds)
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    return result_line(metrics, PER_LAYER if trace else END_TO_END, tally)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
