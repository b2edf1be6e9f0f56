"""Continuous perf-regression tracking over BENCH ledgers.

``benchmarks/perf/run.py`` writes one JSON ledger per run (schema in
``benchmarks/perf/ledger_bench.py``): named scenarios, each carrying its
``params``, wall-clock timing entries (``median_s``), throughput medians
(``events_per_s_median``), and the deterministic ``obs`` counter totals
the run produced.  This module diffs two such ledgers — ``probqos bench
compare OLD NEW`` — and renders history across many — ``probqos bench
trend`` — so a perf regression fails CI loudly *with the scenario- and
metric-level diff attached* instead of rotting silently in an artifact.

Metric classes and their gates:

* **time** (paths ending in ``median_s``; seconds, lower is better):
  regressed only when *both* the ratio exceeds ``time_ratio`` *and* the
  absolute slowdown exceeds ``min_abs_s``.  The two-sided guard is the
  noise tolerance: micro-benchmarks jitter by tens of percent on shared
  CI runners, so a pure ratio gate on a 2 ms scenario would cry wolf
  weekly, while a pure absolute gate would wave through a 10x slowdown
  of a fast path.
* **rate** (``events_per_s_median``; higher is better): ratio-only, same
  tolerance factor, no absolute guard (throughput medians are already
  aggregates).
* **count** (paths under ``obs.``; simulation-determined work counters):
  machine-independent, so they gate cross-machine runs where wall time
  cannot (``--counts-only``).  A count regression means the *algorithm*
  did more work — extra probes, extra rebuilds — regardless of runner
  speed.  Under ``--counts-only`` a baseline counter the new ledger no
  longer reports is a regression too, so a lost counter cannot slip out
  of the gate.

Scenario params must match (excluding :data:`VOLATILE_PARAMS`) for a
scenario to be compared at all; mismatches are reported as
``incomparable``, and scenarios present on only one side as ``added`` /
``removed`` — neither is a regression.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Version of the comparison-result layout.
BENCH_COMPARE_SCHEMA_VERSION = 1

#: A time metric regresses only past BOTH thresholds (ratio and absolute).
DEFAULT_TIME_RATIO = 1.5
DEFAULT_MIN_ABS_S = 0.05

#: Work counters are deterministic; small relative drift still allowed
#: (pool scheduling can shift which worker pays one-off preparation).
DEFAULT_COUNT_RATIO = 1.25
#: ...and tiny counters are exempt from the ratio gate entirely.
COUNT_MIN_DELTA = 16

#: Scenario params that legitimately differ across machines; excluded
#: from the comparability check.
VOLATILE_PARAMS = frozenset({"cpu_count", "replays_per_config"})

#: Per-metric and per-scenario verdicts, roughly worst-first.
VERDICTS = ("regressed", "incomparable", "removed", "added", "improved", "ok")


def load_ledger(path: str) -> Dict[str, Any]:
    """Read a BENCH ledger; raises ValueError if it is not one."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "scenarios" not in doc:
        raise ValueError(f"{path}: not a BENCH ledger (no 'scenarios' key)")
    if not isinstance(doc.get("schema"), int):
        raise ValueError(f"{path}: BENCH ledger missing integer 'schema'")
    return doc


# ----------------------------------------------------------------------
# Metric extraction
# ----------------------------------------------------------------------
def _flatten(obj: Any, prefix: str, out: Dict[str, float]) -> None:
    if isinstance(obj, dict):
        for key in obj:
            _flatten(obj[key], f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix] = float(obj)


def _metric_class(path: str) -> Optional[str]:
    """``time`` / ``rate`` / ``count`` for gated paths, None otherwise.

    Everything else in a scenario — sample lists, RSS, checksums,
    ``speedup_vs_seed`` — is informational and never gated.
    """
    leaf = path.rsplit(".", 1)[-1]
    if leaf == "median_s":
        return "time"
    if leaf == "events_per_s_median":
        return "rate"
    if path.startswith("obs."):
        return "count"
    return None


def scenario_metrics(scenario: Dict[str, Any]) -> Dict[str, Tuple[str, float]]:
    """Gated metrics of one scenario: ``{path: (class, value)}``."""
    flat: Dict[str, float] = {}
    for key, value in scenario.items():
        if key in ("params", "description"):
            continue
        _flatten(value, key, flat)
    metrics: Dict[str, Tuple[str, float]] = {}
    for path in sorted(flat):
        cls = _metric_class(path)
        if cls is not None:
            metrics[path] = (cls, flat[path])
    return metrics


def _params_diff(
    old: Dict[str, Any], new: Dict[str, Any]
) -> Dict[str, List[Any]]:
    """``{param: [old, new]}`` for every non-volatile mismatch."""
    diff: Dict[str, List[Any]] = {}
    for key in sorted(set(old) | set(new)):
        if key in VOLATILE_PARAMS:
            continue
        if old.get(key) != new.get(key):
            diff[key] = [old.get(key), new.get(key)]
    return diff


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def _judge(
    cls: str,
    old: float,
    new: float,
    time_ratio: float,
    min_abs_s: float,
    count_ratio: float,
) -> str:
    if cls == "time":
        if new > old * time_ratio and new - old > min_abs_s:
            return "regressed"
        if old > new * time_ratio and old - new > min_abs_s:
            return "improved"
        return "ok"
    if cls == "rate":  # higher is better
        if old > 0 and new < old / time_ratio:
            return "regressed"
        if new > 0 and old < new / time_ratio:
            return "improved"
        return "ok"
    # count: deterministic work totals, near-exact
    if new > old * count_ratio and new - old > COUNT_MIN_DELTA:
        return "regressed"
    if old > new * count_ratio and old - new > COUNT_MIN_DELTA:
        return "improved"
    return "ok"


def compare_ledgers(
    old_doc: Dict[str, Any],
    new_doc: Dict[str, Any],
    time_ratio: float = DEFAULT_TIME_RATIO,
    min_abs_s: float = DEFAULT_MIN_ABS_S,
    count_ratio: float = DEFAULT_COUNT_RATIO,
    counts_only: bool = False,
) -> Dict[str, Any]:
    """Diff two BENCH ledgers with noise-tolerant gates.

    Args:
        old_doc: The baseline ledger (e.g. the committed one).
        new_doc: The candidate ledger (e.g. this run's).
        time_ratio: Slowdown factor a time/rate metric must exceed.
        min_abs_s: Absolute seconds a time metric must additionally lose.
        count_ratio: Relative growth a work counter must exceed.
        counts_only: Gate only the machine-independent ``obs.`` counters
            (for cross-machine CI, where the baseline's wall times were
            measured on different hardware).

    Returns:
        A JSON-serialisable result: per-scenario metric verdicts, the
        flat ``regressions`` list CI prints, and the overall ``verdict``
        (``regressed`` iff any metric regressed).
    """
    if old_doc.get("schema") != new_doc.get("schema"):
        raise ValueError(
            f"ledger schema mismatch: old={old_doc.get('schema')!r} "
            f"new={new_doc.get('schema')!r} — regenerate the baseline"
        )
    old_scenarios = old_doc.get("scenarios", {})
    new_scenarios = new_doc.get("scenarios", {})
    scenarios: Dict[str, Any] = {}
    regressions: List[Dict[str, Any]] = []
    improvements: List[Dict[str, Any]] = []

    for name in sorted(set(old_scenarios) | set(new_scenarios)):
        if name not in new_scenarios:
            scenarios[name] = {"verdict": "removed", "metrics": {}}
            continue
        if name not in old_scenarios:
            scenarios[name] = {"verdict": "added", "metrics": {}}
            continue
        old_s, new_s = old_scenarios[name], new_scenarios[name]
        diff = _params_diff(old_s.get("params", {}), new_s.get("params", {}))
        if diff:
            scenarios[name] = {
                "verdict": "incomparable",
                "params_diff": diff,
                "metrics": {},
            }
            continue
        old_m = scenario_metrics(old_s)
        new_m = scenario_metrics(new_s)
        metrics: Dict[str, Any] = {}
        worst = "ok"
        for path in sorted(set(old_m) | set(new_m)):
            if path not in old_m:
                continue  # instrumentation added, not a regression
            cls, old_v = old_m[path]
            if counts_only and cls != "count":
                continue
            if path not in new_m:
                if not counts_only:
                    continue  # instrumentation removed
                # A baseline counter the new run no longer reports is a
                # lost counter: the counts gate must not go quietly blind.
                new_v, verdict, ratio = None, "regressed", 0.0
            else:
                _, new_v = new_m[path]
                verdict = _judge(
                    cls, old_v, new_v, time_ratio, min_abs_s, count_ratio
                )
                if old_v:
                    ratio = new_v / old_v
                else:
                    ratio = 1.0 if not new_v else float("inf")
            metrics[path] = {
                "class": cls,
                "old": old_v,
                "new": new_v,
                "ratio": ratio,
                "verdict": verdict,
            }
            entry = {
                "scenario": name,
                "metric": path,
                "class": cls,
                "old": old_v,
                "new": new_v,
                "ratio": ratio,
            }
            if verdict == "regressed":
                regressions.append(entry)
                worst = "regressed"
            elif verdict == "improved":
                improvements.append(entry)
                if worst == "ok":
                    worst = "improved"
        scenarios[name] = {"verdict": worst, "metrics": metrics}

    return {
        "schema": BENCH_COMPARE_SCHEMA_VERSION,
        "thresholds": {
            "time_ratio": time_ratio,
            "min_abs_s": min_abs_s,
            "count_ratio": count_ratio,
            "counts_only": counts_only,
        },
        "scenarios": scenarios,
        "regressions": regressions,
        "improvements": improvements,
        "verdict": "regressed" if regressions else "ok",
    }


def _fmt_metric(cls: str, value: Optional[float]) -> str:
    if value is None:
        return "missing"
    if cls == "time":
        return f"{value * 1e3:.2f} ms" if value < 1.0 else f"{value:.3f} s"
    if cls == "rate":
        return f"{value:.0f}/s"
    return f"{value:g}"


def render_compare(result: Dict[str, Any], verbose: bool = False) -> str:
    """Render a :func:`compare_ledgers` result as the CLI text report."""
    lines: List[str] = []
    thresholds = result["thresholds"]
    gates = (
        f"time >{thresholds['time_ratio']:g}x and "
        f">{thresholds['min_abs_s']:g}s, counts >{thresholds['count_ratio']:g}x"
    )
    if thresholds["counts_only"]:
        gates += " (counts only)"
    lines.append(f"Bench compare: {result['verdict'].upper()}  [{gates}]")
    for name in sorted(result["scenarios"]):
        scenario = result["scenarios"][name]
        verdict = scenario["verdict"]
        gated = len(scenario["metrics"])
        flagged = [
            (path, m)
            for path, m in scenario["metrics"].items()
            if m["verdict"] != "ok"
        ]
        lines.append(f"  {name:<24} {verdict:<12} ({gated} metrics gated)")
        if "params_diff" in scenario:
            for param, (old, new) in sorted(scenario["params_diff"].items()):
                lines.append(f"    params.{param}: {old!r} -> {new!r}")
        shown = (
            sorted(scenario["metrics"].items()) if verbose
            else sorted(flagged)
        )
        for path, m in shown:
            lines.append(
                f"    {m['verdict']:<10} {path}: "
                f"{_fmt_metric(m['class'], m['old'])} -> "
                f"{_fmt_metric(m['class'], m['new'])} "
                f"({m['ratio']:.2f}x)"
            )
    if result["regressions"]:
        lines.append("")
        lines.append(f"{len(result['regressions'])} regression(s):")
        for entry in result["regressions"]:
            lines.append(
                f"  {entry['scenario']}::{entry['metric']} "
                f"{entry['ratio']:.2f}x"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Trend
# ----------------------------------------------------------------------
def trend_data(
    docs: Sequence[Tuple[str, Dict[str, Any]]]
) -> Dict[str, Dict[str, Any]]:
    """Metric history across a ledger sequence (oldest first).

    Returns ``{scenario::path: {"class", "labels", "values"}}`` for every
    gated metric present in at least two of the ledgers; ledgers missing
    a metric contribute ``None`` at their position.
    """
    series: Dict[str, Dict[str, Any]] = {}
    labels = [label for label, _ in docs]
    for position, (_, doc) in enumerate(docs):
        for name, scenario in doc.get("scenarios", {}).items():
            for path, (cls, value) in scenario_metrics(scenario).items():
                key = f"{name}::{path}"
                row = series.setdefault(
                    key,
                    {
                        "class": cls,
                        "labels": labels,
                        "values": [None] * len(docs),
                    },
                )
                row["values"][position] = value
    return {
        key: row
        for key, row in sorted(series.items())
        if sum(v is not None for v in row["values"]) >= 2
    }


def render_trend(docs: Sequence[Tuple[str, Dict[str, Any]]]) -> str:
    """Render metric history across ledgers with sparklines."""
    from repro.obs.export import _sparkline

    series = trend_data(docs)
    lines = [
        f"Bench trend over {len(docs)} ledgers "
        f"({', '.join(label for label, _ in docs)}):"
    ]
    if not series:
        lines.append("  no metric appears in two or more ledgers")
        return "\n".join(lines)
    width = max(len(key) for key in series)
    for key, row in series.items():
        present = [v for v in row["values"] if v is not None]
        first, last = present[0], present[-1]
        if first:
            change = (last / first - 1.0) * 100.0
        else:
            change = 0.0 if not last else float("inf")
        lines.append(
            f"  {key:<{width}}  {_sparkline(present)}  "
            f"{_fmt_metric(row['class'], first)} -> "
            f"{_fmt_metric(row['class'], last)} ({change:+.1f}%)"
        )
    return "\n".join(lines)
