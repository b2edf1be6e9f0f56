"""Serialising observability state to disk and rendering it for humans.

One JSON document carries everything one run (or one batch of runs)
produced: the final counters and gauges plus the sampler's sim-time
series.  ``probqos run --obs out.json`` writes it; ``probqos obs
summarize out.json`` renders it back as the report below; downstream
tooling (perf-PR diffs, notebooks) reads the raw JSON.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.sampler import Sampler

#: Version of the on-disk report layout.  Version 2 dropped the
#: ``histograms`` block (and the sampler rows' ``*.count`` columns).
OBS_SCHEMA_VERSION = 2

#: An obs snapshot: ``{"counters": {name: total}, "gauges": {name: level}}``
#: (:attr:`SimulationResult.obs <repro.core.system.SimulationResult>`).
ObsSnapshot = Dict[str, Dict[str, float]]


def empty_obs() -> ObsSnapshot:
    """A snapshot of nothing: what a run of no simulations reports."""
    return {"counters": {}, "gauges": {}}


def merge_obs(total: ObsSnapshot, snapshot: ObsSnapshot) -> ObsSnapshot:
    """Fold one run's snapshot into ``total`` (returned).

    Counters add; gauges are levels, so the later snapshot's level wins.
    Sweeps fold their points in submission order, so the totals do not
    depend on how many worker processes ran them.
    """
    counters = total["counters"]
    for name, value in snapshot["counters"].items():
        counters[name] = counters.get(name, 0) + value
    total["gauges"].update(snapshot["gauges"])
    return total


def build_report(
    obs: ObsSnapshot,
    sampler: Optional[Sampler] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the JSON-serialisable observability report."""
    names = sorted(set(obs["counters"]) | set(obs["gauges"]))
    report: Dict[str, Any] = {
        "schema": OBS_SCHEMA_VERSION,
        "meta": dict(meta) if meta else {},
        "metric_names": names,
        "layers": sorted({name.split(".", 1)[0] for name in names}),
        "metrics": {
            "counters": dict(sorted(obs["counters"].items())),
            "gauges": dict(sorted(obs["gauges"].items())),
        },
        "series": {
            "interval": sampler.interval if sampler is not None else None,
            "rows": sampler.rows if sampler is not None else [],
        },
    }
    return report


def write_report(
    path: str,
    obs: ObsSnapshot,
    sampler: Optional[Sampler] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write the report to ``path``; returns the dict that was written."""
    report = build_report(obs, sampler, meta)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def load_report(path: str) -> Dict[str, Any]:
    """Read a report back; raises ValueError on an unknown schema."""
    with open(path) as fh:
        report = json.load(fh)
    schema = report.get("schema")
    if schema != OBS_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported obs schema {schema!r} "
            f"(this build reads {OBS_SCHEMA_VERSION})"
        )
    return report


# ----------------------------------------------------------------------
# Human-readable rendering
# ----------------------------------------------------------------------
def _format_value(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4f}" if abs(value) < 1000 else f"{value:.4g}"
    return f"{int(value)}"


#: Eight block heights, lowest to highest, for sparkline rendering.
_SPARK_LEVELS = "▁▂▃▄▅▆▇█"

#: Metrics shown in the summarize time-series section.
SERIES_TOP_K = 8


def _sparkline(values: List[float], width: int = 24) -> str:
    """Render a value series as a fixed-width block-character sparkline.

    Longer series are bucketed down to ``width`` columns (each column shows
    its bucket's mean); shorter series use one column per sample.  A flat
    series renders at the lowest level so trends stay visually honest.
    """
    if not values:
        return ""
    if len(values) > width:
        buckets: List[float] = []
        for column in range(width):
            lo = column * len(values) // width
            hi = max(lo + 1, (column + 1) * len(values) // width)
            chunk = values[lo:hi]
            buckets.append(sum(chunk) / len(chunk))
        values = buckets
    low, high = min(values), max(values)
    span = high - low
    if span <= 0:
        return _SPARK_LEVELS[0] * len(values)
    return "".join(
        _SPARK_LEVELS[
            min(
                len(_SPARK_LEVELS) - 1,
                int((v - low) / span * len(_SPARK_LEVELS)),
            )
        ]
        for v in values
    )


def summarize_data(report: Dict[str, Any]) -> Dict[str, Any]:
    """The structured form of the ``obs summarize`` report.

    Everything the text renderer prints, as one JSON-serialisable dict —
    ``--format json`` emits it verbatim and :func:`summarize` renders it.
    Derived values (series extrema) are computed here so both formats
    agree by construction.
    """
    meta = report.get("meta", {})
    names = report.get("metric_names", [])
    layers = report.get("layers", [])
    metrics = report.get("metrics", {})

    series = report.get("series", {})
    rows = series.get("rows", [])
    series_data: Dict[str, Any] = {
        "samples": len(rows),
        "interval": series.get("interval"),
    }
    if rows:
        series_data["span"] = [rows[0]["time"], rows[-1]["time"]]
        final = rows[-1].get("metrics", {})
        top = sorted(final.items(), key=lambda kv: (-kv[1], kv[0]))[:SERIES_TOP_K]
        series_data["top"] = [
            {
                "name": name,
                "values": values,
                "min": min(values),
                "mean": sum(values) / len(values),
                "max": max(values),
                "final": values[-1],
            }
            for name, values in (
                (
                    name,
                    [row.get("metrics", {}).get(name, 0.0) for row in rows],
                )
                for name, _ in top
            )
        ]
    return {
        "meta": dict(meta),
        "metric_count": len(names),
        "layers": list(layers),
        "counters": dict(metrics.get("counters", {})),
        "gauges": dict(metrics.get("gauges", {})),
        "series": series_data,
    }


def summarize(report: Dict[str, Any]) -> str:
    """Render a loaded report as the ``probqos obs summarize`` text."""
    data = summarize_data(report)
    lines: List[str] = []
    layers = data["layers"]
    lines.append(
        f"Observability report: {data['metric_count']} metrics across "
        f"{len(layers)} layers ({', '.join(layers) if layers else 'none'})"
    )
    meta = data["meta"]
    for key in sorted(meta):
        lines.append(f"  {key}: {meta[key]}")

    counters = data["counters"]
    gauges = data["gauges"]

    if counters:
        lines.append("")
        lines.append("Counters:")
        width = max(len(n) for n in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {_format_value(counters[name])}")
    if gauges:
        lines.append("")
        lines.append("Gauges:")
        width = max(len(n) for n in gauges)
        for name in sorted(gauges):
            lines.append(f"  {name:<{width}}  {_format_value(gauges[name])}")

    series = data["series"]
    if series["samples"]:
        t0, t1 = series["span"]
        lines.append("")
        lines.append(
            f"Time series: {series['samples']} samples over sim-time "
            f"[{t0:g}, {t1:g}] s"
            + (
                f" (interval {series['interval']:g} s)"
                if series.get("interval")
                else ""
            )
        )
        top = series.get("top", [])
        if top:
            lines.append(
                f"  top {len(top)} metrics by final value "
                "(sparkline over all samples):"
            )
            width = max(len(entry["name"]) for entry in top)
            for entry in top:
                lines.append(
                    f"  {entry['name']:<{width}}  "
                    f"{_sparkline(entry['values'])}  "
                    f"min={_format_value(entry['min'])} "
                    f"mean={entry['mean']:.4g} "
                    f"max={_format_value(entry['max'])} "
                    f"final={_format_value(entry['final'])}"
                )
    else:
        lines.append("")
        lines.append("Time series: no samples (no sampler attached)")
    return "\n".join(lines)
