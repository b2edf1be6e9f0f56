"""Plain-text rendering of figures and tables (the harness' output format).

Benchmarks and the CLI print the regenerated series as aligned text tables
— the same rows/series the paper plots — plus a coarse ASCII sparkline per
series for eyeballing shape.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.experiments.figures import FigureResult
from repro.experiments.tables import Table1Row

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """Eight-level ASCII sparkline of a numeric series."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi - lo < 1e-12:
        return _SPARK_LEVELS[0] * len(values)
    scale = (len(_SPARK_LEVELS) - 1) / (hi - lo)
    return "".join(_SPARK_LEVELS[int((v - lo) * scale)] for v in values)


def _format_value(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e5:
        return f"{value:.3e}"
    if abs(value) >= 100:
        return f"{value:.1f}"
    return f"{value:.4f}"


def format_figure(figure: FigureResult) -> str:
    """Render a figure's series as an aligned text table."""
    lines = [f"Figure {figure.figure_id}: {figure.title}"]
    xs = figure.series[0].xs
    header = [figure.x_label] + [s.label for s in figure.series]
    rows: List[List[str]] = [header]
    for i, x in enumerate(xs):
        row = [f"{x:g}"]
        for s in figure.series:
            row.append(_format_value(s.ys[i]))
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    for r_index, row in enumerate(rows):
        lines.append("  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row)))
        if r_index == 0:
            lines.append("  ".join("-" * w for w in widths))
    for s in figure.series:
        lines.append(f"shape {s.label:>8}: {sparkline(s.ys)}")
    return "\n".join(lines)


def format_table1(rows: Sequence[Table1Row]) -> str:
    """Render Table 1 with the paper's values alongside the measured ones."""
    lines = ["Table 1: Job log characteristics (measured vs paper)"]
    header = [
        "Job Log",
        "jobs",
        "avg n_j",
        "paper",
        "avg e_j (s)",
        "paper",
        "max e_j (h)",
        "paper",
    ]
    body = []
    for row in rows:
        body.append(
            [
                row.log_name,
                str(row.job_count),
                f"{row.avg_nodes:.1f}",
                f"{row.paper_avg_nodes:g}" if row.paper_avg_nodes else "-",
                f"{row.avg_runtime:.0f}",
                f"{row.paper_avg_runtime:g}" if row.paper_avg_runtime else "-",
                f"{row.max_runtime_hours:.0f}",
                (
                    f"{row.paper_max_runtime_hours:g}"
                    if row.paper_max_runtime_hours
                    else "-"
                ),
            ]
        )
    table = [header] + body
    widths = [max(len(r[c]) for r in table) for c in range(len(header))]
    for index, row in enumerate(table):
        lines.append("  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row)))
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_pairs(title: str, pairs: Sequence[Tuple[str, str]]) -> str:
    """Render (name, value) pairs (Table 2 and ad-hoc parameter dumps)."""
    width = max(len(name) for name, _ in pairs)
    lines = [title]
    lines.extend(f"  {name.ljust(width)}  {value}" for name, value in pairs)
    return "\n".join(lines)


def format_headline(comparison: Dict[str, Tuple[float, float]]) -> str:
    """Render the a=0 vs a=1 endpoint comparison with improvement factors."""
    lines = ["Headline comparison (no prediction vs perfect prediction, U=0.9)"]
    for metric, (baseline, perfect) in comparison.items():
        if metric == "lost_work":
            factor = baseline / perfect if perfect > 0 else float("inf")
            lines.append(
                f"  {metric:>12}: {_format_value(baseline)} -> "
                f"{_format_value(perfect)}  (x{factor:.1f} reduction)"
            )
        else:
            delta = (perfect - baseline) * 100.0
            lines.append(
                f"  {metric:>12}: {_format_value(baseline)} -> "
                f"{_format_value(perfect)}  (+{delta:.1f} points)"
            )
    return "\n".join(lines)
