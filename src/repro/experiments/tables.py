"""Regeneration of the paper's tables.

* **Table 1** — job-log characteristics: average size (nodes), average
  runtime (s) and maximum runtime (h) for the NASA and SDSC logs.
* **Table 2** — simulation parameters: N, C, I, the a/U sweep ranges and
  the node downtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.experiments.config import (
    CHECKPOINT_INTERVAL,
    CHECKPOINT_OVERHEAD,
    CLUSTER_NODES,
    NODE_DOWNTIME,
)
from repro.workload.job import JobLog
from repro.workload.synthetic import log_by_name

#: The paper's Table 1 values, for side-by-side comparison.
PAPER_TABLE1 = {
    "nasa": {"avg_nodes": 6.3, "avg_runtime": 381.0, "max_runtime_hours": 12.0},
    "sdsc": {"avg_nodes": 9.7, "avg_runtime": 7722.0, "max_runtime_hours": 132.0},
}


@dataclass(frozen=True)
class Table1Row:
    """One row of Table 1: a log's aggregate characteristics."""

    log_name: str
    job_count: int
    avg_nodes: float
    avg_runtime: float
    max_runtime_hours: float
    paper_avg_nodes: Optional[float]
    paper_avg_runtime: Optional[float]
    paper_max_runtime_hours: Optional[float]


def table_1(
    logs: Optional[List[JobLog]] = None,
    seed: Optional[int] = None,
    job_count: Optional[int] = None,
) -> List[Table1Row]:
    """Compute Table 1 for the given (or bundled synthetic) logs.

    Tables are pure workload statistics: no simulation points run.
    """
    if logs is None:
        logs = [
            log_by_name("nasa", seed=seed, job_count=job_count),
            log_by_name("sdsc", seed=seed, job_count=job_count),
        ]
    rows = []
    for log in logs:
        stats = log.stats()
        reference = PAPER_TABLE1.get(log.name.split("[")[0], {})
        rows.append(
            Table1Row(
                log_name=log.name.upper(),
                job_count=stats.job_count,
                avg_nodes=stats.mean_size,
                avg_runtime=stats.mean_runtime,
                max_runtime_hours=stats.max_runtime_hours,
                paper_avg_nodes=reference.get("avg_nodes"),
                paper_avg_runtime=reference.get("avg_runtime"),
                paper_max_runtime_hours=reference.get("max_runtime_hours"),
            )
        )
    return rows


def table_2() -> List[Tuple[str, str]]:
    """The simulation-parameter table as (name, value) pairs."""
    return [
        ("N (nodes)", f"{CLUSTER_NODES}"),
        ("C (s)", f"{CHECKPOINT_OVERHEAD:g}"),
        ("I (s)", f"{CHECKPOINT_INTERVAL:g}"),
        ("a", "[0, 1]"),
        ("U", "[0, 1]"),
        ("downtime (s)", f"{NODE_DOWNTIME:g}"),
    ]
