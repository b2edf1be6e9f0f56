"""One-call regeneration of the paper's entire evaluation as a text report.

``generate_report`` runs everything — both tables, all twelve figures, the
headline endpoints and the promise-honesty audit — against freshly prepared
(or caller-supplied) contexts, and renders one plain-text document.  It is
what ``probqos report`` prints and what an archival run would check in next
to EXPERIMENTS.md.

The returned report is byte-identical across runs with the same inputs —
that is the point of an archival artifact.  Wall-clock timing therefore
never enters the document: the elapsed line goes to ``elapsed_to`` (the
CLI passes stderr), not into the report.  ``tests/test_ambient_state.py``
checks this under a skewed clock, and ``test_byte_identical_across_runs``
across two runs.
"""

from __future__ import annotations

import time
from typing import List, Optional, TextIO

from repro.core.system import simulate
from repro.experiments.config import ExperimentSetup
from repro.experiments.figures import FigureCatalog
from repro.experiments.reporting import (
    format_figure,
    format_headline,
    format_pairs,
    format_table1,
)
from repro.experiments.runner import ExperimentContext
from repro.experiments.tables import table_1, table_2
from repro.obs.audit import audit_outcomes, calibration_gap

_RULE = "=" * 72


def generate_report(
    job_count: int = 1500,
    seed: int = 20050628,
    figures: Optional[List[int]] = None,
    catalog: Optional[FigureCatalog] = None,
    jobs: int = 1,
    elapsed_to: Optional[TextIO] = None,
) -> str:
    """Regenerate tables, figures and audits; return the full text report.

    Args:
        job_count: Jobs per synthetic log (10,000 = paper size).
        seed: Master seed for all synthetic inputs.
        figures: Figure numbers to include (default: all twelve).
        catalog: Optional pre-warmed catalog (its memoised contexts are
            reused; ``job_count``/``seed`` are ignored for workloads it
            already holds).
        jobs: Worker processes for the sweep grids (1 = sequential).
        elapsed_to: Where to write the human-facing "generated in Ns"
            line, or None to skip it.  Kept out of the returned report so
            identical inputs yield byte-identical artifacts.

    Returns:
        The report as one string (stable across reruns).
    """
    started = time.time()  # qoslint: disable=QOS102 -- report progress timing: written to elapsed_to only, never into the artifact
    if catalog is None:
        catalog = FigureCatalog(
            sdsc=ExperimentContext.prepare(
                ExperimentSetup(workload="sdsc", job_count=job_count, seed=seed),
                jobs=jobs,
            ),
            nasa=ExperimentContext.prepare(
                ExperimentSetup(workload="nasa", job_count=job_count, seed=seed),
                jobs=jobs,
            ),
        )
    figure_ids = figures if figures is not None else list(range(1, 13))

    sections: List[str] = []
    sections.append(_RULE)
    sections.append(
        "probqos evaluation report — Probabilistic QoS Guarantees for "
        "Supercomputing Systems (DSN 2005)"
    )
    sections.append(f"jobs per log: {job_count}   seed: {seed}")
    sections.append(_RULE)

    sections.append(format_table1(table_1(seed=seed, job_count=job_count)))
    sections.append("")
    sections.append(format_pairs("Table 2: Simulation parameters", table_2()))

    for figure_id in figure_ids:
        sections.append("")
        sections.append(format_figure(catalog.figure(figure_id)))

    sections.append("")
    sections.append(format_headline(catalog.headline_comparison("sdsc")))

    # Promise honesty at the endpoints.
    ctx = catalog.context("sdsc")
    sections.append("")
    sections.append("Promise honesty (work-weighted |promised - kept|, Brier):")
    for accuracy in (0.0, 1.0):
        result = simulate(ctx.config(accuracy, 0.5), ctx.log, ctx.failures)
        gap = calibration_gap(result.outcomes)
        score = audit_outcomes(result.outcomes).report().brier
        sections.append(
            f"  a={accuracy:3.1f}: gap={gap:.4f}  brier={score:.4f}"
        )

    sections.append(_RULE)
    if elapsed_to is not None:
        elapsed = time.time() - started  # qoslint: disable=QOS102 -- report progress timing: written to elapsed_to only, never into the artifact
        elapsed_to.write(f"(report generated in {elapsed:.1f}s)\n")
    return "\n".join(sections)
