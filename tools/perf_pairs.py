"""Compare two checkouts on the repository benchmark in alternating pairs.

Runs ``--pairs`` pairs of the benchmark command of ``BENCHMARK.json``
(``perfbench/run.py ... --trace 0``) at its ``run_seconds``, one run per
checkout in each pair, alternating which side runs first.  Every run must print the same sha256
lines and report ``correct`` with no failed operation.  Then, for each
end-to-end metric, it prints each side's median and quartiles, how many
pairs the change won (ties count for neither side) and a verdict:

* ``gain``: the change won at least nine tenths of the pairs and its
  median is better than the base's by more than the base's IQR (the
  distance between its quartiles);
* ``worse``: the change's median is worse than the base's by more than
  the metric's bound in ``BENCHMARK.json`` (a fraction of the base's
  median);
* ``unresolved``: the base's IQR is wider than that bound and not every
  run of the change reads better than every run of the base;
* ``within bound``: otherwise.

Usage, from the root of the changed checkout, with the parent commit
checked out (``git worktree add`` or ``git archive``) in ``../parent``::

    python3 tools/perf_pairs.py --base ../parent --change . \\
        --workload scale --seed 1 --pairs 10

Standard library only.  Exits non-zero when the digests disagree or a run
fails, so the numbers are never read off runs that replayed different
trajectories.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple


class Run(NamedTuple):
    """One benchmark run: its digest lines and its metric values."""

    digests: Tuple[str, ...]
    correct: bool
    failed: int
    metrics: Dict[str, float]


class Row(NamedTuple):
    """The summary of one metric over the pairs."""

    name: str
    unit: str
    base: Tuple[float, float, float]  # q1, median, q3
    change: Tuple[float, float, float]
    wins: int
    pairs: int
    verdict: str


def parse_run(stdout: str) -> Run:
    """Read the sha256 lines and the final JSON result line of one run."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("benchmark printed nothing")
    result = json.loads(lines[-1])
    return Run(
        digests=tuple(line for line in lines[:-1] if " sha256 " in line),
        correct=bool(result["correct"]),
        failed=int(result["failed"]),
        metrics={
            name: float(entry["value"])
            for name, entry in result["metrics"].items()
        },
    )


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` by linear interpolation between order
    statistics (numpy's default percentile rule)."""
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q1, median, q3)


def summarize(
    pairs: Sequence[Tuple[Run, Run]], end_to_end: Sequence[Dict[str, Any]]
) -> List[Row]:
    """One row per end-to-end metric over ``(base, change)`` pairs.

    Args:
        pairs: The runs of each pair, base first.
        end_to_end: ``BENCHMARK.json``'s ``end_to_end`` entries (``name``,
            ``unit``, ``better``, ``bound``).
    """
    if not pairs:
        raise ValueError("no pairs to summarize")
    rows = []
    for spec in end_to_end:
        name = spec["name"]
        # Signed so that a larger ``gain`` is always better.
        sign = 1.0 if spec["better"] == "higher" else -1.0
        base = [b.metrics[name] for b, _ in pairs]
        change = [c.metrics[name] for _, c in pairs]
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        b_q = quartiles(base)
        c_q = quartiles(change)
        gain = sign * (c_q[1] - b_q[1])
        iqr = b_q[2] - b_q[0]
        allowed = spec["bound"] * abs(b_q[1])
        if 10 * wins >= 9 * len(pairs) and gain > iqr:
            verdict = "gain"
        elif -gain > allowed:
            verdict = "worse"
        elif iqr > allowed and not all(
            sign * (c - b) > 0 for c in change for b in base
        ):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        rows.append(
            Row(name, spec["unit"], b_q, c_q, wins, len(pairs), verdict)
        )
    return rows


def format_rows(rows: Sequence[Row]) -> str:
    """The summary as a Markdown table."""
    out = [
        "| metric | base median (q1–q3) | change median (q1–q3) | change "
        "| wins | verdict |",
        "|---|---|---|---|---|---|",
    ]
    for row in rows:
        b_q1, b_med, b_q3 = row.base
        c_q1, c_med, c_q3 = row.change
        delta = (c_med - b_med) / b_med if b_med else 0.0
        out.append(
            f"| {row.name} ({row.unit}) | {b_med:.4g} ({b_q1:.4g}–{b_q3:.4g}) "
            f"| {c_med:.4g} ({c_q1:.4g}–{c_q3:.4g}) | {delta:+.1%} "
            f"| {row.wins}/{row.pairs} | {row.verdict} |"
        )
    return "\n".join(out)


def run_once(
    checkout: Path, command: Sequence[str], args: Sequence[str]
) -> Run:
    proc = subprocess.run(
        [*command, *args],
        cwd=checkout,
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{checkout}: benchmark exited {proc.returncode}:\n{proc.stderr}"
        )
    return parse_run(proc.stdout)


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    bench_args = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    pairs = []
    digests = set()
    for i in range(args.pairs):
        sides = [("base", args.base), ("change", args.change)]
        if i % 2:
            sides.reverse()
        runs = {
            side: run_once(path, spec["command"], bench_args)
            for side, path in sides
        }
        pair = (runs["base"], runs["change"])
        for side, run in runs.items():
            if not run.correct or run.failed:
                print(f"pair {i + 1}: {side} run failed {run.failed} checks")
                return 1
            digests.add(run.digests)
        if len(digests) != 1:
            print(f"pair {i + 1}: sha256 lines disagree: {sorted(digests)}")
            return 1
        timings = " ".join(
            f"{name} {pair[0].metrics[name]:.4g}/{pair[1].metrics[name]:.4g}"
            for name in ("setup_s", "sim_s", "peak_rss_mb")
        )
        first = sides[0][0]
        print(f"pair {i + 1} ({first} first), base/change: {timings}", flush=True)
        pairs.append(pair)
    print("\n".join(next(iter(digests))))
    print(format_rows(summarize(pairs, spec["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
