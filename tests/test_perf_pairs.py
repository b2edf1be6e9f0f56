"""The summary of ``tools/perf_pairs.py`` on canned benchmark output."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "perf_pairs.py"
_SPEC = importlib.util.spec_from_file_location("perf_pairs", _PATH)
assert _SPEC is not None and _SPEC.loader is not None
perf_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_pairs)

END_TO_END = [
    {"name": "sim_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "qos", "unit": "1", "better": "higher", "bound": 0.005},
]


def stdout(sim_s, setup_s=0.1, qos=0.9, failed=0):
    """What ``perfbench/run.py --trace 0`` prints, cut to three metrics."""
    result = {
        "correct": not failed,
        "attempted": 3000,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "sim_s": {"value": sim_s, "unit": "s"},
            "qos": {"value": qos, "unit": "1"},
        },
    }
    return "\n".join(
        [
            "reference sha256 ab12",
            "scale: seed 1, 24 inputs x 1000 jobs, 3 passes, 0.6 s wall",
            "trajectory sha256 cd34",
            json.dumps(result),
        ]
    )


def pairs(base, change, **kwargs):
    return [
        (perf_pairs.parse_run(stdout(b, **kwargs)), perf_pairs.parse_run(stdout(c, **kwargs)))
        for b, c in zip(base, change)
    ]


def rows(base, change, **kwargs):
    return {
        row.name: row
        for row in perf_pairs.summarize(pairs(base, change, **kwargs), END_TO_END)
    }


def test_parse_run_reads_digests_and_metrics():
    run = perf_pairs.parse_run(stdout(1.5, failed=2))
    assert run.digests == ("reference sha256 ab12", "trajectory sha256 cd34")
    assert (run.correct, run.failed) == (False, 2)
    assert run.metrics == {"setup_s": 0.1, "sim_s": 1.5, "qos": 0.9}


def test_quartiles_interpolate_like_numpy():
    assert perf_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert perf_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_nine_wins_of_ten_beyond_the_iqr_is_a_gain():
    base = [1.00 + 0.01 * i for i in range(10)]  # IQR 0.045
    change = [b - 0.1 for b in base]
    change[0] = 1.05  # one lost pair
    row = rows(base, change)["sim_s"]
    assert (row.wins, row.pairs) == (9, 10)
    assert row.verdict == "gain"
    assert row.base[1] == pytest.approx(1.045)
    # Identical values: no pair won, nothing moved.
    assert rows(base, change)["qos"].wins == 0
    assert rows(base, change)["qos"].verdict == "within bound"


def test_eight_wins_or_a_gain_inside_the_iqr_is_no_gain():
    base = [1.00 + 0.01 * i for i in range(10)]  # IQR 0.045
    eight = [b - 0.1 for b in base]
    eight[0] = eight[1] = 1.5
    assert rows(base, eight)["sim_s"].verdict == "within bound"
    inside = [b - 0.01 for b in base]
    row = rows(base, inside)["sim_s"]
    assert row.wins == 10 and row.verdict == "within bound"


def test_a_median_worse_than_the_bound_is_worse():
    base = [1.0, 1.0, 1.0, 1.0]
    assert rows(base, [1.3] * 4)["sim_s"].verdict == "worse"
    assert rows(base, [1.1] * 4)["sim_s"].verdict == "within bound"
    # A higher-is-better metric falling past its bound.
    lower_qos = [
        (perf_pairs.parse_run(stdout(1.0)), perf_pairs.parse_run(stdout(1.0, qos=0.8)))
    ] * 4
    row = perf_pairs.summarize(lower_qos, END_TO_END)[2]
    assert row.name == "qos" and row.verdict == "worse"


def test_spread_wider_than_the_bound_is_unresolved():
    base = [1.0, 2.0, 1.0, 2.0]
    change = [1.2, 1.8, 1.1, 1.9]
    assert rows(base, change)["sim_s"].verdict == "unresolved"
    # Unless every change run beats every base run; the medians still
    # differ by less than the base's IQR, so it is no gain either.
    assert rows(base, [0.9, 0.8, 0.9, 0.8])["sim_s"].verdict == "within bound"


def test_the_table_has_one_row_per_metric():
    table = perf_pairs.format_rows(list(rows([1.0, 1.1], [0.9, 1.0]).values()))
    lines = table.splitlines()
    assert len(lines) == 2 + len(END_TO_END)
    assert lines[2].startswith("| sim_s (s) | 1.05 (1.025–1.075) | 0.95 ")
