"""Keeps the perf harness from bit-rotting: run it at smoke scale.

The real benchmarks (``benchmarks/perf/``, marker ``perf``) are excluded
from tier-1; this test only asserts the harness runs end to end and emits
a well-formed ``BENCH_ledger.json`` — no timing assertions, so it stays
immune to CI noise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_perf_harness_smoke(tmp_path):
    out = tmp_path / "BENCH_ledger.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "benchmarks" / "perf" / "run.py"),
            "--smoke",
            "--repeats",
            "1",
            "--out",
            str(out),
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr

    report = json.loads(out.read_text())
    assert report["schema"] == 5
    assert report["preset"] == "smoke"
    scenarios = report["scenarios"]
    for name in ("find_slot_deep_queue", "negotiation_dialogue"):
        data = scenarios[name]
        assert data["answers_identical"]
        assert data["current"]["median_s"] > 0
        assert data["seed"]["median_s"] > 0
        assert data["speedup"] > 0
        assert len(data["current"]["samples_s"]) == 1
        # Schema 2: every scenario embeds counter totals from one
        # instrumented (non-timed) rerun.
        assert data["obs"]["cluster.ledger.find_slot_calls"] > 0

    # Schema 3: the figures_grid scenario (sequential vs pool vs warm
    # cache).  No timing assertions — only identity and plausibility.
    grid = scenarios["figures_grid"]
    assert grid["answers_identical"]
    assert grid["sequential"]["median_s"] > 0
    assert grid["parallel"]["median_s"] > 0
    assert grid["warm_cache"]["median_s"] > 0
    assert grid["speedup_warm"] > 0
    # The warm rerun resolved every point from the on-disk cache.
    assert grid["cache"]["hits"] == grid["params"]["points"]
    assert grid["cache"]["misses"] == 0
    # The obs block is the merge of per-worker registries: every job of
    # every grid point must be accounted for.
    assert grid["obs"]["core.system.jobs_completed"] == (
        grid["params"]["grid_jobs"] * grid["params"]["points"]
    )

    # Schema 4: the negotiation fast-path scenario.  Its ≥10x gates
    # against the probe loop live in tests/fastpath/test_reduction_gates.py;
    # here only the shape and that pruning happened.
    fastpath = scenarios["negotiation_fastpath"]
    assert fastpath["analytical"]["median_s"] > 0
    assert fastpath["pruned"] > 0
    assert fastpath["obs"]["negotiation.dialogue.dialogues"] == (
        fastpath["params"]["jobs"]
    )

    # Schema 5: the scale scenario (streamed big-cluster replays in
    # per-config subprocesses).  Shape and identity only — the ≥10x
    # throughput gate needs the default preset and lives with the
    # perf-marked benchmarks.
    scale = scenarios["scale"]
    assert scale["checksums_identical"]
    node_counts = scale["params"]["node_counts"]
    configs = scale["configs"]
    for n in node_counts:
        cfg = configs[f"current-heap-n{n}"]
        assert cfg["events"] == 2 * scale["params"]["jobs"]
        assert cfg["events_per_s_median"] > 0
        assert cfg["peak_rss_bytes"] > 0
        assert cfg["peak_bookings"] > 0
    for n in scale["params"]["seed_node_counts"]:
        assert f"seed-heap-n{n}" in configs
        assert scale["speedup_vs_seed"][str(n)] > 0
    norm = scale["reserve_normalization"]
    assert norm["list"]["median_s"] > 0
    assert norm["nodeset"]["median_s"] > 0
    assert norm["speedup"] > 0
