"""Perf regression gates for the incremental free-time profile.

Marked ``perf`` and living outside the tier-1 ``testpaths``, so they run
only when invoked explicitly:

    PYTHONPATH=src python -m pytest benchmarks/perf -m perf -q

The thresholds are deliberately below the speedups we actually measure
(BENCH_ledger.json records ~an order of magnitude on the deep-queue
scenario) so the gate trips on real regressions, not timer noise.
"""

from __future__ import annotations

import pytest

from ledger_bench import (
    PRESETS,
    bench_find_slot,
    bench_negotiation,
    bench_scale,
)

SEED = 20050628


@pytest.mark.perf
def test_deep_queue_find_slot_at_least_3x_faster_than_seed():
    result = bench_find_slot(PRESETS["default"], seed=SEED, repeats=3)
    assert result["answers_identical"]
    assert result["speedup"] >= 3.0, (
        f"deep-queue find_slot speedup degraded to {result['speedup']:.2f}x "
        f"(current {result['current']['median_s']:.4f}s vs seed "
        f"{result['seed']['median_s']:.4f}s)"
    )


@pytest.mark.perf
def test_negotiation_dialogue_not_slower_than_seed():
    result = bench_negotiation(PRESETS["default"], seed=SEED, repeats=3)
    assert result["answers_identical"]
    assert result["speedup"] >= 1.0, (
        f"negotiation dialogue slower than the seed ledger "
        f"({result['speedup']:.2f}x)"
    )


@pytest.mark.perf
def test_scale_replay_at_least_10x_faster_than_seed_at_10k_nodes():
    result = bench_scale(PRESETS["default"], seed=SEED, repeats=3)
    assert result["checksums_identical"]
    speedup = result["speedup_vs_seed"]["10000"]
    assert speedup >= 10.0, (
        f"10k-node replay throughput vs seed degraded to {speedup:.1f}x "
        f"(acceptance gate is 10x)"
    )
    # Peak RSS must stay sub-linear in cluster width: 100x the nodes may
    # not cost 100x the memory (measured growth is ~1.5x — interpreter
    # baseline dominates and the ledger stores only live bookings).
    assert result["rss"]["rss_growth"] < result["rss"]["node_growth"] / 10.0, (
        f"peak RSS grew {result['rss']['rss_growth']:.1f}x over a "
        f"{result['rss']['node_growth']:.0f}x node-count increase"
    )
    # The NodeSet reserve fast path must actually skip normalisation work.
    assert result["reserve_normalization"]["speedup"] >= 1.2, (
        f"pre-normalised reserve no faster than list input: "
        f"{result['reserve_normalization']['speedup']:.2f}x"
    )
