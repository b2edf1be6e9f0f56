"""Self-tests of the benchmark.

Run from the repository root::

    python3 -m pytest perfbench -q

Every workload runs at a tiny size, untraced and traced, and must pass its
output checks and print exactly the metrics, with the units, that
``BENCHMARK.json`` declares.  Synthetic spans check self-time folding, and
the tracing wrappers must come off the library again.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import run  # noqa: E402  (importing it puts the library's src/ on sys.path)
import spans  # noqa: E402
from replays import WORKLOADS  # noqa: E402

#: Every workload at a size that replays in a fraction of a second.
TINY = {
    name: dataclasses.replace(workload, inputs=2, jobs=40)
    for name, workload in WORKLOADS.items()
}


def declared(kind: str) -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_its_checks_and_prints_every_metric(
    name, trace, tmp_path, monkeypatch
):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    result = json.loads(run.run(TINY[name], seed=5, seconds=0.0, trace=trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    units = {metric: entry["unit"] for metric, entry in metrics.items()}
    assert units == declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(entry["value"], (int, float)) for entry in metrics.values())
    if trace:
        assert metrics["trace.missing_methods"]["value"] == 0
        self_sum = sum(
            entry["value"] for metric, entry in metrics.items() if metric.endswith("self_s")
        )
        assert self_sum == pytest.approx(metrics["trace.sim_s"]["value"], rel=1e-9)


def test_a_seed_gives_the_same_digests_every_time(capsys):
    for _ in range(2):
        run.run(TINY["sdsc"], seed=2, seconds=0.0, trace=False)
    digests = [line for line in capsys.readouterr().out.splitlines() if "sha256" in line]
    assert len(digests) == 4 and digests[:2] == digests[2:]


def test_self_time_is_duration_minus_children():
    # Parent [0, 10) with children [1, 4) and [5, 9): 10 - 3 - 4 = 3.
    assert spans.self_times([0, 1, 5], [10, 4, 9], [-1, 0, 0]).tolist() == [3, 3, 4]


def test_self_time_subtracts_only_direct_children():
    # A grandchild's time comes off its parent, not off the root as well.
    assert spans.self_times([0, 1, 2], [10, 6, 4], [-1, 0, 1]).tolist() == [5, 3, 2]


def test_call_from_inside_the_same_operation_is_not_a_new_span():
    class Ledger:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = spans.Tracer()
    Ledger.outer = tracer.wrap("cluster.op", "outer", Ledger.outer)
    Ledger.inner = tracer.wrap("cluster.op", "inner", Ledger.inner)
    assert Ledger().outer() == 2
    assert spans.name_counts(tracer) == {"cluster.op:outer": 1, "cluster.op:inner": 0}


def test_wrappers_come_off_and_absent_methods_are_reported():
    from repro.checkpointing.policies import CheckpointPolicy, CooperativePolicy
    from repro.cluster.reservations import ReservationLedger

    classes = (ReservationLedger, CheckpointPolicy, CooperativePolicy)
    before = {cls: dict(vars(cls)) for cls in classes}
    points = spans.TRACE_POINTS + (
        ("gone", "repro.cluster.reservations", "ReservationLedger", ("no_such_method",)),
        ("gone", "repro.no_such_module", "Anything", ("run",)),
    )
    installed = spans.install(spans.Tracer(), points=points)
    wrapped = vars(CooperativePolicy)["decide"]
    installed.remove()
    assert wrapped is not before[CooperativePolicy]["decide"]
    assert {cls: dict(vars(cls)) for cls in classes} == before
    assert installed.missing == [
        "repro.cluster.reservations.ReservationLedger.no_such_method",
        "repro.no_such_module.Anything",
    ]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nasa", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
