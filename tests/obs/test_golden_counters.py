"""Golden obs counters: every counter, gauge and sampler row of a set of
small simulations must reproduce ``golden_counters.json`` exactly.

The fixture was captured from the metrics-registry implementation these
plain component counters replaced.  It also holds the registry's four
histograms and the per-kind ``sim.engine.handler_seconds.*`` timers
(sample counts only: timer values are wall clock), which were deleted
because nothing read them; :data:`DELETED` names them and the test
checks they are the only difference.

The cases cover counters the CI counts gate never exercises: cancelled
events, restart probes, kills, lost wall seconds, evacuations,
pull-forward attempts, online-predictor alarms and restores from a
checkpoint with a recovery time.  Each case also pins an
``outcomes_sha256``: a digest of every job's outcome and of the
aggregate metrics, so EASY, evacuation, opportunistic start, restores and
the online predictor keep their per-job trajectories too.

Three component runs outside a simulation pin the ledger's and the
negotiator's work counters, which no simulation case moves off zero
(``find_slot`` calls, probes, prefilter rejects, pruned candidates):
``find_slot`` probes against a deep queue, negotiation dialogues
against a deep queue, and the fast path's picky near-full-cluster
dialogues.

Regenerate (only when a change is *meant* to move a counter) from the
repository root with ``PYTHONPATH=src python -m
tests.obs.test_golden_counters``.  The writer keeps the committed values
of the deleted metrics, which the code can no longer capture.  With
``--moved`` it writes nothing and prints one line per counter, gauge,
component entry, outcomes digest and sample column that differs from the
committed fixture.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List

import pytest

from repro.cluster.reservations import ReservationLedger
from repro.core.easy import EasyBackfillSystem
from repro.core.system import ProbabilisticQoSSystem
from repro.experiments.config import ExperimentSetup
from repro.experiments.runner import ExperimentContext, estimate_horizon
from repro.failures.generator import (
    FailureModelSpec,
    generate_failure_trace,
    generate_raw_log,
)
from repro.prediction.online import OnlinePredictor, OnlinePredictorConfig
from repro.workload.synthetic import log_by_name
from tests.cluster.test_profile_equivalence import build_deep_ledger, run_dialogues
from tests.fastpath.test_reduction_gates import run_fastpath_dialogues

FIXTURE = Path(__file__).with_name("golden_counters.json")
REPO = Path(__file__).resolve().parents[2]

#: Sampler cadence, sim-seconds.
INTERVAL = 1800.0

_EVACUATE = {
    "proactive_evacuation": True,
    "evacuation_threshold": 0.2,
    "checkpoint_policy": "periodic",
}

#: name -> workload, job count, failure rate (per day), a, U, options.
CASES = {
    "nasa_conservative": dict(workload="nasa", accuracy=0.7, user=0.5),
    "sdsc_conservative": dict(workload="sdsc", accuracy=0.7, user=0.9),
    "sdsc_opportunistic": dict(
        workload="sdsc", accuracy=0.9, user=0.5,
        overrides={"opportunistic_start": True},
    ),
    "nasa_evacuation": dict(
        workload="nasa", accuracy=0.9, user=0.5, overrides=_EVACUATE
    ),
    "sdsc_evacuation": dict(
        workload="sdsc", accuracy=0.9, user=0.9, overrides=_EVACUATE
    ),
    "nasa_easy": dict(
        workload="nasa", accuracy=0.7, user=0.5, easy=True,
        overrides={"checkpoint_policy": "periodic"},
    ),
    "sdsc_easy": dict(
        workload="sdsc", accuracy=0.7, user=0.9, easy=True,
        overrides={"checkpoint_policy": "periodic"},
    ),
    # An alarm threshold under the quiet-node hazard makes every
    # declined offer's jump query raise alarms.
    "sdsc_online": dict(workload="sdsc", accuracy=0.7, user=0.99, online=True),
    # Periodic checkpoints under churn: restarts restore from a checkpoint
    # and pay R before compute resumes.
    "sdsc_restore": dict(
        workload="sdsc", accuracy=0.7, user=0.9,
        overrides={"recovery_time": 600.0, "checkpoint_policy": "periodic"},
    ),
}
JOBS = 40
SEED = 5
FAILURES_PER_DAY = 40.0

#: ``figure 7 --job-count 40 --seed 5 --obs``: counters summed over the
#: figure's distinct points.
FIGURE = ("7", "--job-count", "40", "--seed", "5")

#: Registry histograms and timers with no consumer, deleted.
DELETED = (
    "cluster.ledger.probe_depth",
    "negotiation.dialogue.offers_per_job",
    "negotiation.dialogue.accepted_rank",
    "scheduling.fcfs.restart_delay_candidates",
)
DELETED_PREFIX = "sim.engine.handler_seconds."

#: Seed of the component runs.
COMPONENT_SEED = 20050628


def find_slot_deep_queue() -> dict:
    """Ledger counters of 15 ``find_slot`` probes, with no mutation
    between them, against 40 bookings packed on 32 nodes."""
    ledger = build_deep_ledger(ReservationLedger, 32, 40, COMPONENT_SEED)
    horizon = max(r.end for r in ledger.reservations())
    rng = random.Random(COMPONENT_SEED + 1)
    for _ in range(15):
        ledger.find_slot(
            rng.randint(1, 16),
            rng.uniform(600.0, 6.0 * 3600.0),
            rng.uniform(0.0, horizon),
        )
    return ledger.counters()


def negotiation_dialogue() -> dict:
    """Ledger, negotiator and evaluator counters of 8 dialogues against
    20 bookings packed on 32 nodes."""
    ledger = build_deep_ledger(ReservationLedger, 32, 20, COMPONENT_SEED)
    counters = run_dialogues(ledger, 32, 8, COMPONENT_SEED)[1]
    return {**ledger.counters(), **counters}


def negotiation_fastpath() -> dict:
    """Negotiator, evaluator and predictor counters of 12 picky dialogues
    on 32 nodes."""
    return run_fastpath_dialogues(32, 12, COMPONENT_SEED)[1]


#: name -> counters of one component run.
COMPONENTS = {
    "find_slot_deep_queue": find_slot_deep_queue,
    "negotiation_dialogue": negotiation_dialogue,
    "negotiation_fastpath": negotiation_fastpath,
}


def golden_context(case) -> ExperimentContext:
    """The case's workload and a failure trace dense enough to kill jobs."""
    setup = ExperimentSetup(workload=case["workload"], job_count=JOBS, seed=SEED)
    log = log_by_name(setup.workload, seed=SEED, job_count=JOBS)
    log = log.scaled_sizes(setup.node_count)
    failures = generate_failure_trace(
        estimate_horizon(log, setup.node_count),
        spec=FailureModelSpec(
            nodes=setup.node_count, rate_per_day=FAILURES_PER_DAY
        ),
        seed=SEED,
    )
    return ExperimentContext.prepare(setup, log=log, failures=failures)


def golden_system(case):
    """The case's system, ready to run."""
    ctx = golden_context(case)
    predictor = None
    config = ctx.config(
        case["accuracy"], case["user"], **case.get("overrides", {})
    )
    if case.get("online"):
        raw = generate_raw_log(
            ctx.failures, ctx.failures.events[-1].time,
            spec=FailureModelSpec(nodes=config.node_count), seed=SEED,
        )
        predictor = OnlinePredictor(
            raw, health=None,
            config=OnlinePredictorConfig(alarm_threshold=0.0005),
        )
    cls = EasyBackfillSystem if case.get("easy") else ProbabilisticQoSSystem
    return cls(
        config, ctx.log, ctx.failures, predictor=predictor,
        sample_interval=INTERVAL,
    )


def outcomes_digest(result) -> str:
    """sha256 over the ``repr`` of every job's outcome fields, by job id,
    and of the aggregate metrics."""
    lines = []
    for o in result.outcomes:
        g = o.guarantee
        lines.append(repr((
            o.job.job_id,
            None if g is None else g.probability,
            None if g is None else g.deadline,
            o.first_start,
            o.last_start,
            o.finish,
            o.failures,
            o.lost_node_seconds,
            o.checkpoints_performed,
            o.checkpoints_skipped,
            o.checkpoint_overhead,
            o.evacuations,
        )))
    lines.append(repr(dataclasses.astuple(result.metrics)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def table(rows):
    """Sampler rows as ``(columns, [[time, value or None, ...], ...])``."""
    columns = sorted({name for row in rows for name in row["metrics"]})
    return columns, [
        [row["time"]] + [row["metrics"].get(name) for name in columns]
        for row in rows
    ]


@functools.lru_cache(maxsize=None)
def run_case(name):
    """The case's result and sampler rows, run once per process."""
    system = golden_system(CASES[name])
    return system.run(), system.sampler.rows


@functools.lru_cache(maxsize=None)
def figure_obs() -> dict:
    """The obs report metrics of the golden figure run."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    for var in ("REPRO_BENCH_JOBS", "REPRO_SEED", "REPRO_FULL"):
        env.pop(var, None)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "figure_obs.json")
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "figure", *FIGURE, "--obs", path],
            check=True, stdout=subprocess.DEVNULL, env=env, cwd=str(REPO),
        )
        with open(path) as fh:
            return json.load(fh)["metrics"]


def _kept(name: str) -> bool:
    base = name[: -len(".count")] if name.endswith(".count") else name
    return base not in DELETED and not base.startswith(DELETED_PREFIX)


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_fixture_differs_only_by_deleted_metrics(golden):
    """The only fixture metrics the code no longer produces are the
    deleted histograms and timers, all of them sample counts."""
    for case in list(golden["cases"].values()) + [golden["figure"]]:
        assert {n for n in case["histogram_counts"] if _kept(n)} == set()
        for name in list(case["counters"]) + list(case["gauges"]):
            assert _kept(name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_reproduces_golden(golden, name):
    expected = golden["cases"][name]
    result, rows = run_case(name)
    assert set(result.obs) == {"counters", "gauges"}
    assert result.obs["counters"] == expected["counters"]
    assert result.obs["gauges"] == expected["gauges"]
    assert outcomes_digest(result) == expected["outcomes_sha256"]
    columns, samples = table(rows)
    keep = [i for i, c in enumerate(expected["sample_columns"]) if _kept(c)]
    assert columns == [expected["sample_columns"][i] for i in keep]
    assert samples == [
        [row[0]] + [row[1 + i] for i in keep] for row in expected["samples"]
    ]


def test_metric_names_follow_the_scheme():
    """``<layer>.<component>.<name>``: lowercase, dot-separated, at least
    three components; counters never go negative."""
    scheme = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+){2,}$")
    obs = run_case("sdsc_conservative")[0].obs
    for name in list(obs["counters"]) + list(obs["gauges"]):
        assert scheme.match(name), name
    assert min(obs["counters"].values()) >= 0


def test_figure_aggregate_reproduces_golden(golden):
    expected = golden["figure"]
    metrics = figure_obs()
    assert set(metrics) == {"counters", "gauges"}
    assert metrics["counters"] == expected["counters"]
    assert metrics["gauges"] == expected["gauges"]


@pytest.mark.parametrize("name", sorted(COMPONENTS))
def test_component_run_reproduces_golden(golden, name):
    assert COMPONENTS[name]() == golden["components"][name]


def test_regenerate_on_the_unchanged_tree_rewrites_the_fixture(tmp_path):
    """The writer's output is the committed fixture, byte for byte: the
    capture agrees with it and the merge keeps the deleted metrics."""
    out = tmp_path / FIXTURE.name
    regenerate(out)
    assert out.read_bytes() == FIXTURE.read_bytes()


def test_moved_reports_every_doctored_value_and_writes_nothing(
    tmp_path, capsys
):
    """``--moved`` against a doctored copy of the fixture names exactly
    the doctored values, and leaves both fixtures as they were."""
    with open(FIXTURE) as fh:
        doc = json.load(fh)
    case = doc["cases"]["nasa_easy"]
    case["counters"]["sim.engine.scheduled"] += 1
    case["gauges"]["sim.engine.pending_total"] = 7.0
    case["outcomes_sha256"] = "0" * 64
    column = case["sample_columns"].index("core.system.running_jobs")
    case["samples"][2][1 + column] = -1
    doc["figure"]["counters"]["zz.test.only"] = 1
    doc["components"]["negotiation_fastpath"]["negotiation.dialogue.probes"] = 0
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(doc))
    before, committed = doctored.read_bytes(), FIXTURE.read_bytes()

    report_moved(doctored)

    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed] == [
        "components.negotiation_fastpath.negotiation.dialogue.probes",
        "figure.counters.zz.test.only",
        "cases.nasa_easy.counters.sim.engine.scheduled",
        "cases.nasa_easy.gauges.sim.engine.pending_total",
        "cases.nasa_easy.outcomes_sha256",
        "cases.nasa_easy.samples.core.system.running_jobs",
    ]
    assert printed[1] == "figure.counters.zz.test.only: 1 -> None"
    assert printed[-1].startswith(
        "cases.nasa_easy.samples.core.system.running_jobs: 1 of "
    )
    assert doctored.read_bytes() == before
    assert FIXTURE.read_bytes() == committed


def test_moved_is_empty_on_the_committed_fixture():
    with open(FIXTURE) as fh:
        assert moved(json.load(fh), _capture()) == []


def test_merge_writes_moved_values_and_keeps_deleted_ones():
    gone = DELETED_PREFIX + "finish.count"
    committed = {
        "components": {"r": {"a.b.f": 0}},
        "figure": {"counters": {}, "gauges": {}, "histogram_counts": {DELETED[0]: 3}},
        "cases": {"k": {
            "counters": {"a.b.c": 0, "a.b.d": 1}, "gauges": {},
            "histogram_counts": {DELETED[0]: 3},
            "sample_columns": ["a.b.c", gone], "samples": [[0.0, 0, 2], [1.0, 1, 5]],
        }},
    }
    doc = {
        "components": {"r": {"a.b.f": 0.0, "a.b.g": 1}},
        "figure": {"counters": {}, "gauges": {}, "histogram_counts": {}},
        "cases": {"k": {
            "counters": {"a.b.c": 0.0, "a.b.d": 2, "a.b.e": 0.0}, "gauges": {},
            "histogram_counts": {},
            "sample_columns": ["a.b.c"], "samples": [[0.0, 0.0], [1.0, 3]],
        }},
    }
    merged = _merge(committed, doc)
    assert json.dumps(merged["components"]["r"]) == '{"a.b.f": 0, "a.b.g": 1}'
    case = merged["cases"]["k"]
    assert json.dumps(case["counters"]) == '{"a.b.c": 0, "a.b.d": 2, "a.b.e": 0.0}'
    assert case["histogram_counts"] == {DELETED[0]: 3}
    assert case["sample_columns"] == ["a.b.c", gone]
    assert json.dumps(case["samples"]) == "[[0.0, 0, 2], [1.0, 3, 5]]"


def _capture() -> dict:
    """The fixture document as the code captures it: no deleted metric."""
    doc = {
        "interval": INTERVAL,
        "cases": {},
        "components": {name: run() for name, run in COMPONENTS.items()},
    }
    for name in sorted(CASES):
        result, rows = run_case(name)
        columns, samples = table(rows)
        doc["cases"][name] = {
            "counters": result.obs["counters"],
            "gauges": result.obs["gauges"],
            "histogram_counts": {},
            "outcomes_sha256": outcomes_digest(result),
            "sample_columns": columns,
            "samples": samples,
        }
    metrics = figure_obs()
    doc["figure"] = {
        "counters": metrics["counters"],
        "gauges": metrics["gauges"],
        "histogram_counts": {},
    }
    return doc


def _spelled_as(committed: dict, values: dict) -> dict:
    """``values``, each one equal to its ``committed`` value written as
    committed (``0`` for ``0.0``)."""
    return {
        name: (
            committed[name]
            if name in committed and committed[name] == value
            else value
        )
        for name, value in values.items()
    }


def _merge(committed: dict, doc: dict) -> dict:
    """``doc`` merged into the ``committed`` fixture: unchanged values keep
    their committed spelling, and the deleted metrics keep their
    committed values (each histogram count, and each deleted sample
    column while the case samples at the committed times)."""
    pairs = [(committed["figure"], doc["figure"])] + [
        (committed["cases"][name], case)
        for name, case in doc["cases"].items()
        if name in committed["cases"]
    ]
    for old, new in pairs:
        new["histogram_counts"] = old["histogram_counts"]
        for kind in ("counters", "gauges"):
            new[kind] = _spelled_as(old[kind], new[kind])
    components = committed.get("components", {})
    for name, counters in doc["components"].items():
        doc["components"][name] = _spelled_as(components.get(name, {}), counters)
    for old, new in pairs[1:]:
        if [r[0] for r in old["samples"]] != [r[0] for r in new["samples"]]:
            continue
        deleted = [c for c in old["sample_columns"] if not _kept(c)]
        columns = sorted(new["sample_columns"] + deleted)
        rows = []
        for was, row in zip(old["samples"], new["samples"]):
            was = dict(zip(old["sample_columns"], was[1:]))
            merged = _spelled_as(was, dict(zip(new["sample_columns"], row[1:])))
            merged.update((c, was[c]) for c in deleted)
            rows.append([row[0]] + [merged[c] for c in columns])
        new["sample_columns"], new["samples"] = columns, rows
    return doc


_MISSING = object()


def _moved_values(where: str, old: dict, new: dict) -> List[str]:
    """A line per kept name whose value differs (``0 == 0.0``) or that
    only one side has."""
    return [
        f"{where}.{name}: {old.get(name)!r} -> {new.get(name)!r}"
        for name in sorted(set(old) | set(new))
        if _kept(name) and old.get(name, _MISSING) != new.get(name, _MISSING)
    ]


def _columns(case: dict) -> dict:
    """Sample column name -> its values, one per row."""
    rows = case.get("samples", [])
    return {
        column: [row[1 + i] for row in rows]
        for i, column in enumerate(case.get("sample_columns", []))
    }


def moved(committed: dict, doc: dict) -> List[str]:
    """One line per value of the capture ``doc`` that differs from the
    ``committed`` fixture: counters, gauges, component entries, outcome
    digests, and sample columns (with how many rows differ and the first).
    Deleted metrics, which the capture cannot hold, are not compared."""
    old_parts, new_parts = committed["components"], doc["components"]
    lines = []
    for name in sorted(set(old_parts) | set(new_parts)):
        lines += _moved_values(
            f"components.{name}", old_parts.get(name, {}), new_parts.get(name, {})
        )
    old_cases, new_cases = committed["cases"], doc["cases"]
    pairs = [("figure", committed["figure"], doc["figure"])] + [
        (f"cases.{name}", old_cases.get(name, {}), new_cases.get(name, {}))
        for name in sorted(set(old_cases) | set(new_cases))
    ]
    for where, old, new in pairs:
        for kind in ("counters", "gauges"):
            lines += _moved_values(
                f"{where}.{kind}", old.get(kind, {}), new.get(kind, {})
            )
        digest = "outcomes_sha256"
        if old.get(digest) != new.get(digest):
            lines.append(f"{where}.{digest}: {old.get(digest)} -> {new.get(digest)}")
        times = [row[0] for row in new.get("samples", [])]
        if [row[0] for row in old.get("samples", [])] != times:
            lines.append(f"{where}.samples: sampled at different times")
            continue
        was, now = _columns(old), _columns(new)
        for column in sorted(set(was) | set(now)):
            before = was.get(column, [None] * len(times))
            after = now.get(column, [None] * len(times))
            rows = [i for i in range(len(times)) if before[i] != after[i]]
            if rows and _kept(column):
                first = rows[0]
                lines.append(
                    f"{where}.samples.{column}: {len(rows)} of {len(times)} "
                    f"rows, first at t={times[first]!r} "
                    f"({before[first]!r} -> {after[first]!r})"
                )
    return lines


def regenerate(path: Path = FIXTURE) -> None:
    """Write the fixture document to ``path``: the capture, with the
    committed fixture's deleted metrics merged in."""
    with open(FIXTURE) as fh:
        committed = json.load(fh)
    doc = _merge(committed, _capture())
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def report_moved(fixture: Path = FIXTURE) -> None:
    """Print :func:`moved` against ``fixture``; write nothing."""
    with open(fixture) as fh:
        committed = json.load(fh)
    for line in moved(committed, _capture()):
        print(line)


if __name__ == "__main__":
    if sys.argv[1:] == ["--moved"]:
        report_moved()
    elif sys.argv[1:]:
        sys.exit("usage: python -m tests.obs.test_golden_counters [--moved]")
    else:
        regenerate()
