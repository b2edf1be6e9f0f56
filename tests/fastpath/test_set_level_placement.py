"""Set-level placement equals the per-node ranking it replaced.

Placement asks a scorer once per window for a sparse ``{node: score}``
map, and the trace-backed evaluator answers from one window query on the
failure index.  The oracle kept here is the ranking that came before: ask
the live predictor for every free node's failure probability, then

* flat — sort every free node by ``(score, node)`` and take the first
  ``size``;
* ring and mesh — score every valid block by the sum of its members'
  per-node scores.

The pruning bound is checked against the per-failing-node scan it
replaced, built from ``FailureTrace.in_window`` rather than the index.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster.nodeset import NodeSet
from repro.cluster.topology import FlatTopology, MeshTopology, RingTopology
from repro.core.fastpath import AnalyticalEvaluator
from repro.failures.events import FailureEvent, FailureTrace
from repro.prediction.trace import TracePredictor
from repro.scheduling.placement import fault_aware_scorer

NodeScore = Callable[[int, float, float], float]

#: Coarse grids make equal-time failures, repeat failures on one node and
#: empty or inverted windows common.
TIMES = [float(t) for t in range(0, 101, 10)]
DETECTABILITY = [0.0, 0.0, 0.2, 0.5, 0.5, 0.9, 1.0]
#: Mesh sizes that factor into more than one row.
MESH_NODES = [4, 6, 8, 9, 12, 16]


# ----------------------------------------------------------------------
# The per-node oracle
# ----------------------------------------------------------------------
def per_node_flat(free, size, start, end, score: NodeScore):
    if len(free) < size:
        return None
    ranked = sorted(free, key=lambda n: (score(n, start, end), n))
    return sorted(ranked[:size])


def per_node_ring(node_count, free, size, start, end, score: NodeScore):
    if len(free) < size:
        return None
    free_set = set(free)
    best: Optional[List[int]] = None
    best_score = float("inf")
    for origin in free:
        block = [(origin + k) % node_count for k in range(size)]
        if not all(n in free_set for n in block):
            continue
        total = sum(score(n, start, end) for n in block)
        if total < best_score or (
            total == best_score and best is not None and block < best
        ):
            best, best_score = sorted(block), total
    return best


def per_node_mesh(mesh: MeshTopology, free, size, start, end, score: NodeScore):
    if len(free) < size:
        return None
    free_set = set(free)
    best: Optional[List[int]] = None
    best_score = float("inf")
    for h, w in mesh._candidate_shapes(size):
        for top in range(mesh.height - h + 1):
            for left in range(mesh.width - w + 1):
                block = [
                    (top + dr) * mesh.width + (left + dc)
                    for dr in range(h)
                    for dc in range(w)
                ]
                if not all(n in free_set for n in block):
                    continue
                total = sum(score(n, start, end) for n in block)
                if total < best_score:
                    best, best_score = sorted(block), total
    return best


def per_node_select(topology, free, size, start, end, score: NodeScore):
    if isinstance(topology, FlatTopology):
        return per_node_flat(free, size, start, end, score)
    if isinstance(topology, RingTopology):
        return per_node_ring(topology.node_count, free, size, start, end, score)
    return per_node_mesh(topology, free, size, start, end, score)


def per_failing_node_bound(trace, predictor, size, start, end, node_count):
    """The pruning bound as a scan over every failing node's first
    detectable in-window failure."""
    if end <= start:
        return 1.0
    dirty = []
    for node in trace.nodes:
        for event in trace.in_window((node,), start, end):
            if predictor.is_detectable(event):
                dirty.append(
                    (event.time, event.event_id, predictor.detectability(event))
                )
                break
    deficit = size - (node_count - len(dirty))
    if deficit <= 0 or deficit > len(dirty):
        return 1.0
    dirty.sort(key=lambda d: (d[0], d[1]))
    return 1.0 - min(d[2] for d in dirty[: len(dirty) - deficit + 1])


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
def make_predictor(node_count, failures, accuracy):
    """A trace predictor over ``(time, node, p_x, event_id)`` failures with
    the given detectabilities (event ids are unique by construction)."""
    trace = FailureTrace(
        [FailureEvent(event_id=eid, time=t, node=n) for t, n, _, eid in failures]
    )
    predictor = TracePredictor(trace, accuracy=accuracy, seed=1)
    for _, _, px, eid in failures:
        predictor._detectability[eid] = px
    return trace, predictor


def make_topology(kind: str, node_count: int):
    topologies = {"flat": FlatTopology, "ring": RingTopology, "mesh": MeshTopology}
    return topologies[kind](node_count)


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(["flat", "ring", "mesh"]))
    if kind == "mesh":
        node_count = draw(st.sampled_from(MESH_NODES))
    else:
        node_count = draw(st.integers(min_value=1, max_value=12))
    count = draw(st.integers(min_value=0, max_value=24))
    event_ids = draw(st.permutations(range(1, count + 1)))
    failures = [
        (
            draw(st.sampled_from(TIMES)),
            draw(st.integers(min_value=0, max_value=node_count - 1)),
            draw(st.sampled_from(DETECTABILITY)),
            eid,
        )
        for eid in event_ids
    ]
    accuracy = draw(st.sampled_from([0.0, 0.5, 1.0]))
    free = sorted(draw(st.sets(st.integers(0, node_count - 1))))
    as_nodeset = draw(st.booleans())
    size = draw(st.integers(min_value=1, max_value=node_count))
    start = draw(st.sampled_from(TIMES))
    end = draw(st.sampled_from(TIMES))
    return kind, node_count, failures, accuracy, free, as_nodeset, size, start, end


def check(kind, node_count, failures, accuracy, free, as_nodeset, size, start, end):
    trace, predictor = make_predictor(node_count, failures, accuracy)
    evaluator = AnalyticalEvaluator(predictor, node_count)
    topology = make_topology(kind, node_count)
    free_nodes: Sequence[int] = NodeSet.from_iterable(free) if as_nodeset else free
    got = topology.select_partition(
        free_nodes, size, start, end, fault_aware_scorer(evaluator)
    )
    expected = per_node_select(
        topology, free, size, start, end, predictor.node_failure_probability
    )
    assert (list(got) if got is not None else None) == expected
    assert evaluator.best_case_probability(
        size, start, end
    ) == per_failing_node_bound(trace, predictor, size, start, end, node_count)


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(scenario=scenarios())
# A dirty node with p_x == 0 ranks with the clean ones.
@example(
    scenario=("flat", 4, [(10.0, 0, 0.0, 1)], 1.0, [0, 1, 2, 3], False, 2, 0.0, 50.0)
)
# Equal-time failures: the event id decides each node's first failure.
@example(
    scenario=(
        "flat", 4, [(10.0, 1, 0.9, 2), (10.0, 1, 0.2, 1), (10.0, 0, 0.5, 3)],
        1.0, [0, 1, 2], True, 3, 0.0, 50.0,
    )
)
# A node failing twice in the window is scored by its first failure.
@example(
    scenario=(
        "ring", 6, [(10.0, 2, 0.9, 1), (20.0, 2, 0.1, 2), (30.0, 4, 0.5, 3)],
        1.0, [0, 1, 2, 3, 4, 5], False, 3, 0.0, 50.0,
    )
)
# An empty window scores nothing.
@example(
    scenario=("mesh", 4, [(10.0, 0, 0.5, 1)], 1.0, [0, 1, 2, 3], True, 2, 50.0, 50.0)
)
def test_set_level_placement_matches_per_node_ranking(scenario):
    check(*scenario)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["flat", "ring", "mesh"]),
    node_count=st.sampled_from(MESH_NODES),
    data=st.data(),
)
def test_arbitrary_sparse_maps_match_per_node_ranking(kind, node_count, data):
    # Any non-negative score map, including explicit zeros and entries for
    # nodes that are not free, places like the per-node ranking.
    scores = data.draw(
        st.dictionaries(
            st.integers(0, node_count - 1),
            st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]),
        )
    )
    free = sorted(data.draw(st.sets(st.integers(0, node_count - 1))))
    size = data.draw(st.integers(1, node_count))
    free_nodes = NodeSet.from_iterable(free) if data.draw(st.booleans()) else free
    topology = make_topology(kind, node_count)
    got = topology.select_partition(
        free_nodes, size, 0.0, 1.0, lambda nodes, s, e: scores
    )
    expected = per_node_select(
        topology, free, size, 0.0, 1.0, lambda n, s, e: scores.get(n, 0.0)
    )
    assert (list(got) if got is not None else None) == expected


def test_window_query_is_memoised_and_time_ordered():
    failures = [(30.0, 0, 0.5, 1), (10.0, 2, 0.2, 3), (10.0, 1, 0.4, 2)]
    _, predictor = make_predictor(4, failures, 1.0)
    index = predictor.interval_index()
    firsts = index.window_firsts(0.0, 50.0)
    assert list(firsts) == [1, 2, 0]  # (time, event_id) order
    assert firsts[2] == (10.0, 3, 0.2)
    assert index.window_firsts(0.0, 50.0) is firsts
    assert index.window_firsts(50.0, 50.0) == {}
    assert index.window_firsts(50.0, 0.0) == {}


@pytest.mark.parametrize("accuracy", [0.0, 1.0])
def test_undetectable_failures_stay_out_of_the_window(accuracy):
    _, predictor = make_predictor(4, [(10.0, 0, 0.5, 1)], accuracy)
    firsts = predictor.interval_index().window_firsts(0.0, 50.0)
    assert (0 in firsts) == (accuracy >= 0.5)
