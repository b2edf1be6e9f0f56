"""Unit tests for the run-length :class:`NodeSet`.

The compatibility contract is what matters: wherever the codebase used a
sorted tuple/list of node indexes, a ``NodeSet`` with the same members
must behave identically — iteration, length, membership, indexing,
slicing, equality in both directions, and hashing.  Set algebra is
cross-checked against Python sets on randomized inputs.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import repro
from repro.cluster.nodeset import NodeSet, freeze_nodes


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def test_from_iterable_normalises_duplicates_and_order():
    ns = NodeSet.from_iterable([5, 1, 2, 2, 3, 9])
    assert list(ns) == [1, 2, 3, 5, 9]
    assert ns.runs == ((1, 4), (5, 6), (9, 10))


def test_constructor_rejects_unnormalised_runs():
    with pytest.raises(ValueError):
        NodeSet([(3, 3)])  # empty run
    with pytest.raises(ValueError):
        NodeSet([(0, 5), (5, 8)])  # adjacent (should be one run)
    with pytest.raises(ValueError):
        NodeSet([(0, 5), (2, 8)])  # overlapping


def test_interval_and_full():
    assert list(NodeSet.interval(3, 6)) == [3, 4, 5]
    assert not NodeSet.interval(6, 6)
    assert len(NodeSet.full(128)) == 128
    assert NodeSet.full(128).runs == ((0, 128),)


def test_from_iterable_passes_nodeset_through():
    ns = NodeSet.interval(0, 4)
    assert NodeSet.from_iterable(ns) is ns


# ----------------------------------------------------------------------
# Sequence protocol / tuple compatibility
# ----------------------------------------------------------------------
def test_sequence_protocol_matches_tuple():
    members = (0, 1, 2, 10, 11, 40)
    ns = NodeSet.from_sorted(members)
    assert len(ns) == len(members)
    assert tuple(ns) == members
    assert ns[0] == 0 and ns[3] == 10 and ns[-1] == 40
    assert 11 in ns and 12 not in ns and "x" not in ns
    with pytest.raises(IndexError):
        ns[6]


def test_step1_slicing_returns_nodeset():
    ns = NodeSet.from_sorted([0, 1, 2, 10, 11, 40])
    prefix = ns[:4]
    assert isinstance(prefix, NodeSet)
    assert list(prefix) == [0, 1, 2, 10]
    assert list(ns[2:5]) == [2, 10, 11]
    with pytest.raises(ValueError):
        ns[::2]


def test_equality_is_symmetric_with_tuples_and_lists():
    members = [3, 4, 5, 9]
    ns = NodeSet.from_sorted(members)
    assert ns == tuple(members) and tuple(members) == ns
    assert ns == members and members == ns
    assert ns != (3, 4, 5) and ns != (3, 4, 5, 8)
    assert ns == NodeSet.from_sorted(members)


def test_hash_matches_tuple_hash():
    members = (2, 3, 7)
    ns = NodeSet.from_sorted(members)
    assert hash(ns) == hash(members)
    assert {members: "x"}[ns] == "x"


def test_min_max_node():
    ns = NodeSet.from_sorted([4, 5, 20])
    assert ns.min_node == 4 and ns.max_node == 20
    with pytest.raises(ValueError):
        NodeSet().min_node
    with pytest.raises(ValueError):
        NodeSet().max_node


# ----------------------------------------------------------------------
# Set algebra, cross-checked against Python sets
# ----------------------------------------------------------------------
def test_set_algebra_matches_python_sets_randomized():
    rng = random.Random(42)
    for _ in range(200):
        a = {rng.randrange(64) for _ in range(rng.randrange(20))}
        b = {rng.randrange(64) for _ in range(rng.randrange(20))}
        na, nb = NodeSet.from_iterable(a), NodeSet.from_iterable(b)
        assert list(na | nb) == sorted(a | b)
        assert list(na & nb) == sorted(a & b)
        assert list(na - nb) == sorted(a - b)
        assert na.isdisjoint(nb) == a.isdisjoint(b)


@st.composite
def node_sets(draw):
    """Normalised run lists: gaps of at least one node between runs of
    one to eight nodes, so runs of two draws may touch, abut, nest or
    miss each other."""
    runs = []
    cursor = draw(st.integers(0, 4))
    for gap, width in draw(
        st.lists(st.tuples(st.integers(1, 4), st.integers(1, 8)), max_size=6)
    ):
        runs.append((cursor, cursor + width))
        cursor += width + gap
    return NodeSet(runs)


@given(a=node_sets(), b=node_sets(), widen=st.booleans())
@example(a=NodeSet(), b=NodeSet(), widen=False)
@example(a=NodeSet([(0, 3)]), b=NodeSet(), widen=False)
@example(a=NodeSet([(2, 5)]), b=NodeSet([(0, 2), (5, 7)]), widen=False)  # touching
@example(a=NodeSet([(0, 4)]), b=NodeSet([(0, 2)]), widen=False)  # covers a head
@example(a=NodeSet([(1, 3), (6, 8)]), b=NodeSet([(0, 4), (5, 9)]), widen=False)
def test_lowest_outside_is_the_difference_minimum(a, b, widen):
    if widen:
        b = b | a  # a subset of b whose runs may merge with a's
    rest = a.difference(b)
    got = a.lowest_outside(b)
    if rest:
        assert got == rest.min_node
    else:
        assert got is None


def test_only_nodeset_writes_runs():
    """``runs`` is a public slot for read speed, so nothing stops a write;
    one elsewhere would leave ``_size``, ``_starts`` and a cached hash
    out of step with it (and corrupt a set used as a key or booked in
    the ledger).  Only ``nodeset.py`` may assign an attribute so named."""
    src = Path(repro.__file__).resolve().parent
    writes = []
    for path in sorted(src.rglob("*.py")):
        if path.name == "nodeset.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Attribute) and sub.attr == "runs":
                        writes.append(f"{path.relative_to(src)}:{sub.lineno}")
    assert writes == []


def test_slicing_matches_list_randomized():
    rng = random.Random(43)
    for _ in range(100):
        members = sorted({rng.randrange(100) for _ in range(rng.randrange(30))})
        ns = NodeSet.from_sorted(members)
        lo = rng.randrange(len(members) + 1)
        hi = rng.randrange(len(members) + 1)
        assert list(ns[lo:hi]) == members[lo:hi]


# ----------------------------------------------------------------------
# freeze_nodes
# ----------------------------------------------------------------------
def test_freeze_nodes_passthrough_and_fallback():
    ns = NodeSet.interval(0, 3)
    assert freeze_nodes(ns) is ns
    t = (1, 2, 3)
    assert freeze_nodes(t) is t
    assert freeze_nodes([1, 2, 3]) == (1, 2, 3)
    assert isinstance(freeze_nodes([1, 2, 3]), tuple)
    # No normalisation: the given order (and any duplicate) is kept.
    assert freeze_nodes([3, 1, 2, 1]) == (3, 1, 2, 1)
