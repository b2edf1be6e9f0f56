"""Unit tests for allocation topologies."""

from __future__ import annotations

import pytest

from repro.cluster.topology import (
    FlatTopology,
    RingTopology,
    topology_by_name,
)


class TestFlat:
    def test_any_subset_valid(self):
        topo = FlatTopology(8)
        assert topo.select_partition([1, 3, 5, 7], 3, 0.0, 1.0) == [1, 3, 5]

    def test_insufficient_nodes(self):
        topo = FlatTopology(8)
        assert topo.select_partition([1, 2], 3, 0.0, 1.0) is None

    def test_scorer_selects_best(self):
        topo = FlatTopology(8)
        scorer = lambda free, s, e: {1: 0.9, 3: 0.1, 5: 0.5, 7: 0.2}
        assert topo.select_partition([1, 3, 5, 7], 2, 0.0, 1.0, scorer) == [3, 7]

    def test_result_sorted(self):
        topo = FlatTopology(8)
        scorer = lambda free, s, e: {node: 8.0 - node for node in free}
        assert topo.select_partition([1, 3, 5], 2, 0.0, 1.0, scorer) == [3, 5]

    def test_scorer_picks_preferred_nodes(self):
        # Prefer high indexes: every node but the top two is scored dirty.
        scorer = lambda free, s, e: {node: 1.0 for node in free if node < 6}
        topo = FlatTopology(8)
        assert topo.select_partition(list(range(8)), 2, 0.0, 10.0, scorer) == [6, 7]

    def test_scorer_ties_break_by_index(self):
        scorer = lambda free, s, e: {node: 0.0 for node in free}
        topo = FlatTopology(8)
        assert topo.select_partition(list(range(8)), 2, 0.0, 10.0, scorer) == [0, 1]

    def test_scores_outside_the_free_set_are_ignored(self):
        scorer = lambda free, s, e: {0: 0.9, 2: 0.9, 3: 0.1}
        topo = FlatTopology(8)
        assert topo.select_partition([1, 3, 4], 2, 0.0, 1.0, scorer) == [1, 4]


class TestRing:
    def test_contiguous_block_required(self):
        topo = RingTopology(8)
        # Free nodes 0,1,2,5,6: a 3-block exists at 0-2 but not at 5-6.
        assert topo.select_partition([0, 1, 2, 5, 6], 3, 0.0, 1.0) == [0, 1, 2]

    def test_fragmentation_blocks_allocation(self):
        topo = RingTopology(8)
        # 4 nodes free but no 3 contiguous (with wraparound 6,7 adjacent 0?
        # choose a set with max run of 2).
        free = [0, 1, 3, 4]
        assert topo.select_partition(free, 3, 0.0, 1.0) is None

    def test_wraparound_block(self):
        topo = RingTopology(8)
        # 6,7,0 form a contiguous wraparound block.
        assert topo.select_partition([0, 6, 7], 3, 0.0, 1.0) == [0, 6, 7]

    def test_scorer_picks_lowest_total(self):
        topo = RingTopology(8)
        free = [0, 1, 2, 3]
        scorer = lambda free, s, e: {0: 1.0, 1: 1.0}
        # Blocks of 2: (0,1)=2.0, (1,2)=1.0, (2,3)=0.0 -> pick (2,3).
        assert topo.select_partition(free, 2, 0.0, 1.0, scorer) == [2, 3]

    def test_insufficient_nodes(self):
        assert RingTopology(8).select_partition([0], 2, 0.0, 1.0) is None


class TestFactory:
    def test_flat_lookup(self):
        assert isinstance(topology_by_name("flat", 8), FlatTopology)

    def test_ring_lookup(self):
        assert isinstance(topology_by_name("RING", 8), RingTopology)

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            topology_by_name("hypercube", 8)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            FlatTopology(0)


class TestMesh:
    def test_default_factoring_is_square(self):
        from repro.cluster.topology import MeshTopology

        mesh = MeshTopology(16)
        assert (mesh.height, mesh.width) == (4, 4)

    def test_rectangle_allocation(self):
        from repro.cluster.topology import MeshTopology

        mesh = MeshTopology(16)
        block = mesh.select_partition(list(range(16)), 6, 0.0, 1.0)
        # Smallest rectangle covering 6 on a 4x4 mesh is 2x3.
        assert block == [0, 1, 2, 4, 5, 6]

    def test_internal_fragmentation_possible(self):
        from repro.cluster.topology import MeshTopology

        mesh = MeshTopology(16)
        block = mesh.select_partition(list(range(16)), 5, 0.0, 1.0)
        # 5 does not tile: the smallest covering rectangle has 6 nodes.
        assert len(block) == 6

    def test_fragmented_mesh_blocks_allocation(self):
        from repro.cluster.topology import MeshTopology

        mesh = MeshTopology(16)
        # A checkerboard: 8 nodes free, but no 2-node rectangle exists.
        checkerboard = [i for i in range(16) if (i // 4 + i % 4) % 2 == 0]
        assert mesh.select_partition(checkerboard, 2, 0.0, 1.0) is None

    def test_scorer_picks_cheapest_rectangle(self):
        from repro.cluster.topology import MeshTopology

        mesh = MeshTopology(16)
        scorer = lambda free, s, e: {node: 1.0 for node in range(8)}
        block = mesh.select_partition(list(range(16)), 4, 0.0, 1.0, scorer)
        assert all(n >= 8 for n in block)

    def test_explicit_width(self):
        from repro.cluster.topology import MeshTopology

        mesh = MeshTopology(16, width=8)
        assert (mesh.height, mesh.width) == (2, 8)

    def test_bad_width_rejected(self):
        import pytest as _pytest

        from repro.cluster.topology import MeshTopology

        with _pytest.raises(ValueError):
            MeshTopology(16, width=5)

    def test_factory_lookup(self):
        from repro.cluster.topology import MeshTopology, topology_by_name

        assert isinstance(topology_by_name("mesh", 16), MeshTopology)
