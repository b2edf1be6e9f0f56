"""Communication topologies and their allocation constraints.

The paper's experiments use "a flat (all-to-all) communication architecture"
— any set of free nodes forms a valid partition.  Machines like BlueGene/L
instead carve partitions out of a torus, constraining which node sets are
allocatable.  The topology abstraction lets placement honour such
constraints; the torus here is the 1-D ring simplification (contiguous
blocks with wraparound), enough to study the fragmentation effects the
paper attributes to size mix (Section 5.1) without modelling full 3-D
midplane allocation.

Placement is a set-level question — the paper's scheduler "uses event
prediction to break ties among otherwise equivalent partitions" — so a
scorer is asked once per window for a sparse ``{node: score}`` map
(:data:`WindowScorer`), never once per node.
"""

from __future__ import annotations

import abc
from typing import Callable, Container, List, Mapping, Optional, Sequence

from repro.cluster.nodeset import NodeSet

#: Placement scorer: ``(free_nodes, start, end) -> {node: score}`` for the
#: window.  Scores are non-negative badness (the fault-aware scorer's are
#: failure probabilities); the map is sparse — a node it omits scores 0.0
#: — and entries for nodes outside ``free_nodes`` are ignored.
WindowScorer = Callable[[Sequence[int], float, float], Mapping[int, float]]


class Topology(abc.ABC):
    """Allocation-shape constraint over node indexes ``0..N-1``."""

    def __init__(self, node_count: int) -> None:
        if node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {node_count}")
        self.node_count = node_count

    @abc.abstractmethod
    def select_partition(
        self,
        free_nodes: Sequence[int],
        size: int,
        start: float,
        end: float,
        scorer: Optional[WindowScorer] = None,
    ) -> Optional[Sequence[int]]:
        """Choose a valid partition of ``size`` from ``free_nodes``.

        Args:
            free_nodes: Ascending node indexes free over the window.
            size: Required partition size.
            start: Window start (passed to the scorer).
            end: Window end (passed to the scorer).
            scorer: Optional :data:`WindowScorer`, asked once for the
                window; the topology picks the valid partition minimising
                its members' total score, breaking ties toward lower
                indexes.

        Returns:
            An ascending node sequence (a sorted list, or a run-length
            :class:`NodeSet` when the flat topology is given one — the
            two compare equal for the same members), or None if no valid
            partition exists (even though enough nodes may be free, their
            *shape* may not fit).
        """


def _block_score(scores: Mapping[int, float], block: Sequence[int]) -> float:
    """Total score of ``block``, summed in block order."""
    return sum(scores.get(node, 0.0) for node in block)


class FlatTopology(Topology):
    """All-to-all network: every node subset is a valid partition.

    With a scorer, the partition takes the clean free nodes (score 0.0) in
    ascending order, then the dirty ones by ``(score, node)``: the same
    nodes as ranking every free node by ``(score, node)``, at the cost of
    sorting the few dirty ones only.  Given a :class:`NodeSet`, it
    returns one, so the partition reaches the booking and the start
    without a copy.
    """

    def select_partition(
        self,
        free_nodes: Sequence[int],
        size: int,
        start: float,
        end: float,
        scorer: Optional[WindowScorer] = None,
    ) -> Optional[Sequence[int]]:
        if len(free_nodes) < size:
            return None
        is_set = isinstance(free_nodes, NodeSet)
        scores = scorer(free_nodes, start, end) if scorer is not None else None
        dirty = None
        if scores:
            members: Container[int] = free_nodes if is_set else set(free_nodes)
            dirty = sorted(
                (score, node)
                for node, score in scores.items()
                if score and node in members
            )
        if not dirty:
            # A NodeSet stays in run-length form: on a 100k-node cluster
            # the partition is O(runs), never a boxed-int list.
            return free_nodes[:size] if is_set else list(free_nodes[:size])
        dirty_nodes = {node for _, node in dirty}
        clean_needed = min(size, len(free_nodes) - len(dirty))
        chosen: List[int] = []
        if clean_needed:
            for node in free_nodes:
                if node not in dirty_nodes:
                    chosen.append(node)
                    if len(chosen) == clean_needed:
                        break
        chosen.extend(node for _, node in dirty[: size - clean_needed])
        chosen.sort()
        return NodeSet.from_sorted(chosen) if is_set else chosen


class RingTopology(Topology):
    """1-D torus: partitions are contiguous blocks (with wraparound).

    Models allocation-shape pressure: odd-sized jobs fragment the ring, so
    a request can fail even when enough nodes are free in total — the
    effect the paper credits for SDSC's extra "temporal fragmentation".
    """

    def select_partition(
        self,
        free_nodes: Sequence[int],
        size: int,
        start: float,
        end: float,
        scorer: Optional[WindowScorer] = None,
    ) -> Optional[List[int]]:
        if len(free_nodes) < size:
            return None
        free_set = set(free_nodes)
        scores = scorer(free_nodes, start, end) if scorer is not None else {}
        best: Optional[List[int]] = None
        best_score = float("inf")
        for origin in free_nodes:
            block = [(origin + k) % self.node_count for k in range(size)]
            if not all(n in free_set for n in block):
                continue
            if scorer is None:
                return sorted(block)
            score = _block_score(scores, block)
            if score < best_score or (
                score == best_score and best is not None and block < best
            ):
                best, best_score = sorted(block), score
        return best


class MeshTopology(Topology):
    """2-D mesh: partitions are contiguous axis-aligned rectangles.

    The closest planar analogue of BlueGene-style allocation: a job of size
    ``s`` needs an ``h x w`` rectangle of free nodes with ``h * w >= s``
    (the smallest such rectangle by area, then by perimeter).  Rectangles
    cannot wrap.  Node ``(r, c)`` has index ``r * width + c``.

    Note the mesh may return *more* than ``size`` nodes (the whole
    rectangle): that surplus is the machine's internal fragmentation, which
    the job occupies but cannot use — exactly how rectangular allocators
    waste capacity on awkward sizes.

    Args:
        node_count: Total nodes; must factor as ``height * width``.
        width: Mesh width; defaults to the largest divisor of
            ``node_count`` not exceeding its square root's complement
            (i.e. the most square arrangement).
    """

    def __init__(self, node_count: int, width: Optional[int] = None) -> None:
        super().__init__(node_count)
        if width is None:
            width = 1
            for candidate in range(1, int(node_count**0.5) + 1):
                if node_count % candidate == 0:
                    width = node_count // candidate
        if width < 1 or node_count % width != 0:
            raise ValueError(
                f"width {width} does not tile {node_count} nodes"
            )
        self.width = width
        self.height = node_count // width

    def _candidate_shapes(self, size: int) -> List[tuple]:
        """(h, w) rectangles with h*w >= size, smallest waste first."""
        shapes = []
        for h in range(1, self.height + 1):
            w = -(-size // h)  # ceil(size / h)
            if w <= self.width:
                shapes.append((h * w - size, h + w, h, w))
        shapes.sort()
        return [(h, w) for _, _, h, w in shapes]

    def select_partition(
        self,
        free_nodes: Sequence[int],
        size: int,
        start: float,
        end: float,
        scorer: Optional[WindowScorer] = None,
    ) -> Optional[List[int]]:
        if len(free_nodes) < size:
            return None
        free_set = set(free_nodes)
        scores = scorer(free_nodes, start, end) if scorer is not None else {}
        best: Optional[List[int]] = None
        best_score = float("inf")
        for h, w in self._candidate_shapes(size):
            for top in range(self.height - h + 1):
                for left in range(self.width - w + 1):
                    block = [
                        (top + dr) * self.width + (left + dc)
                        for dr in range(h)
                        for dc in range(w)
                    ]
                    if not all(n in free_set for n in block):
                        continue
                    if scorer is None:
                        return sorted(block)
                    score = _block_score(scores, block)
                    if score < best_score:
                        best, best_score = sorted(block), score
            if best is not None and scorer is None:
                break
        return best


def topology_by_name(name: str, node_count: int) -> Topology:
    """Factory: ``"flat"`` (paper default), ``"ring"`` or ``"mesh"``
    (BG/L-style contiguity constraints)."""
    builders = {"flat": FlatTopology, "ring": RingTopology, "mesh": MeshTopology}
    try:
        builder = builders[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown topology {name!r}; available: {sorted(builders)}"
        ) from None
    return builder(node_count)
