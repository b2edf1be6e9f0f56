"""Run-length encoded node sets for big-cluster placements.

At paper scale (128 nodes) a partition is a short tuple of indexes and
every representation is cheap.  At 10k-100k nodes the substrate would
otherwise materialise 100k-element Python lists on every ``free_nodes``
probe and every booking — ~1 MB and a full scan per query.  A
:class:`NodeSet` stores the same set as sorted half-open ``[start, stop)``
runs: a first-fit placement of 64k nodes is a handful of ranges, and
set algebra (union / intersection / difference) runs in O(runs), not
O(nodes).

Compatibility contract
----------------------
The rest of the codebase passes node sets around as sorted tuples or
lists (``DeadlineOffer.nodes``, ``QoSGuarantee.planned_nodes``; a
ledger booking's ``Reservation.nodes`` is always a ``NodeSet``).
``NodeSet`` is a drop-in for those uses:

* it iterates ascending, supports ``len``, ``in``, indexing and
  step-1 slicing (``free[:size]`` stays a ``NodeSet``);
* ``==`` compares elementwise against any sequence of ints, so a
  ``NodeSet`` equals the tuple/list holding the same nodes — this is what
  keeps the seed-ledger equivalence benches and the existing tests
  working unchanged;
* ``hash`` matches ``hash(tuple(self))`` so equal values stay
  interchangeable as dict keys (computed lazily, O(n) once).

Determinism: all operations are pure functions of the run lists; no set
or dict iteration is involved anywhere (lint rule QOS103).
"""

from __future__ import annotations

import bisect
import sys
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union, overload

#: A half-open interval of node indexes: ``start <= n < stop``.
Run = Tuple[int, int]

#: Above every node index: ``(node, _NO_NODE)`` sorts after every run
#: starting at ``node``.
_NO_NODE = sys.maxsize


def _runs_from_sorted(values: Sequence[int]) -> List[Run]:
    """Group an ascending, duplicate-free index sequence into runs."""
    runs: List[Run] = []
    if not values:
        return runs
    run_start = prev = values[0]
    for v in values[1:]:
        if v == prev + 1:
            prev = v
            continue
        runs.append((run_start, prev + 1))
        run_start = prev = v
    runs.append((run_start, prev + 1))
    return runs


class NodeSet:
    """An immutable set of node indexes stored as sorted interval runs.

    ``runs`` is the normalised ``(start, stop)`` half-open run tuple: a
    plain slot rather than a property, since every booking, start and
    release reads it.  Treat it as read-only.
    """

    __slots__ = ("runs", "_starts", "_size", "_hash")

    def __init__(self, runs: Iterable[Run] = ()) -> None:
        """Build from *normalised* runs: sorted, non-empty, non-adjacent,
        non-overlapping.  Use :meth:`from_iterable` for arbitrary input."""
        run_list = list(runs)
        size = 0
        prev_stop: Optional[int] = None
        for start, stop in run_list:
            if stop <= start:
                raise ValueError(f"empty or inverted run [{start}, {stop})")
            if prev_stop is not None and start <= prev_stop:
                raise ValueError(
                    f"runs not normalised: [{start}, {stop}) touches or "
                    f"overlaps the previous run ending at {prev_stop}"
                )
            size += stop - start
            prev_stop = stop
        self.runs: Tuple[Run, ...] = tuple(run_list)
        # Parallel array of run starts for O(log runs) membership tests,
        # built on the first test.
        self._starts: Optional[List[int]] = None
        self._size = size
        self._hash: Optional[int] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_runs(cls, runs: Sequence[Run], size: Optional[int] = None) -> "NodeSet":
        """Build from runs known to be normalised (unchecked), holding
        ``size`` nodes when the caller knows it: the fast path for
        results of set algebra and of the ledger's sweeps."""
        node_set = cls.__new__(cls)
        node_set.runs = tuple(runs)
        node_set._starts = None
        if size is None:
            size = 0
            for start, stop in runs:
                size += stop - start
        node_set._size = size
        node_set._hash = None
        return node_set

    @classmethod
    def from_iterable(cls, nodes: Iterable[int]) -> "NodeSet":
        """Normalise arbitrary (unsorted, possibly duplicated) indexes."""
        if isinstance(nodes, NodeSet):
            return nodes
        unique = sorted(set(nodes))
        return cls.from_runs(_runs_from_sorted(unique), len(unique))

    @classmethod
    def from_sorted(cls, values: Sequence[int]) -> "NodeSet":
        """Build from an ascending, duplicate-free sequence (unchecked)."""
        return cls.from_runs(_runs_from_sorted(values), len(values))

    @classmethod
    def interval(cls, start: int, stop: int) -> "NodeSet":
        """The contiguous set ``{start, ..., stop - 1}`` (empty if degenerate)."""
        if stop <= start:
            return cls()
        return cls(((start, stop),))

    @classmethod
    def full(cls, node_count: int) -> "NodeSet":
        """Every node of an ``node_count``-wide cluster."""
        return cls.interval(0, node_count)

    # ------------------------------------------------------------------
    # Sequence protocol (ascending iteration order)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __iter__(self) -> Iterator[int]:
        for start, stop in self.runs:
            yield from range(start, stop)

    def __contains__(self, node: object) -> bool:
        if not isinstance(node, int):
            return False
        if self._starts is None:
            self._starts = [r[0] for r in self.runs]
        idx = bisect.bisect_right(self._starts, node) - 1
        return idx >= 0 and node < self.runs[idx][1]

    @overload
    def __getitem__(self, index: int) -> int: ...

    @overload
    def __getitem__(self, index: slice) -> "NodeSet": ...

    def __getitem__(self, index: Union[int, slice]) -> Union[int, "NodeSet"]:
        if isinstance(index, slice):
            # The members with iteration rank in [start, stop), walked
            # here rather than in a helper: a placement takes one slice
            # per offer.
            start, stop, step = index.indices(self._size)
            if step != 1:
                raise ValueError("NodeSet slicing supports step 1 only")
            if stop <= start:
                return NodeSet()
            runs: List[Run] = []
            skip = start
            take = stop - start
            for run_start, run_stop in self.runs:
                width = run_stop - run_start
                if skip >= width:
                    skip -= width
                    continue
                lo = run_start + skip
                skip = 0
                hi = min(run_stop, lo + take)
                runs.append((lo, hi))
                take -= hi - lo
                if take == 0:
                    break
            return NodeSet.from_runs(runs, stop - start)
        if index < 0:
            index += self._size
        if not 0 <= index < self._size:
            raise IndexError("NodeSet index out of range")
        remaining = index
        for run_start, run_stop in self.runs:
            width = run_stop - run_start
            if remaining < width:
                return run_start + remaining
            remaining -= width
        raise IndexError("NodeSet index out of range")  # pragma: no cover

    # ------------------------------------------------------------------
    # Equality / hashing (tuple-compatible)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, NodeSet):
            return self.runs == other.runs
        if isinstance(other, (tuple, list)):
            if len(other) != self._size:
                return False
            it = iter(self)
            for value in other:
                if value != next(it):
                    return False
            return True
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(self))  # qoslint: disable=QOS110 -- dict/set-key hashing only, must equal tuple.__hash__; never persisted or fed to sim state
        return self._hash

    def __repr__(self) -> str:
        parts = ", ".join(
            str(a) if b == a + 1 else f"{a}-{b - 1}" for a, b in self.runs
        )
        return f"NodeSet([{parts}])"

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def run_count(self) -> int:
        return len(self.runs)

    @property
    def min_node(self) -> int:
        """Smallest member (O(1)); raises ValueError on the empty set."""
        if not self.runs:
            raise ValueError("empty NodeSet has no minimum")
        return self.runs[0][0]

    @property
    def max_node(self) -> int:
        """Largest member (O(1)); raises ValueError on the empty set."""
        if not self.runs:
            raise ValueError("empty NodeSet has no maximum")
        return self.runs[-1][1] - 1

    def to_list(self) -> List[int]:
        """Materialise as an ascending list (the legacy representation)."""
        return list(self)

    # ------------------------------------------------------------------
    # Set algebra (all O(runs of self + runs of other))
    # ------------------------------------------------------------------
    def union(self, other: "NodeSet") -> "NodeSet":
        merged: List[Run] = []
        for start, stop in sorted(self.runs + other.runs):
            if merged and start <= merged[-1][1]:
                if stop > merged[-1][1]:
                    merged[-1] = (merged[-1][0], stop)
            else:
                merged.append((start, stop))
        return NodeSet.from_runs(merged)

    def intersection(self, other: "NodeSet") -> "NodeSet":
        result: List[Run] = []
        i = j = 0
        a, b = self.runs, other.runs
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                result.append((lo, hi))
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return NodeSet.from_runs(result)

    def difference(self, other: "NodeSet") -> "NodeSet":
        result: List[Run] = []
        j = 0
        b = other.runs
        for start, stop in self.runs:
            cursor = start
            while j < len(b) and b[j][1] <= cursor:
                j += 1
            k = j
            while k < len(b) and b[k][0] < stop:
                if b[k][0] > cursor:
                    result.append((cursor, b[k][0]))
                cursor = max(cursor, b[k][1])
                if cursor >= stop:
                    break
                k += 1
            if cursor < stop:
                result.append((cursor, stop))
        return NodeSet.from_runs(result)

    def lowest_outside(self, other: "NodeSet") -> Optional[int]:
        """The smallest member missing from ``other``, or None when this
        set is a subset of it: ``(self - other).min_node`` without
        building the difference, one bisection of ``other``'s runs per
        run of this set."""
        b = other.runs
        for lo, hi in self.runs:
            # The last run of other starting at or before lo, if any.
            j = bisect.bisect_right(b, (lo, _NO_NODE)) - 1
            if j < 0 or b[j][1] <= lo:
                return lo
            cursor = b[j][1]
            while cursor < hi:
                j += 1
                if j == len(b) or b[j][0] > cursor:
                    return cursor
                cursor = b[j][1]
        return None

    def __or__(self, other: "NodeSet") -> "NodeSet":
        return self.union(other)

    def __and__(self, other: "NodeSet") -> "NodeSet":
        return self.intersection(other)

    def __sub__(self, other: "NodeSet") -> "NodeSet":
        return self.difference(other)

    def isdisjoint(self, other: "NodeSet") -> bool:
        i = j = 0
        a, b = self.runs, other.runs
        while i < len(a) and j < len(b):
            if a[i][1] <= b[j][0]:
                i += 1
            elif b[j][1] <= a[i][0]:
                j += 1
            else:
                return False
        return True


def freeze_nodes(nodes: Iterable[int]) -> Sequence[int]:
    """Freeze a node collection for storage on immutable records.

    ``NodeSet`` and tuple inputs pass through untouched; anything else
    becomes a tuple of its nodes in the order given, neither sorted nor
    deduplicated, so callers pass ascending partitions.  Used where
    offers/reservations/guarantees capture their partition.
    """
    if isinstance(nodes, NodeSet):
        return nodes
    if isinstance(nodes, tuple):
        return nodes
    return tuple(nodes)
