"""Unit tests for the cluster façade."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.machine import Cluster
from repro.cluster.nodeset import NodeSet


class TestConstruction:
    def test_width_and_downtime(self, small_cluster):
        assert small_cluster.node_count == 16
        assert small_cluster.downtime == 120.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Cluster(node_count=0)
        with pytest.raises(ValueError):
            Cluster(node_count=4, downtime=-1.0)

    def test_ledger_matches_width(self, small_cluster):
        assert small_cluster.ledger.node_count == 16


class TestJobPlacement:
    def test_start_and_remove(self, small_cluster):
        small_cluster.start_job(1, [0, 1, 2])
        assert small_cluster.running_jobs() == [1]
        assert small_cluster.nodes_of(1) == [0, 1, 2]
        assert small_cluster.job_on(1) == 1
        assert small_cluster.busy_node_count() == 3
        freed = small_cluster.remove_job(1)
        assert freed == [0, 1, 2]
        assert small_cluster.busy_node_count() == 0

    def test_running_jobs_sorted_regardless_of_history(self, small_cluster):
        # The scan order of running jobs feeds EASY backfill's release-time
        # sweep; it must be the sorted job ids, not insertion or removal
        # order (regression: used to be a raw set).
        small_cluster.start_job(7, [0])
        small_cluster.start_job(2, [1])
        small_cluster.start_job(5, [2])
        assert small_cluster.running_jobs() == [2, 5, 7]
        small_cluster.remove_job(2)
        small_cluster.start_job(1, [3])
        assert small_cluster.running_jobs() == [1, 5, 7]

    def test_start_requires_all_nodes_available(self, small_cluster):
        small_cluster.start_job(1, [0])
        with pytest.raises(ValueError, match="not all up and idle"):
            small_cluster.start_job(2, [0, 1])

    def test_start_on_down_node_rejected(self, small_cluster):
        small_cluster.fail_node(3, now=0.0)
        assert not small_cluster.nodes_available([3])
        with pytest.raises(ValueError):
            small_cluster.start_job(1, [3])

    def test_duplicate_start_rejected(self, small_cluster):
        small_cluster.start_job(1, [0])
        with pytest.raises(ValueError, match="already running"):
            small_cluster.start_job(1, [1])

    def test_empty_node_list_rejected(self, small_cluster):
        with pytest.raises(ValueError, match="empty"):
            small_cluster.start_job(1, [])

    def test_remove_unknown_job(self, small_cluster):
        with pytest.raises(KeyError):
            small_cluster.remove_job(42)

    def test_nodes_of_unknown_job(self, small_cluster):
        with pytest.raises(KeyError):
            small_cluster.nodes_of(42)


class TestFailures:
    def test_fail_idle_node(self, small_cluster):
        victim, recovery = small_cluster.fail_node(5, now=100.0)
        assert victim is None
        assert recovery == 220.0
        assert 5 not in small_cluster.up_nodes()

    def test_fail_busy_node_reports_victim(self, small_cluster):
        small_cluster.start_job(7, [4, 5])
        victim, _ = small_cluster.fail_node(5, now=10.0)
        assert victim == 7
        # The system layer then removes the job; surviving node released.
        small_cluster.remove_job(7)
        assert small_cluster.busy_node_count() == 0

    def test_recovery_restores_node(self, small_cluster):
        small_cluster.fail_node(5, now=0.0)
        small_cluster.recover_node(5, now=120.0)
        assert 5 in small_cluster.up_nodes()

    def test_down_until(self, small_cluster):
        small_cluster.fail_node(2, now=50.0)
        assert small_cluster.down_until(2) == 170.0
        assert small_cluster.down_until(3) == 0.0

    def test_latest_recovery(self, small_cluster):
        small_cluster.fail_node(2, now=50.0)
        small_cluster.fail_node(3, now=80.0)
        assert small_cluster.latest_recovery([1, 2, 3]) == 200.0
        assert small_cluster.latest_recovery([1]) == 0.0


class TestPartitions:
    def test_nodeset_partition_round_trips(self, small_cluster):
        partition = NodeSet.from_iterable([2, 3, 4, 9])
        small_cluster.start_job(1, partition)
        assert small_cluster.nodes_of(1) == [2, 3, 4, 9]
        assert [small_cluster.job_on(i) for i in (2, 3, 4, 9)] == [1] * 4
        assert small_cluster.remove_job(1) == partition

    def test_unsorted_tuple_partition(self, small_cluster):
        small_cluster.start_job(1, (5, 1, 3))
        assert small_cluster.nodes_of(1) == [1, 3, 5]
        assert small_cluster.busy_node_count() == 3

    def test_repeated_node_rejected(self, small_cluster):
        with pytest.raises(ValueError, match="not all up and idle"):
            small_cluster.start_job(1, [2, 2])
        assert small_cluster.busy_node_count() == 0

    def test_node_outside_cluster_never_available(self, small_cluster):
        assert not small_cluster.nodes_available([15, 16])
        assert not small_cluster.nodes_available([-1])
        with pytest.raises(ValueError, match="not all up and idle"):
            small_cluster.start_job(1, [16])

    @pytest.mark.parametrize(
        "down, held", [(True, False), (False, True), (True, True)]
    )
    def test_try_start_refuses_without_occupying(self, small_cluster, down, held):
        small_cluster.start_job(9, [7])
        if down:
            small_cluster.fail_node(4, now=0.0)
        if held:
            small_cluster.start_job(8, [5])
        owners = [small_cluster.job_on(i) for i in range(16)]
        running = small_cluster.running_jobs()
        assert small_cluster.try_start(1, [3, 4, 5, 6]) is False
        assert small_cluster.running_jobs() == running
        assert [small_cluster.job_on(i) for i in range(16)] == owners
        with pytest.raises(ValueError, match="not all up and idle"):
            small_cluster.start_job(1, [3, 4, 5, 6])
        assert small_cluster.running_jobs() == running
        assert [small_cluster.job_on(i) for i in range(16)] == owners

    def test_try_start_occupies_free_nodes(self, small_cluster):
        assert small_cluster.try_start(1, NodeSet.from_iterable([3, 6])) is True
        assert small_cluster.nodes_of(1) == [3, 6]

    def test_try_start_still_raises_on_misuse(self, small_cluster):
        small_cluster.start_job(1, [0])
        with pytest.raises(ValueError, match="already running"):
            small_cluster.try_start(1, [1])
        with pytest.raises(ValueError, match="empty"):
            small_cluster.try_start(2, [])
        with pytest.raises(ValueError, match="not all up and idle"):
            small_cluster.try_start(2, [3, 3])
        assert small_cluster.running_jobs() == [1]

    def test_idle_nodes_skip_down_and_busy(self, small_cluster):
        small_cluster.start_job(1, [0, 1])
        small_cluster.fail_node(3, now=0.0)
        idle = small_cluster.idle_nodes()
        assert idle == [2] + list(range(4, 16))
        assert small_cluster.is_up(0) and not small_cluster.is_up(3)


# ----------------------------------------------------------------------
# Random operation sequences against a per-node dict reference model
# ----------------------------------------------------------------------
WIDTH = 10
DOWNTIME = 120.0

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("start"),
            st.integers(0, 5),
            st.sets(st.integers(0, WIDTH - 1), min_size=1, max_size=5),
            st.booleans(),
        ),
        st.tuples(st.just("fail"), st.integers(0, WIDTH - 1), st.floats(0, 300)),
        st.tuples(st.just("recover"), st.integers(0, WIDTH - 1), st.floats(0, 300)),
        st.tuples(st.just("remove"), st.integers(0, 5)),
    ),
    max_size=40,
)


class _ReferenceCluster:
    """One dict entry per node, mutated node by node."""

    def __init__(self) -> None:
        self.owner = {i: None for i in range(WIDTH)}
        self.down_until = {i: None for i in range(WIDTH)}
        self.jobs = {}

    def available(self, nodes) -> bool:
        return all(
            self.owner[i] is None and self.down_until[i] is None for i in nodes
        )


@settings(max_examples=150, deadline=None)
@given(ops=operations)
def test_random_sequences_match_per_node_reference(ops):
    cluster = Cluster(node_count=WIDTH, downtime=DOWNTIME)
    ref = _ReferenceCluster()
    now = 0.0
    for op in ops:
        if op[0] == "start":
            _, job_id, members, as_nodeset = op
            nodes = sorted(members)
            partition = NodeSet.from_sorted(nodes) if as_nodeset else tuple(nodes)
            assert cluster.nodes_available(partition) == ref.available(nodes)
            if job_id in ref.jobs or not ref.available(nodes):
                with pytest.raises(ValueError):
                    cluster.start_job(job_id, partition)
                continue
            cluster.start_job(job_id, partition)
            ref.jobs[job_id] = nodes
            for i in nodes:
                ref.owner[i] = job_id
        elif op[0] == "fail":
            _, node, delta = op
            now += delta
            victim, recovery = cluster.fail_node(node, now)
            assert victim == ref.owner[node]
            assert recovery == now + DOWNTIME
            ref.down_until[node] = now + DOWNTIME
        elif op[0] == "recover":
            _, node, delta = op
            now += delta
            cluster.recover_node(node, now)
            until = ref.down_until[node]
            if until is not None and now + 1e-9 >= until:
                ref.down_until[node] = None
        else:
            _, job_id = op
            if job_id not in ref.jobs:
                with pytest.raises(KeyError):
                    cluster.remove_job(job_id)
                continue
            assert list(cluster.remove_job(job_id)) == ref.jobs.pop(job_id)
            for i in range(WIDTH):
                if ref.owner[i] == job_id:
                    ref.owner[i] = None

        assert [cluster.job_on(i) for i in range(WIDTH)] == [
            ref.owner[i] for i in range(WIDTH)
        ]
        assert cluster.busy_node_count() == sum(
            owner is not None for owner in ref.owner.values()
        )
        assert cluster.up_nodes() == [
            i for i in range(WIDTH) if ref.down_until[i] is None
        ]
        assert cluster.idle_nodes() == [
            i
            for i in range(WIDTH)
            if ref.down_until[i] is None and ref.owner[i] is None
        ]
        assert cluster.running_jobs() == sorted(ref.jobs)
        for job_id, nodes in ref.jobs.items():
            assert cluster.nodes_of(job_id) == nodes
            expected = max(
                (ref.down_until[i] for i in nodes if ref.down_until[i] is not None),
                default=0.0,
            )
            assert cluster.latest_recovery(nodes) == expected
