"""Per-node state transitions, driven through the :class:`Cluster` façade.

The cluster keeps live node state as flat per-node lists; these tests pin
the transitions of one node: failure and repair, stale recoveries, and
the one-job-per-node rule.
"""

from __future__ import annotations

import pytest

from repro.cluster.machine import Cluster


@pytest.fixture
def cluster() -> Cluster:
    return Cluster(node_count=4, downtime=120.0)


class TestFailure:
    def test_fail_marks_down_and_returns_recovery_time(self, cluster):
        victim, recovery = cluster.fail_node(0, now=100.0)
        assert victim is None
        assert not cluster.is_up(0)
        assert recovery == 220.0
        assert cluster.down_until(0) == 220.0

    def test_negative_downtime_rejected(self):
        with pytest.raises(ValueError):
            Cluster(node_count=1, downtime=-1.0)

    def test_repeat_failure_extends_repair(self, cluster):
        cluster.fail_node(0, now=100.0)
        _, recovery = cluster.fail_node(0, now=150.0)
        assert recovery == 270.0
        assert cluster.down_until(0) == 270.0

    def test_fail_keeps_job_assignment(self, cluster):
        cluster.start_job(9, [0])
        victim, _ = cluster.fail_node(0, now=0.0)
        assert victim == 9
        # The system layer clears it explicitly, through remove_job.
        assert cluster.job_on(0) == 9
        cluster.remove_job(9)
        assert cluster.job_on(0) is None


class TestRecovery:
    def test_recover_after_downtime(self, cluster):
        cluster.fail_node(0, now=0.0)
        cluster.recover_node(0, now=120.0)
        assert cluster.is_up(0)
        assert cluster.down_until(0) == 0.0

    def test_stale_recovery_ignored(self, cluster):
        cluster.fail_node(0, now=0.0)
        cluster.fail_node(0, now=60.0)  # repair extended to t=180
        cluster.recover_node(0, now=120.0)  # stale event from the first failure
        assert not cluster.is_up(0)
        cluster.recover_node(0, now=180.0)
        assert cluster.is_up(0)

    def test_recover_when_up_is_noop(self, cluster):
        cluster.recover_node(0, now=50.0)
        assert cluster.is_up(0)
        assert cluster.up_nodes() == [0, 1, 2, 3]


class TestAssignment:
    def test_assign_and_release(self, cluster):
        cluster.start_job(7, [3])
        assert cluster.job_on(3) == 7
        assert cluster.idle_nodes() == [0, 1, 2]
        cluster.remove_job(7)
        assert cluster.job_on(3) is None
        assert cluster.idle_nodes() == [0, 1, 2, 3]

    def test_assign_to_down_node_rejected(self, cluster):
        cluster.fail_node(0, now=0.0)
        with pytest.raises(ValueError, match="not all up and idle"):
            cluster.start_job(1, [0])
        assert cluster.job_on(0) is None

    def test_double_assignment_rejected(self, cluster):
        cluster.start_job(1, [0])
        with pytest.raises(ValueError, match="not all up and idle"):
            cluster.start_job(2, [0])
        assert cluster.job_on(0) == 1

    def test_release_wrong_job_rejected(self, cluster):
        # Releasing is per job: a job that is not running cannot free a
        # node another job holds.
        cluster.start_job(1, [0])
        with pytest.raises(KeyError):
            cluster.remove_job(2)
        assert cluster.job_on(0) == 1
