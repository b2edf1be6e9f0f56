"""Unit and property tests for job records and job logs."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from repro.workload.job import Job, JobLog


def make_job(job_id=1, arrival=0.0, size=4, runtime=3600.0):
    return Job(job_id=job_id, arrival_time=arrival, size=size, runtime=runtime)


class TestJobValidation:
    def test_zero_size_rejected(self):
        with pytest.raises(ValueError, match="size"):
            make_job(size=0)

    def test_zero_runtime_rejected(self):
        with pytest.raises(ValueError, match="runtime"):
            make_job(runtime=0.0)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError, match="arrival"):
            make_job(arrival=-1.0)

    @pytest.mark.parametrize(
        "arrival, runtime, field",
        [
            (math.nan, 3600.0, "arrival"),
            (math.inf, 3600.0, "arrival"),
            (0.0, math.nan, "runtime"),
            (0.0, math.inf, "runtime"),
        ],
    )
    def test_non_finite_times_rejected(self, arrival, runtime, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            make_job(arrival=arrival, runtime=runtime)

    def test_work_is_runtime_times_size(self):
        assert make_job(size=3, runtime=100.0).work == 300.0


class TestCheckpointCounting:
    def test_job_shorter_than_interval_never_checkpoints(self):
        assert make_job(runtime=1800.0).checkpoint_count(3600.0) == 0

    def test_exact_multiple_skips_final_request(self):
        # A request coinciding with completion is never issued.
        assert make_job(runtime=7200.0).checkpoint_count(3600.0) == 1

    def test_general_count(self):
        assert make_job(runtime=10_000.0).checkpoint_count(3600.0) == 2

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            make_job().checkpoint_count(0.0)

    def test_padded_runtime_adds_overhead_per_request(self):
        job = make_job(runtime=10_000.0)
        assert job.padded_runtime(3600.0, 720.0) == 10_000.0 + 2 * 720.0

    @given(
        runtime=st.floats(min_value=1.0, max_value=5e5),
        interval=st.floats(min_value=60.0, max_value=5e4),
        overhead=st.floats(min_value=0.0, max_value=5e3),
    )
    def test_padded_runtime_bounds(self, runtime, interval, overhead):
        job = make_job(runtime=runtime)
        padded = job.padded_runtime(interval, overhead)
        count = job.checkpoint_count(interval)
        assert padded >= runtime
        assert count >= 0
        # At most one request per full interval of execution.
        assert count <= math.ceil(runtime / interval)


class TestJobLog:
    def test_jobs_sorted_by_arrival(self):
        log = JobLog(
            [make_job(1, arrival=50.0), make_job(2, arrival=10.0)], name="x"
        )
        assert [j.job_id for j in log] == [2, 1]

    def test_simultaneous_arrivals_sorted_by_job_id(self):
        jobs = [
            make_job(job_id, arrival=arrival)
            for job_id, arrival in ((7, 5.0), (3, 5.0), (9, 1.0), (1, 5.0), (4, 1.0))
        ]
        for order in (jobs, jobs[::-1]):
            assert [j.job_id for j in JobLog(order)] == [4, 9, 1, 3, 7]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            JobLog([make_job(1), make_job(1, arrival=1.0)])

    def test_sorted_input_keeps_its_order(self):
        # Ids against arrival order: a sort by id alone would move them.
        jobs = [make_job(job_id, arrival=float(t)) for t, job_id in enumerate((5, 2, 9, 1))]
        log = JobLog(jobs)
        assert all(a is b for a, b in zip(log, jobs)) and len(log) == len(jobs)

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 30)),
            max_size=12,
            unique_by=lambda pair: pair[1],
        ),
        st.randoms(use_true_random=False),
    )
    def test_any_input_order_gives_arrival_then_id_order(self, pairs, rnd):
        # Few distinct arrivals, so ties are common and break by job id.
        jobs = [make_job(job_id, arrival=float(t)) for t, job_id in pairs]
        rnd.shuffle(jobs)
        expected = sorted(jobs, key=lambda j: (j.arrival_time, j.job_id))
        assert list(JobLog(jobs)) == expected
        assert list(JobLog(expected)) == expected

    def test_equal_arrivals_sort_by_job_id_even_when_rising_elsewhere(self):
        jobs = [make_job(1, arrival=0.0), make_job(8, arrival=3.0), make_job(4, arrival=3.0)]
        assert [j.job_id for j in JobLog(jobs)] == [1, 4, 8]

    def test_len_and_indexing(self, tiny_jobs):
        assert len(tiny_jobs) == 5
        assert tiny_jobs[0].job_id == 1

    def test_truncate_keeps_earliest_arrivals(self, tiny_jobs):
        head = tiny_jobs.truncate(2)
        assert [j.job_id for j in head] == [1, 2]
        assert len(tiny_jobs) == 5  # original untouched

    def test_scaled_sizes_clips(self, tiny_jobs):
        clipped = tiny_jobs.scaled_sizes(2)
        assert max(j.size for j in clipped) == 2
        assert [j.job_id for j in clipped] == [j.job_id for j in tiny_jobs]

    def test_scaled_sizes_shares_jobs_that_fit(self, tiny_jobs):
        clipped = tiny_jobs.scaled_sizes(4)
        for before, after in zip(tiny_jobs, clipped):
            if before.size <= 4:
                assert after is before
            else:
                assert after is not before

    def test_scaled_sizes_rebuilds_only_the_size(self, tiny_jobs):
        wide = Job(
            job_id=9,
            arrival_time=30.0,
            size=64,
            runtime=900.0,
            user_id=17,
            requested_time=1200.0,
        )
        log = JobLog([*tiny_jobs, wide], name="tiny")
        clipped = {j.job_id: j for j in log.scaled_sizes(4)}
        assert clipped[9] == dataclasses.replace(wide, size=4)
        assert clipped[4] == dataclasses.replace(tiny_jobs[3], size=4)

    def test_scaled_sizes_keeps_the_duplicate_id_check(self, tiny_jobs):
        # A log holding a duplicate id cannot be built; plant one behind the
        # constructor's back to show the clipped copy is still checked.
        tiny_jobs._jobs.append(make_job(1, arrival=9000.0))
        with pytest.raises(ValueError, match="duplicate"):
            tiny_jobs.scaled_sizes(4)

    def test_scaled_sizes_name(self, tiny_jobs):
        assert tiny_jobs.scaled_sizes(4).name == "tiny(<= 4 nodes)"

    def test_stats_aggregates(self, tiny_jobs):
        stats = tiny_jobs.stats()
        assert stats.job_count == 5
        assert stats.mean_size == pytest.approx((2 + 4 + 1 + 8 + 3) / 5)
        assert stats.max_runtime == 7200.0
        assert stats.span == 7200.0
        assert stats.total_work == pytest.approx(
            2 * 1800 + 4 * 7200 + 1 * 600 + 8 * 3600 + 3 * 5400
        )

    def test_stats_offered_load(self, tiny_jobs):
        stats = tiny_jobs.stats()
        assert stats.offered_load(16) == pytest.approx(
            stats.total_work / (stats.span * 16)
        )

    def test_empty_log_stats(self):
        stats = JobLog([], name="empty").stats()
        assert stats.job_count == 0
        assert stats.total_work == 0.0

    def test_max_runtime_hours(self, tiny_jobs):
        assert tiny_jobs.stats().max_runtime_hours == pytest.approx(2.0)
