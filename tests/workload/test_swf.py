"""Unit tests for the SWF reader/writer."""

from __future__ import annotations

import io

import pytest

from repro.workload.job import Job, JobLog
from repro.workload.swf import (
    SWFParseError,
    iter_swf,
    parse_swf,
    roundtrip,
    write_swf,
)

SAMPLE = """\
; Computer: test machine
; MaxNodes: 128
1 100 5 3600 4 -1 -1 4 7200 -1 1 17 -1 -1 -1 -1 -1 -1
2 200 -1 -1 8 -1 -1 8 -1 -1 0 18 -1 -1 -1 -1 -1 -1
3 300 2 60 -1 -1 -1 16 120 -1 1 19 -1 -1 -1 -1 -1 -1
"""


class TestParsing:
    def test_parses_valid_jobs(self):
        log, header = parse_swf(io.StringIO(SAMPLE), name="sample")
        assert [j.job_id for j in log] == [1, 3]

    def test_header_extracted(self):
        _, header = parse_swf(io.StringIO(SAMPLE))
        assert header["Computer"] == "test machine"
        assert header["MaxNodes"] == "128"

    def test_fields_mapped(self):
        log, _ = parse_swf(io.StringIO(SAMPLE))
        job = log[0]
        assert job.arrival_time == 100.0
        assert job.runtime == 3600.0
        assert job.size == 4
        assert job.requested_time == 7200.0
        assert job.user_id == 17

    def test_cancelled_job_skipped(self):
        # Job 2 has runtime -1: a cancelled/corrupt record.
        log, _ = parse_swf(io.StringIO(SAMPLE))
        assert all(j.job_id != 2 for j in log)

    def test_requested_processors_fallback(self):
        # Job 3 has allocated = -1 but requested = 16.
        log, _ = parse_swf(io.StringIO(SAMPLE))
        job = next(j for j in log if j.job_id == 3)
        assert job.size == 16

    def test_max_jobs_cap(self):
        log, _ = parse_swf(io.StringIO(SAMPLE), max_jobs=1)
        assert len(log) == 1

    def test_blank_lines_ignored(self):
        log, _ = parse_swf(io.StringIO("\n\n" + SAMPLE + "\n"))
        assert len(log) == 2

    def test_too_few_fields_raises(self):
        with pytest.raises(SWFParseError, match="fewer than 5"):
            parse_swf(io.StringIO("1 2 3\n"))

    def test_non_numeric_raises(self):
        with pytest.raises(SWFParseError, match="non-numeric"):
            parse_swf(io.StringIO("1 2 3 four 5\n"))

    @pytest.mark.parametrize(
        "line",
        [
            "1 nan 5 3600 4\n",  # arrival
            "1 100 5 nan 4\n",  # runtime
            "1 100 5 inf 4\n",
            "1 100 5 3600 4 -1 -1 4 -inf\n",  # requested time
            "nan 100 5 3600 4\n",  # job id
        ],
    )
    def test_non_finite_field_raises(self, line):
        with pytest.raises(SWFParseError, match="non-finite"):
            parse_swf(io.StringIO(line))

    def test_parse_from_path(self, tmp_path):
        path = tmp_path / "log.swf"
        path.write_text(SAMPLE)
        log, _ = parse_swf(path)
        assert log.name == "log"
        assert len(log) == 2


class TestWriting:
    def test_write_then_parse_roundtrips(self, tiny_jobs):
        parsed = roundtrip(tiny_jobs)
        assert len(parsed) == len(tiny_jobs)
        for original, back in zip(tiny_jobs, parsed):
            assert back.job_id == original.job_id
            assert back.size == original.size
            assert back.runtime == pytest.approx(original.runtime, abs=1.0)
            assert back.arrival_time == pytest.approx(
                original.arrival_time, abs=1.0
            )

    def test_write_to_path(self, tmp_path, tiny_jobs):
        path = tmp_path / "out.swf"
        write_swf(tiny_jobs, path, header={"Note": "test"})
        content = path.read_text()
        assert "; Note: test" in content
        assert len([l for l in content.splitlines() if not l.startswith(";")]) == 5

    def test_written_lines_have_18_fields(self, tiny_jobs):
        buffer = io.StringIO()
        write_swf(tiny_jobs, buffer)
        data_lines = [
            l for l in buffer.getvalue().splitlines() if not l.startswith(";")
        ]
        assert all(len(l.split()) == 18 for l in data_lines)

    def test_subsecond_arrivals_rounded(self):
        log = JobLog(
            [Job(job_id=1, arrival_time=10.6, size=1, runtime=100.0)], name="r"
        )
        parsed = roundtrip(log)
        assert parsed[0].arrival_time == 11.0


class TestStreaming:
    """iter_swf: the O(1)-memory core behind parse_swf."""

    def test_yields_jobs_lazily_in_file_order(self):
        it = iter_swf(io.StringIO(SAMPLE))
        assert next(it).job_id == 1
        assert next(it).job_id == 3
        with pytest.raises(StopIteration):
            next(it)

    def test_matches_parse_swf(self):
        streamed = list(iter_swf(io.StringIO(SAMPLE)))
        log, _ = parse_swf(io.StringIO(SAMPLE))
        assert streamed == list(log)

    def test_mid_file_and_trailing_comments_tolerated(self):
        text = (
            "; Computer: test\n"
            "1 100 5 3600 4 -1 -1 4 7200 -1 1 17 -1 -1 -1 -1 -1 -1\n"
            "; a comment in the middle of the data block\n"
            "2 200 5 3600 4 -1 -1 4 7200 -1 1 17 -1 -1 -1 -1 -1 -1 ; trailing note\n"
            ";\n"
            "3 300 5 3600 4 -1 -1 4 7200 -1 1 17 -1 -1 -1 -1 -1 -1\n"
        )
        assert [j.job_id for j in iter_swf(io.StringIO(text))] == [1, 2, 3]

    def test_header_captured_incrementally(self):
        header = {}
        list(iter_swf(io.StringIO(SAMPLE), header=header))
        assert header == {"Computer": "test machine", "MaxNodes": "128"}

    def test_max_jobs_counts_accepted_jobs_only(self):
        # Job 2 is a cancelled record; the cap must apply to *valid* jobs.
        jobs = list(iter_swf(io.StringIO(SAMPLE), max_jobs=2))
        assert [j.job_id for j in jobs] == [1, 3]
        assert [j.job_id for j in iter_swf(io.StringIO(SAMPLE), max_jobs=1)] == [1]

    def test_streams_from_path(self, tmp_path):
        path = tmp_path / "trace.swf"
        path.write_text(SAMPLE)
        assert [j.job_id for j in iter_swf(path)] == [1, 3]

    def test_malformed_line_raises_at_consumption_point(self):
        it = iter_swf(io.StringIO("1 2 3\n"))
        with pytest.raises(SWFParseError):
            next(it)
