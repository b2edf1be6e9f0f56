"""Workload substrate: job records, SWF traces, synthetic archive logs."""

from repro.workload.job import Job, JobLog, WorkloadStats
from repro.workload.swf import SWFParseError, iter_swf, parse_swf, write_swf
from repro.workload.synthetic import (
    BIG_SPEC,
    NASA_SPEC,
    SDSC_SPEC,
    BigClusterSpec,
    WorkloadSpec,
    generate_workload,
    log_by_name,
    nasa_log,
    sdsc_log,
    stream_jobs,
)

__all__ = [
    "Job",
    "JobLog",
    "WorkloadStats",
    "SWFParseError",
    "iter_swf",
    "parse_swf",
    "write_swf",
    "BIG_SPEC",
    "NASA_SPEC",
    "SDSC_SPEC",
    "BigClusterSpec",
    "WorkloadSpec",
    "generate_workload",
    "log_by_name",
    "nasa_log",
    "sdsc_log",
    "stream_jobs",
]
