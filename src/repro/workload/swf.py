"""Standard Workload Format (SWF) reader and writer.

The paper draws its job logs from Feitelson's Parallel Workloads Archive,
whose traces are distributed in SWF: one job per line, 18 whitespace-
separated integer fields, ``;`` comment lines carrying header metadata.
This module implements enough of SWF that the *actual* NASA-iPSC/860 and
SDSC-SP2 archive files can be dropped into the experiment harness in place
of the bundled synthetic logs, plus a writer so synthetic logs can be
exported for use by other tools.

Field reference (1-based, per the archive definition):

====  =======================  ==========================================
 #    name                     use here
====  =======================  ==========================================
 1    job number               ``Job.job_id``
 2    submit time (s)          ``Job.arrival_time``
 3    wait time (s)            ignored (scheduler-dependent)
 4    run time (s)             ``Job.runtime``
 5    allocated processors     ``Job.size``
 8    requested processors     fallback when field 5 is missing (-1)
 9    requested time           ``Job.requested_time``
 12   user id                  ``Job.user_id``
====  =======================  ==========================================

Jobs with unknown (``-1``) or non-positive runtime/size — cancelled or
corrupt records — are skipped, mirroring the standard cleaning step used by
scheduling studies on these traces.
"""

from __future__ import annotations

import io
import math
from pathlib import Path
from typing import Dict, Iterator, List, Optional, TextIO, Tuple, Union

from repro.workload.job import Job, JobLog

#: Number of data fields in a canonical SWF record.
SWF_FIELD_COUNT = 18


class SWFParseError(ValueError):
    """Raised when an SWF line cannot be interpreted."""

    def __init__(self, line_no: int, line: str, reason: str) -> None:
        super().__init__(f"SWF line {line_no}: {reason}: {line.strip()!r}")
        self.line_no = line_no
        self.line = line
        self.reason = reason


def _parse_fields(line: str, line_no: int) -> List[float]:
    parts = line.split()
    if len(parts) < 5:
        raise SWFParseError(line_no, line, "fewer than 5 fields")
    try:
        fields = [float(p) for p in parts]
    except ValueError as exc:
        raise SWFParseError(line_no, line, f"non-numeric field ({exc})") from None
    if not all(map(math.isfinite, fields)):
        raise SWFParseError(line_no, line, "non-finite field")
    return fields


def iter_swf(
    source: Union[str, Path, TextIO],
    max_jobs: Optional[int] = None,
    header: Optional[Dict[str, str]] = None,
) -> Iterator[Job]:
    """Stream the valid jobs of an SWF file in file order, O(1) memory.

    The streaming core behind :func:`parse_swf` — use it directly to walk
    a multi-million-line archive trace (or a synthetic export of one)
    without materialising a job list.  Tolerates what real archive files
    contain beyond the canonical format: blank lines and full-line ``;``
    comments anywhere in the file (not just a leading header block), and
    trailing ``; ...`` comments on data lines.

    Args:
        source: Path to an ``.swf`` file, or an open text stream.
        max_jobs: Optional cap on accepted (valid) jobs.
        header: Optional dict the ``; Key: value`` header entries are
            written into as they are encountered (an entry is only
            guaranteed present once the line carrying it has been
            consumed).

    Yields:
        :class:`Job` records, skipping cancelled/corrupt lines (the
        standard cleaning step).

    Raises:
        SWFParseError: On malformed data lines.
    """
    if isinstance(source, (str, Path)):
        with Path(source).open("r", encoding="utf-8", errors="replace") as fh:
            yield from iter_swf(fh, max_jobs=max_jobs, header=header)
        return

    accepted = 0
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(";"):
            body = line.lstrip("; ")
            if header is not None and ":" in body:
                key, _, value = body.partition(":")
                header[key.strip()] = value.strip()
            continue
        # Trailing comment on a data line: everything after ';' is noise.
        data = line.split(";", 1)[0].strip()
        if not data:
            continue
        fields = _parse_fields(data, line_no)
        job = _job_from_fields(fields)
        if job is None:
            continue  # cancelled / corrupt record: standard cleaning step
        yield job
        accepted += 1
        if max_jobs is not None and accepted >= max_jobs:
            return


def parse_swf(
    source: Union[str, Path, TextIO],
    name: Optional[str] = None,
    max_jobs: Optional[int] = None,
) -> Tuple[JobLog, Dict[str, str]]:
    """Parse an SWF file or stream into a :class:`JobLog`.

    A materialising wrapper over :func:`iter_swf`; prefer the iterator
    for traces too large to hold as a list.

    Args:
        source: Path to an ``.swf`` file, or an open text stream.
        name: Log name; defaults to the file stem or ``"swf"``.
        max_jobs: Optional cap on accepted (valid) jobs.

    Returns:
        ``(log, header)`` where ``header`` maps SWF header keys (the
        ``; Key: value`` comment lines) to their string values.

    Raises:
        SWFParseError: On malformed data lines.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        with path.open("r", encoding="utf-8", errors="replace") as fh:
            return parse_swf(fh, name=name or path.stem, max_jobs=max_jobs)

    header: Dict[str, str] = {}
    jobs: List[Job] = list(iter_swf(source, max_jobs=max_jobs, header=header))
    return JobLog(jobs, name=name or "swf"), header


def _job_from_fields(fields: List[float]) -> Optional[Job]:
    """Build a Job from SWF fields; None for records that must be skipped."""

    def get(idx: int, default: float = -1.0) -> float:
        return fields[idx] if idx < len(fields) else default

    job_id = int(get(0))
    submit = get(1)
    runtime = get(3)
    size = int(get(4))
    if size <= 0:
        size = int(get(7))  # fall back to requested processors
    requested = get(8)
    user = int(get(11))
    if runtime <= 0 or size <= 0 or submit < 0:
        return None
    return Job(
        job_id=job_id,
        arrival_time=float(submit),
        size=size,
        runtime=float(runtime),
        user_id=user,
        requested_time=float(requested) if requested > 0 else None,
    )


def write_swf(
    log: JobLog,
    target: Union[str, Path, TextIO],
    header: Optional[Dict[str, str]] = None,
) -> None:
    """Write a :class:`JobLog` as SWF.

    Fields the library does not model are emitted as ``-1`` (the SWF
    convention for "unknown").  Times are written as integers, matching the
    archive's second-granularity convention; sub-second synthetic arrival
    times are rounded.
    """
    if isinstance(target, (str, Path)):
        with Path(target).open("w", encoding="utf-8") as fh:
            write_swf(log, fh, header=header)
        return

    header = dict(header or {})
    header.setdefault("Computer", "synthetic")
    header.setdefault("Note", f"exported by probqos from log {log.name!r}")
    for key, value in header.items():
        target.write(f"; {key}: {value}\n")
    for job in log:
        fields = [-1] * SWF_FIELD_COUNT
        fields[0] = job.job_id
        fields[1] = int(round(job.arrival_time))
        fields[2] = -1  # wait time: scheduler-dependent
        fields[3] = int(round(job.runtime))
        fields[4] = job.size
        fields[7] = job.size
        fields[8] = int(round(job.requested_time)) if job.requested_time else -1
        fields[10] = 1  # status: completed
        fields[11] = job.user_id
        target.write(" ".join(str(f) for f in fields) + "\n")


def roundtrip(log: JobLog) -> JobLog:
    """Serialize then re-parse a log (testing helper; must be lossless for
    the fields the library models, up to second rounding of times)."""
    buffer = io.StringIO()
    write_swf(log, buffer)
    buffer.seek(0)
    parsed, _ = parse_swf(buffer, name=log.name)
    return parsed
