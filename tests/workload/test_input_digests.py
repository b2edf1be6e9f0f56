"""Pinned digests of the generated workload inputs.

The synthetic logs and the big-cluster stream are pure functions of their
seed, so a change to how the generators turn numpy draws into :class:`Job`
records (or a numpy release that changes a draw) must not move a single
field.  The digests below cover every job field, including its Python
type: a ``numpy.int64`` size would ``repr`` differently from an ``int``.
"""

from __future__ import annotations

import hashlib
from itertools import islice

import numpy as np
import pytest

from repro.sim.rng import substream
from repro.workload.synthetic import BigClusterSpec, log_by_name, stream_jobs

JOBS = 750
NODES = 128
STREAM_JOBS = 2000

#: sha256 of each synthetic log, ``log_by_name(name, seed, JOBS)`` clipped
#: by ``scaled_sizes(NODES)``.
LOG_DIGESTS = {
    ("nasa", 1000): (
        "a0ec6437fcde8ca805fbac52211b15cc9cc9464514d21e363e436281a6319010"
    ),
    ("nasa", 1001): (
        "2d909cb3a5af00b7fca2b81fb38b5d2514a52c24a4dda4d29d28ce43ae5afb47"
    ),
    ("nasa", 1002): (
        "8995a8ae3ba7f97b5a0128626168a72a80144f35172c985a72941939cf6bc4c9"
    ),
    ("sdsc", 1000): (
        "c7e2c06db1a2ec5940e27fef72a6532d68019a739d638dddadd1e6e2e143bcd9"
    ),
    ("sdsc", 1001): (
        "32742c2a4d98c533a99631bdaf53e96835393b51dc31f27ef507fc3941affbf2"
    ),
    ("sdsc", 1002): (
        "d48ca8d57717d990c2790547acf9e32f2da95561f4ffb354ac9ad052f6635378"
    ),
}

#: sha256 of the first ``STREAM_JOBS`` jobs of the ``scale`` stream.
STREAM_DIGEST = "68dfbe83fe44afd9849cb65e9d6b59cd95bef749d0effab996cba310f799e104"


def jobs_digest(jobs) -> str:
    """sha256 over the ``repr`` of every job's fields, in arrival order."""
    lines = [
        repr(
            (
                j.job_id,
                j.arrival_time,
                j.size,
                j.runtime,
                j.user_id,
                j.requested_time,
            )
        )
        for j in jobs
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name,seed", sorted(LOG_DIGESTS))
def test_clipped_log_digest(name, seed):
    log = log_by_name(name, seed=seed, job_count=JOBS).scaled_sizes(NODES)
    assert jobs_digest(log) == LOG_DIGESTS[(name, seed)]


def test_stream_prefix_digest():
    spec = BigClusterSpec(nodes=10_000, offered_load=0.7)
    jobs = islice(stream_jobs(spec, seed=1000), STREAM_JOBS)
    assert jobs_digest(jobs) == STREAM_DIGEST


@pytest.mark.parametrize("name", ["nasa", "sdsc"])
def test_vector_user_draw_equals_scalar_draws(name):
    # generate_workload draws all user ids in one call; the logs above were
    # first pinned when each job drew its own id.  Advance both streams by
    # an odd number of 32-bit-sized draws first, so a buffered half word
    # would show.
    scalar_rng = substream(1000, f"workload.{name}")
    vector_rng = substream(1000, f"workload.{name}")
    scalar_rng.integers(1, 200)
    vector_rng.integers(1, 200)
    scalar = [int(scalar_rng.integers(1, 200)) for _ in range(JOBS)]
    vector = vector_rng.integers(1, 200, size=JOBS).tolist()
    assert vector == scalar
    assert scalar_rng.random() == vector_rng.random()
