"""Big-cluster replay driver for the ``scale`` BENCH scenario.

Runs ONE configuration — ``(nodes, jobs, ledger impl)`` — as a
standalone process and prints a JSON record with
events/sec, peak RSS, and a trajectory checksum.  One process per
configuration is the point: ``ru_maxrss`` is a high-water mark for the
whole process, so the only way to attribute peak memory to a
configuration is to give it a process of its own
(``benchmarks/perf/ledger_bench.py::bench_scale`` orchestrates the
matrix).

The replay is a lean conservative-backfilling loop, not the full QoS
system: jobs stream in from :func:`repro.workload.synthetic.stream_jobs`
(never materialised as a list), each arrival books the earliest
first-fit slot (``find_slot`` + ``reserve``) and schedules its release,
and each finish releases the booking.  That exercises exactly the
substrate this scenario watches — the event queue, the skyline profile,
the free-node queries, and booking mutation — with nothing else on the
profile.

The trajectory checksum hashes every booking (job id, exact start, full
node membership), so two configurations agree iff they booked the exact
same schedule.  The seed-vs-current identity check in ``bench_scale`` is
byte-equality on this digest.

Usage (normally via bench_scale, but hand-runnable):

    PYTHONPATH=src python benchmarks/perf/scale_bench.py \
        --nodes 10000 --jobs 2000 --impl current
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from typing import Dict, List, Optional

from repro.cluster.reference import SeedReservationLedger
from repro.cluster.reservations import ReservationLedger
from repro.sim.engine import EventLoop
from repro.sim.events import EventKind
from repro.workload.synthetic import BigClusterSpec, stream_jobs

#: Ledger implementations selectable via ``--impl``.
IMPLS = ("current", "seed")


def peak_rss_bytes() -> int:
    """This process's high-water resident set size, in bytes.

    Linux reports ``ru_maxrss`` in KiB (macOS in bytes; this harness
    targets the Linux CI runners, where the KiB reading applies).
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def run_config(
    nodes: int,
    jobs: int,
    impl: str = "current",
    seed: int = 20050628,
    offered_load: float = 0.7,
) -> Dict[str, object]:
    """Replay ``jobs`` streamed arrivals through one substrate config.

    Returns a JSON-ready dict with throughput (``events_per_s``), the
    trajectory ``checksum``, peak booking depth, and — when called as the
    only work in a process — a meaningful ``peak_rss_bytes``.
    """
    if impl not in IMPLS:
        raise ValueError(f"impl must be one of {IMPLS}, got {impl!r}")
    if impl == "current":
        ledger = ReservationLedger(nodes)
    else:
        ledger = SeedReservationLedger(nodes)
    spec = BigClusterSpec(nodes=nodes, offered_load=offered_load)
    stream = stream_jobs(spec, seed=seed, job_count=jobs)
    loop = EventLoop()
    digest = hashlib.sha256()
    state = {"peak_bookings": 0}

    def on_arrival(event) -> None:
        job = event.payload["job"]
        duration = job.runtime
        start, chosen = ledger.find_slot(job.size, duration, loop.now)
        ledger.reserve(job.job_id, chosen, start, start + duration)
        if len(ledger) > state["peak_bookings"]:
            state["peak_bookings"] = len(ledger)
        digest.update(
            f"{job.job_id}:{start!r}:{','.join(str(n) for n in chosen)};".encode()
        )
        loop.schedule(start + duration, EventKind.FINISH, job_id=job.job_id)
        nxt = next(stream, None)
        if nxt is not None:
            loop.schedule(nxt.arrival_time, EventKind.ARRIVAL, job=nxt)

    def on_finish(event) -> None:
        ledger.release(event.payload["job_id"])

    loop.register(EventKind.ARRIVAL, on_arrival)
    loop.register(EventKind.FINISH, on_finish)
    first = next(stream, None)
    if first is not None:
        loop.schedule(first.arrival_time, EventKind.ARRIVAL, job=first)

    t0 = time.perf_counter()
    loop.run()
    elapsed = time.perf_counter() - t0

    events = loop.processed_events
    return {
        "nodes": nodes,
        "jobs": jobs,
        "impl": impl,
        "seed": seed,
        "offered_load": offered_load,
        "events": events,
        "elapsed_s": round(elapsed, 6),
        "events_per_s": round(events / elapsed, 3) if elapsed > 0 else float("inf"),
        "peak_bookings": state["peak_bookings"],
        "checksum": digest.hexdigest(),
        "peak_rss_bytes": peak_rss_bytes(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--impl", choices=IMPLS, default="current")
    parser.add_argument("--seed", type=int, default=20050628)
    parser.add_argument("--offered-load", type=float, default=0.7)
    args = parser.parse_args(argv)
    record = run_config(
        nodes=args.nodes,
        jobs=args.jobs,
        impl=args.impl,
        seed=args.seed,
        offered_load=args.offered_load,
    )
    json.dump(record, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
