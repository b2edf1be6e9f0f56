"""Count executed bytecodes and Python calls per job of a benchmark workload.

Replays the first ``--inputs`` inputs of a ``perfbench`` workload under
``sys.settrace`` with opcode events on, and prints the bytecodes and calls
per job, in total and for the functions that execute the most bytecodes.
A call is a ``call`` trace event, so a generator counts one per resume.

Unlike traced self times, the counts do not depend on how fast or how busy
the host is, so they size a cut before a timed ``tools/perf_pairs.py`` run.
They do change with the Python minor version (the interpreter's
specialised instructions differ), so compare counts from one interpreter
only: they are a sizing aid, not a gate.  Run from any directory::

    python3 tools/opcount.py --workload sdsc --inputs 1 --top 15

Standard library only; opcode tracing makes a replay about fifty times
slower, so one ``sdsc`` input takes seconds.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from types import CodeType
from typing import Callable, Tuple

ROOT = Path(__file__).resolve().parents[1]


def count(fn: Callable[[], object]) -> Tuple[Counter, Counter]:
    """Run ``fn`` and return its executed bytecodes and its calls, each a
    ``Counter`` keyed by code object."""
    ops: Counter = Counter()
    calls: Counter = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            ops[frame.f_code] += 1
        return local

    def on_call(frame, event, arg):
        calls[frame.f_code] += 1
        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(None)
    return ops, calls


def label(code: CodeType) -> str:
    """``path:line qualified.name`` of a code object, the path relative to
    the repository when it lies inside it."""
    path = Path(code.co_filename)
    if path.is_relative_to(ROOT):
        path = path.relative_to(ROOT)
    return f"{path}:{code.co_firstlineno} {getattr(code, 'co_qualname', code.co_name)}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="sdsc", choices=("nasa", "sdsc", "scale"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--inputs", type=int, default=1)
    parser.add_argument("--top", type=int, default=15)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from replays import WORKLOADS, make_batch, replay

    workload = WORKLOADS[args.workload]
    batch, _ = make_batch(workload, args.seed, args.inputs)
    jobs = sum(len(inp.jobs) for inp in batch)
    ops, calls = count(lambda: [replay(workload, inp) for inp in batch])
    print(f"{args.workload}: seed {args.seed}, {len(batch)} inputs, {jobs} jobs, "
          f"Python {sys.version_info.major}.{sys.version_info.minor}")
    print(f"bytecodes per job {sum(ops.values()) / jobs:,.0f}, "
          f"calls per job {sum(calls.values()) / jobs:,.1f}")
    print(f"{'bytecodes/job':>14} {'calls/job':>10}  function")
    for code, n in ops.most_common(args.top):
        print(f"{n / jobs:>14,.1f} {calls[code] / jobs:>10,.2f}  {label(code)}")


if __name__ == "__main__":
    main()
