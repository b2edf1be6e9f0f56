"""Count executed bytecodes and Python calls per job of a benchmark workload.

Replays the first ``--inputs`` inputs of a ``perfbench`` workload under
``sys.settrace`` with opcode events on, and prints the bytecodes and calls
per job, in total and for the ``--top`` functions that execute the most
bytecodes, then the ``--top`` call sites (``caller -> callee``) that make
the most calls.
A call is a ``call`` trace event, as ``sys.setprofile`` sees it too, so a
generator counts one per resume.

Unlike traced self times, the counts do not depend on how fast or how busy
the host is, so they size a cut before a timed ``tools/perf_pairs.py`` run.
On Python 3.11 the calls per job track the replay's wall time better than
the bytecodes do: a call costs a frame however little it executes, so a
cut of forwarding calls shows in ``sim_s`` where a cut of bytecodes inside
one hot loop may not.  Both change with the Python minor version (3.12
inlines comprehensions, and the interpreter's specialised instructions
differ), so compare counts from one interpreter only.  Run from any
directory::

    python3 tools/opcount.py --workload sdsc --inputs 1 --top 25

Standard library only; opcode tracing makes a replay about fifty times
slower, so one ``sdsc`` input takes seconds.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from types import CodeType
from typing import Callable, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]


def count(fn: Callable[[], object]) -> Tuple[Counter, Counter]:
    """Run ``fn`` and return its executed bytecodes, a ``Counter`` keyed
    by code object, and its calls, keyed by ``(caller, callee)`` code
    objects (the caller is None for a call from outside Python frames)."""
    ops: Counter = Counter()
    sites: Counter = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            ops[frame.f_code] += 1
        return local

    def on_call(frame, event, arg):
        back = frame.f_back
        sites[back.f_code if back is not None else None, frame.f_code] += 1
        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(None)
    return ops, sites


def label(code: Optional[CodeType]) -> str:
    """``path:line qualified.name`` of a code object, the path relative to
    the repository when it lies inside it."""
    if code is None:
        return "<C>"
    path = Path(code.co_filename)
    if path.is_relative_to(ROOT):
        path = path.relative_to(ROOT)
    return f"{path}:{code.co_firstlineno} {getattr(code, 'co_qualname', code.co_name)}"


def name(code: Optional[CodeType]) -> str:
    """The qualified name of a code object, for the call-site view."""
    if code is None:
        return "<C>"
    return getattr(code, "co_qualname", code.co_name)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="sdsc", choices=("nasa", "sdsc", "scale"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--inputs", type=int, default=1)
    parser.add_argument("--top", type=int, default=15,
                        help="functions and call sites to list")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from replays import WORKLOADS, make_batch, replay

    workload = WORKLOADS[args.workload]
    batch, _ = make_batch(workload, args.seed, args.inputs)
    jobs = sum(len(inp.jobs) for inp in batch)
    ops, sites = count(lambda: [replay(workload, inp) for inp in batch])
    calls: Counter = Counter()
    for (_caller, callee), n in sites.items():
        calls[callee] += n
    print(f"{args.workload}: seed {args.seed}, {len(batch)} inputs, {jobs} jobs, "
          f"Python {sys.version_info.major}.{sys.version_info.minor}")
    print(f"bytecodes per job {sum(ops.values()) / jobs:,.0f}, "
          f"calls per job {sum(calls.values()) / jobs:,.1f}")
    print(f"{'bytecodes/job':>14} {'calls/job':>10}  function")
    for code, n in ops.most_common(args.top):
        print(f"{n / jobs:>14,.1f} {calls[code] / jobs:>10,.2f}  {label(code)}")
    print(f"{'calls/job':>10}  caller -> callee")
    for (caller, callee), n in sites.most_common(args.top):
        print(f"{n / jobs:>10,.2f}  {name(caller)} -> {name(callee)}")


if __name__ == "__main__":
    main()
