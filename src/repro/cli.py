"""Command-line interface: regenerate figures/tables, run single points.

Examples::

    probqos table 1
    probqos table 2
    probqos figure 5 --job-count 2000 --seed 7
    probqos figure 1 --jobs 4
    probqos run --workload sdsc --accuracy 0.8 --user 0.9 --job-count 1500
    probqos headline --workload sdsc
    probqos suggest --workload sdsc --size 32 --runtime 7200 --target 0.95
    probqos report --job-count 2000 --figures 1 5 8
    probqos gantt --workload nasa --nodes 16 --width 72
    probqos export bundles/sdsc-seed7 --workload sdsc --job-count 10000
    probqos run --workload nasa --obs obs.json --obs-interval 1800
    probqos obs summarize obs.json
    probqos run --workload nasa --trace trace.jsonl
    probqos trace export trace.jsonl --format chrome --out trace.json
    probqos trace explain trace.jsonl --job 17
    probqos trace explain trace.jsonl --job 17 --format json
    probqos audit trace.jsonl
    probqos audit trace.jsonl --format json --out audit.json
    probqos audit trace.jsonl --diagram-csv reliability.csv
    probqos run --workload nasa --prof prof.json
    probqos prof report prof.json
    probqos prof export prof.json --format collapsed
    probqos lint src tests
    probqos lint --format json --select QOS101,QOS102 src

``--jobs N`` (on ``figure`` and ``report``) fans independent simulation
points out over N worker processes.  The default, ``--jobs 1``, is the
exact sequential behaviour, and every worker count prints the same output.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from typing import TYPE_CHECKING, List, Optional

# The experiment stack is imported inside the subcommands that use it, so
# ``probqos lint`` never imports the simulator it checks: an import-time
# cycle in the checked tree is then a finding, not a crash of the linter.
if TYPE_CHECKING:
    from repro.experiments.config import ExperimentSetup


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probqos",
        description=(
            "Probabilistic QoS guarantees for supercomputing systems "
            "(DSN 2005 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="regenerate a paper figure (1-12)")
    fig.add_argument("number", type=int, help="figure number, 1-12")
    _add_env_args(fig)
    _add_obs_args(fig)
    _add_trace_args(fig)
    _add_prof_args(fig)
    _add_parallel_args(fig)

    tab = sub.add_parser("table", help="regenerate a paper table (1-2)")
    tab.add_argument("number", type=int, help="table number, 1 or 2")
    _add_env_args(tab)

    run = sub.add_parser("run", help="simulate one (a, U) point")
    run.add_argument("--accuracy", "-a", type=float, default=0.5)
    run.add_argument("--user", "-U", type=float, default=0.5, dest="user_threshold")
    run.add_argument("--policy", default="cooperative")
    run.add_argument("--placement", default="fault-aware")
    run.add_argument("--topology", default="flat")
    _add_negotiation_args(run)
    _add_env_args(run)
    _add_obs_args(run)
    _add_trace_args(run)
    _add_prof_args(run)
    run.add_argument(
        "--obs-interval",
        type=_positive_seconds,
        default=None,
        metavar="SECONDS",
        help="sim-seconds between counter samples in the --obs report "
        "(default 3600; needs --obs)",
    )

    obs = sub.add_parser("obs", help="inspect observability reports")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_summarize = obs_sub.add_parser(
        "summarize", help="render an --obs report as text"
    )
    obs_summarize.add_argument("path", help="report written by --obs PATH")
    obs_summarize.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        dest="obs_format",
        help="summary format: human text or the structured dict the text "
        "renders (default: text)",
    )

    prof = sub.add_parser(
        "prof", help="inspect hierarchical profiles written by --prof"
    )
    prof_sub = prof.add_subparsers(dest="prof_command", required=True)
    prof_report = prof_sub.add_parser(
        "report", help="render a profile as a zone-tree text report"
    )
    prof_report.add_argument("path", help="profile written by --prof PATH")
    prof_report.add_argument(
        "--top",
        type=int,
        default=12,
        metavar="N",
        help="rows in the flat hottest-zones table (default 12)",
    )
    prof_report.add_argument(
        "--max-depth",
        type=int,
        default=None,
        metavar="N",
        dest="max_depth",
        help="truncate the zone tree below this depth (default: unlimited)",
    )
    prof_export = prof_sub.add_parser(
        "export",
        help="export a profile as collapsed stacks "
        "(FlameGraph / speedscope) or JSON",
    )
    prof_export.add_argument("path", help="profile written by --prof PATH")
    prof_export.add_argument(
        "--format",
        choices=["collapsed", "json"],
        default="collapsed",
        dest="prof_format",
        help="'collapsed' (one 'a;b;c weight' line per stack, loads in "
        "speedscope and flamegraph.pl) or 'json' (the raw snapshot) "
        "(default: collapsed)",
    )
    prof_export.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output file (default: <profile>.collapsed / stdout for json)",
    )

    trace = sub.add_parser(
        "trace", help="assemble and inspect span timelines from --trace files"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_export = trace_sub.add_parser(
        "export",
        help="export a trace as Chrome Trace Event JSON "
        "(loads in Perfetto / chrome://tracing)",
    )
    trace_export.add_argument("path", help="JSONL trace written by --trace PATH")
    trace_export.add_argument(
        "--format",
        choices=["chrome"],
        default="chrome",
        dest="trace_format",
        help="export format (default: chrome)",
    )
    trace_export.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output file (default: <trace>.chrome.json)",
    )
    trace_explain = trace_sub.add_parser(
        "explain",
        help="reconstruct one job's guarantee audit trail from its spans",
    )
    trace_explain.add_argument("path", help="JSONL trace written by --trace PATH")
    trace_explain.add_argument(
        "--job", type=int, required=True, metavar="N", help="job id to explain"
    )
    trace_explain.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        dest="explain_format",
        help="audit-trail format: human narrative or machine-readable JSON "
        "with the same verdict/margin fields the audit layer computes",
    )

    audit = sub.add_parser(
        "audit",
        help="promise-vs-outcome calibration & SLO audit of a JSONL trace",
    )
    audit.add_argument("path", help="JSONL trace written by --trace PATH")
    audit.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        dest="audit_format",
        help="report format (default: text)",
    )
    audit.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the JSON audit report to PATH",
    )
    audit.add_argument(
        "--diagram-csv",
        default=None,
        metavar="PATH",
        dest="diagram_csv",
        help="write the reliability diagram as CSV to PATH",
    )
    audit.add_argument(
        "--bins",
        type=int,
        default=10,
        metavar="N",
        help="reliability-diagram bins over [0,1] (default 10)",
    )
    audit.add_argument(
        "--node-block",
        type=int,
        default=32,
        metavar="N",
        dest="node_block",
        help="partition-rollup node-block width (default 32)",
    )
    audit.add_argument(
        "--max-breach-rate",
        type=float,
        default=None,
        metavar="RATE",
        dest="max_breach_rate",
        help="per-rollup-key SLO: breach rates above RATE mark the run "
        "DEGRADED (default: disabled)",
    )
    audit.add_argument(
        "--fail-on",
        choices=["degraded", "violated"],
        default=None,
        dest="fail_on",
        help="exit 1 when the run status reaches this severity "
        "(default: always exit 0)",
    )

    head = sub.add_parser("headline", help="no-prediction vs perfect endpoints")
    _add_env_args(head)

    suggest = sub.add_parser(
        "suggest", help="suggest the earliest deadline hitting a target probability"
    )
    suggest.add_argument("--size", type=int, required=True, help="nodes (n_j)")
    suggest.add_argument(
        "--runtime", type=float, required=True, help="runtime e_j, seconds"
    )
    suggest.add_argument("--target", type=float, default=0.95)
    suggest.add_argument("--accuracy", "-a", type=float, default=0.7)
    _add_negotiation_args(suggest)
    _add_env_args(suggest)

    export = sub.add_parser(
        "export", help="write an experiment bundle (SWF + failures) to disk"
    )
    export.add_argument("directory", help="bundle directory to create")
    _add_env_args(export)

    gantt = sub.add_parser(
        "gantt", help="simulate a small scenario and print its schedule chart"
    )
    gantt.add_argument("--nodes", type=int, default=16)
    gantt.add_argument("--accuracy", "-a", type=float, default=0.5)
    gantt.add_argument("--width", type=int, default=72)
    _add_env_args(gantt)

    report = sub.add_parser(
        "report", help="regenerate the paper's entire evaluation as text"
    )
    report.add_argument(
        "--figures",
        type=int,
        nargs="*",
        default=None,
        help="figure numbers to include (default: all 12)",
    )
    _add_env_args(report)
    _add_parallel_args(report)

    lint = sub.add_parser(
        "lint",
        help="run the determinism & sim-safety static analysis (QOS rules)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files/directories to lint (default: src tests)",
    )
    lint.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        dest="output_format",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--arch",
        action="store_true",
        help=(
            "also run the whole-program architecture pass "
            "(QOS501 layering, QOS502 import cycles)"
        ),
    )
    lint.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to enable exclusively",
    )
    lint.add_argument(
        "--ignore",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to disable",
    )
    return parser


def _add_negotiation_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jump-epsilon",
        type=float,
        default=1.0,
        metavar="SECONDS",
        dest="jump_epsilon",
        help="seconds the dialogue advances a candidate start past a "
        "predicted failure (default 1.0)",
    )


def _add_env_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="sdsc", choices=["nasa", "sdsc"])
    parser.add_argument(
        "--job-count",
        type=int,
        default=1500,
        dest="job_count",
        help="jobs in the synthetic log",
    )
    parser.add_argument("--seed", type=int, default=None)


def _add_parallel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for independent simulation points "
        "(default 1 = sequential)",
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--obs",
        metavar="PATH",
        default=None,
        help="write the simulation(s)' counters and gauges as an "
        "observability report (JSON) to PATH",
    )


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="stream every semantic transition to PATH as a JSONL flight "
        "recorder; its views are 'probqos trace export/explain' and "
        "'probqos audit'",
    )


def _positive_seconds(text: str) -> float:
    """Argparse type: a finite number of seconds greater than zero."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"expected finite seconds > 0, got {text!r}"
        )
    return value


def _add_prof_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--prof",
        metavar="PATH",
        default=None,
        help="profile the simulation(s) into hierarchical wall-time zones "
        "and write the profile (JSON) to PATH; inspect with "
        "'probqos prof report/export'",
    )
    parser.add_argument(
        "--prof-bucket",
        type=_positive_seconds,
        default=None,
        metavar="SECONDS",
        dest="prof_bucket",
        help="sim-seconds per wall-cost attribution bucket "
        "(default 3600)",
    )


def _make_profiler(args: argparse.Namespace):
    """The live profiler requested by ``--prof``, or None."""
    if getattr(args, "prof", None) is None:
        return None
    from repro.obs.prof import DEFAULT_BUCKET_WIDTH, Profiler

    width = (
        args.prof_bucket if args.prof_bucket is not None
        else DEFAULT_BUCKET_WIDTH
    )
    return Profiler(bucket_width=width)


def _attached(profiler):
    """``profiler.attach()``, or a no-op block when not profiling."""
    return contextlib.nullcontext() if profiler is None else profiler.attach()


def _write_profile(args: argparse.Namespace, profiler) -> None:
    from repro.obs.prof import total_ns, write_profile

    meta = {"command": args.command}
    for key in ("workload", "job_count", "seed", "accuracy",
                "user_threshold", "number"):
        if getattr(args, key, None) is not None:
            meta[key] = getattr(args, key)
    snapshot = write_profile(args.prof, profiler.snapshot(meta=meta))
    print(
        f"\nprofile written to {args.prof}: "
        f"{total_ns(snapshot) / 1e9:.3f}s under profile; inspect with "
        f"'probqos prof report {args.prof}'"
    )


def _write_obs_report(args: argparse.Namespace, obs, sampler=None) -> None:
    from repro.obs.export import write_report

    meta = {
        "command": args.command,
        "workload": getattr(args, "workload", None),
        "job_count": getattr(args, "job_count", None),
        "seed": getattr(args, "seed", None),
    }
    for key in ("accuracy", "user_threshold", "policy", "placement", "number"):
        if getattr(args, key, None) is not None:
            meta[key] = getattr(args, key)
    report = write_report(args.obs, obs, sampler=sampler, meta=meta)
    print(
        f"\nobservability report written to {args.obs}: "
        f"{len(report['metric_names'])} metrics across "
        f"{len(report['layers'])} layers"
    )


def _setup(args: argparse.Namespace) -> ExperimentSetup:
    from repro.experiments.config import ExperimentSetup, bench_seed

    seed = args.seed if args.seed is not None else bench_seed()
    return ExperimentSetup(
        workload=args.workload, job_count=args.job_count, seed=seed
    )


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.config import ExperimentSetup
    from repro.experiments.figures import FigureCatalog
    from repro.experiments.reporting import format_figure
    from repro.experiments.runner import ExperimentContext

    jobs = args.jobs
    trace_stream = recorder = None
    if args.trace:
        # Recorders cannot cross process boundaries, so a traced figure
        # runs every point in this process.
        if jobs != 1:
            print("--trace forces --jobs 1")
            jobs = 1
        from repro.obs.tracelog import TraceRecorder

        trace_stream = open(args.trace, "w")
        recorder = TraceRecorder(stream=trace_stream, keep_in_memory=False)
    # Profiles DO cross process boundaries (workers ship snapshots that
    # the parent folds), so --prof does not force --jobs 1.
    profiler = _make_profiler(args)
    try:
        workloads = (
            ("sdsc", "nasa") if args.number == 8 else (_figure_workload(args.number),)
        )
        seed = _setup(args).seed
        catalog = FigureCatalog(
            **{
                name: ExperimentContext.prepare(
                    ExperimentSetup(
                        workload=name, job_count=args.job_count, seed=seed
                    ),
                    jobs=jobs,
                    recorder=recorder,
                )
                for name in workloads
            }
        )
        with _attached(profiler):
            figure = catalog.figure(args.number)
        print(format_figure(figure))
    finally:
        if trace_stream is not None:
            trace_stream.close()
    if args.trace:
        print(
            f"\ntrace written to {args.trace} (all simulated points share "
            "the file); views: 'probqos trace export/explain' and "
            "'probqos audit'"
        )
    if args.obs:
        from repro.obs.export import empty_obs, merge_obs

        obs = empty_obs()
        for name in workloads:
            merge_obs(obs, catalog.context(name).obs)
        _write_obs_report(args, obs)
    if profiler is not None:
        _write_profile(args, profiler)
    return 0


def _figure_workload(number: int) -> str:
    sdsc_figures = {1, 3, 5, 7, 9, 11}
    return "sdsc" if number in sdsc_figures else "nasa"


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import format_pairs, format_table1
    from repro.experiments.tables import table_1, table_2

    if args.number == 1:
        print(
            format_table1(
                table_1(seed=_setup(args).seed, job_count=args.job_count)
            )
        )
    elif args.number == 2:
        print(format_pairs("Table 2: Simulation parameters", table_2()))
    else:
        print(f"the paper has tables 1 and 2; got {args.number}", file=sys.stderr)
        return 2
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.obs_interval is not None and not args.obs:
        print("--obs-interval needs --obs (the report the samples go to)",
              file=sys.stderr)
        return 2
    from repro.experiments.reporting import format_pairs
    from repro.experiments.runner import ExperimentContext

    ctx = ExperimentContext.prepare(_setup(args))
    result = sampler = None
    profiler = _make_profiler(args)
    if args.obs or args.trace or args.prof:
        recorder = trace_stream = None
        if args.trace:
            from repro.obs.tracelog import TraceRecorder

            trace_stream = open(args.trace, "w")
            recorder = TraceRecorder(stream=trace_stream, keep_in_memory=False)
        interval = args.obs_interval if args.obs_interval is not None else 3600.0
        try:
            with _attached(profiler):
                result, sampler = ctx.run_instrumented(
                    args.accuracy,
                    args.user_threshold,
                    sample_interval=interval if args.obs else None,
                    recorder=recorder,
                    checkpoint_policy=args.policy,
                    placement=args.placement,
                    topology=args.topology,
                    failure_jump_epsilon=args.jump_epsilon,
                )
        finally:
            if trace_stream is not None:
                trace_stream.close()
        metrics = result.metrics
    else:
        metrics = ctx.run_point(
            args.accuracy,
            args.user_threshold,
            checkpoint_policy=args.policy,
            placement=args.placement,
            topology=args.topology,
            failure_jump_epsilon=args.jump_epsilon,
        )
    pairs = [
        ("QoS", f"{metrics.qos:.4f}"),
        ("Avg utilization", f"{metrics.utilization:.4f}"),
        ("Work lost (node-s)", f"{metrics.lost_work:.3e}"),
        ("Span (days)", f"{metrics.span / 86400.0:.2f}"),
        ("Jobs completed", f"{metrics.completed_jobs}/{metrics.job_count}"),
        ("Deadlines met", f"{metrics.deadlines_met}"),
        ("Failures hitting jobs", f"{metrics.failures_hitting_jobs}"),
        (
            "Checkpoints (performed/skipped)",
            f"{metrics.checkpoints_performed}/{metrics.checkpoints_skipped}",
        ),
        ("Mean wait (s)", f"{metrics.mean_wait:.0f}"),
        ("Mean promised p", f"{metrics.mean_promised_probability:.4f}"),
    ]
    print(
        format_pairs(
            f"{args.workload.upper()}: a={args.accuracy:g}, U={args.user_threshold:g},"
            f" policy={args.policy}, placement={args.placement}",
            pairs,
        )
    )
    if args.trace:
        print(
            f"\ntrace written to {args.trace}; views: 'probqos trace export "
            f"{args.trace}', 'probqos trace explain {args.trace} --job N', "
            f"'probqos audit {args.trace}'"
        )
    if args.obs:
        _write_obs_report(args, result.obs, sampler=sampler)
    if profiler is not None:
        _write_profile(args, profiler)
    return 0


def _cmd_headline(args: argparse.Namespace) -> int:
    from repro.experiments.figures import FigureCatalog
    from repro.experiments.reporting import format_headline
    from repro.experiments.runner import ExperimentContext

    ctx = ExperimentContext.prepare(_setup(args))
    catalog = FigureCatalog(**{args.workload: ctx})
    print(format_headline(catalog.headline_comparison(args.workload)))
    return 0


def _cmd_suggest(args: argparse.Namespace) -> int:
    from repro.core.system import ProbabilisticQoSSystem, SystemConfig
    from repro.experiments.reporting import format_pairs
    from repro.experiments.runner import ExperimentContext
    from repro.workload.job import Job, JobLog

    setup = _setup(args)
    ctx = ExperimentContext.prepare(setup)
    config = SystemConfig(
        accuracy=args.accuracy,
        seed=setup.seed,
        failure_jump_epsilon=args.jump_epsilon,
    )
    system = ProbabilisticQoSSystem(config, JobLog([], name="empty"), ctx.failures)
    probe = Job(job_id=1, arrival_time=0.0, size=args.size, runtime=args.runtime)
    padded = probe.padded_runtime(
        config.checkpoint_interval, config.checkpoint_overhead
    )
    suggestion = system.scheduler.negotiator.suggest_deadline(
        args.size, padded, now=0.0, target_probability=args.target
    )
    offer = suggestion.offer
    if offer is None:
        if suggestion.status == "infeasible":
            print(
                f"infeasible: no partition of {args.size} nodes can be placed "
                f"({suggestion.offers_examined} candidates examined)"
            )
        else:
            print(
                "no offer reaches the target probability within the dialogue "
                f"cap ({suggestion.offers_examined} candidates examined); a "
                "feasible deadline may exist further out"
            )
        return 1
    print(
        format_pairs(
            f"Suggested deadline for {args.size} nodes x {args.runtime:g}s "
            f"(target p >= {args.target:g}, a={args.accuracy:g})",
            [
                ("start (s)", f"{offer.start:.0f}"),
                ("deadline (s)", f"{offer.deadline:.0f}"),
                ("promised p", f"{offer.probability:.4f}"),
                ("predicted p_f", f"{offer.failure_probability:.4f}"),
                ("partition", ", ".join(str(n) for n in offer.nodes[:16]) +
                 ("..." if len(offer.nodes) > 16 else "")),
            ],
        )
    )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments.runner import estimate_horizon
    from repro.workload.archive import ensure_bundle
    from repro.workload.synthetic import log_by_name

    setup = _setup(args)
    probe = log_by_name(
        setup.workload, seed=setup.seed, job_count=args.job_count
    )
    horizon = estimate_horizon(probe, 128)
    log, failures, manifest = ensure_bundle(
        args.directory, setup.workload, args.job_count, setup.seed, horizon
    )
    print(
        f"bundle written to {args.directory}: {manifest.job_count} jobs, "
        f"{manifest.failure_count} failures, seed {manifest.seed}"
    )
    return 0


def _cmd_gantt(args: argparse.Namespace) -> int:
    from repro.core.system import ProbabilisticQoSSystem, SystemConfig
    from repro.experiments.runner import estimate_horizon
    from repro.failures.generator import FailureModelSpec, generate_failure_trace
    from repro.obs.gantt import render_gantt
    from repro.obs.tracelog import TraceRecorder
    from repro.workload.synthetic import log_by_name

    setup = _setup(args)
    jobs = min(args.job_count, 60)  # a readable chart needs a small scenario
    log = log_by_name(setup.workload, seed=setup.seed, job_count=jobs)
    log = log.scaled_sizes(args.nodes)
    horizon = estimate_horizon(log, args.nodes)
    failures = generate_failure_trace(
        horizon,
        spec=FailureModelSpec(nodes=args.nodes, rate_per_day=8.0),
        seed=setup.seed,
    )
    recorder = TraceRecorder()
    system = ProbabilisticQoSSystem(
        SystemConfig(node_count=args.nodes, accuracy=args.accuracy, seed=setup.seed),
        log,
        failures,
        recorder=recorder,
    )
    result = system.run()
    print(render_gantt(recorder, node_count=args.nodes, width=args.width))
    m = result.metrics
    print(
        f"\nQoS={m.qos:.3f} util={m.utilization:.3f} "
        f"lost={m.lost_work:.2e} node-s, {m.failures_hitting_jobs} hit(s)"
    )
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.export import load_report, summarize, summarize_data

    if args.obs_command == "summarize":
        try:
            report = load_report(args.path)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot read obs report: {exc}", file=sys.stderr)
            return 2
        if args.obs_format == "json":
            import json

            print(json.dumps(summarize_data(report), indent=2, sort_keys=True))
        else:
            print(summarize(report))
        return 0
    return 2


def _cmd_prof(args: argparse.Namespace) -> int:
    import json

    from repro.obs.prof import (
        load_profile,
        render_report,
        to_collapsed,
        validate_collapsed,
    )

    try:
        snapshot = load_profile(args.path)
    except (OSError, ValueError) as exc:
        print(f"cannot read profile: {exc}", file=sys.stderr)
        return 2

    if args.prof_command == "report":
        print(render_report(snapshot, top=args.top, max_depth=args.max_depth))
        return 0

    if args.prof_command == "export":
        if args.prof_format == "json":
            text = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
            if args.out is None:
                print(text, end="")
                return 0
        else:
            text = to_collapsed(snapshot)
            problems = validate_collapsed(text)
            if problems:
                for problem in problems:
                    print(f"invalid collapsed stack: {problem}", file=sys.stderr)
                return 1
        out = args.out if args.out is not None else args.path + ".collapsed"
        with open(out, "w") as fh:
            fh.write(text)
        stacks = sum(1 for line in text.splitlines() if line.strip())
        print(
            f"{args.prof_format} profile written to {out}: {stacks} "
            + ("stacks — load in speedscope.app or flamegraph.pl"
               if args.prof_format == "collapsed" else "lines")
        )
        return 0
    return 2


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs.trace import (
        explain_job,
        summarize_timeline,
        timeline_from_records,
        to_chrome_trace,
        validate_chrome_trace,
    )
    from repro.obs.tracelog import load_jsonl

    try:
        with open(args.path) as fh:
            records = load_jsonl(fh)
        timeline = timeline_from_records(records, meta={"source": args.path})
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"cannot parse trace: {exc}", file=sys.stderr)
        return 2

    if args.trace_command == "export":
        doc = to_chrome_trace(timeline)
        problems = validate_chrome_trace(doc)
        if problems:
            for problem in problems:
                print(f"invalid chrome trace: {problem}", file=sys.stderr)
            return 1
        out = args.out if args.out is not None else args.path + ".chrome.json"
        with open(out, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
        print(
            f"chrome trace written to {out}: {len(doc['traceEvents'])} events"
            " — open in Perfetto (ui.perfetto.dev) or chrome://tracing"
        )
        print(summarize_timeline(timeline))
        return 0

    if args.trace_command == "explain":
        try:
            if args.explain_format == "json":
                from repro.obs.trace import explain_job_data

                print(
                    json.dumps(
                        explain_job_data(timeline, args.job),
                        indent=2,
                        sort_keys=True,
                    )
                )
            else:
                print(explain_job(timeline, args.job))
        except KeyError:
            job_ids = timeline.job_ids()
            preview = ", ".join(str(j) for j in job_ids[:20])
            print(
                f"no trace of job {args.job} in {args.path}; "
                f"jobs present: {preview}"
                + (" ..." if len(job_ids) > 20 else ""),
                file=sys.stderr,
            )
            return 1
        return 0
    return 2


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.obs.audit import (
        AUDIT_STATUS_OK,
        AUDIT_STATUS_VIOLATED,
        AuditConfig,
        audit_from_records,
        reliability_diagram_csv,
        render_report,
    )
    from repro.obs.tracelog import load_jsonl

    try:
        config = AuditConfig(
            bin_count=args.bins,
            node_block=args.node_block,
            max_breach_rate=args.max_breach_rate,
        )
    except ValueError as exc:
        print(f"invalid audit configuration: {exc}", file=sys.stderr)
        return 2
    try:
        with open(args.path) as fh:
            records = load_jsonl(fh)
        report = audit_from_records(
            records, config=config, meta={"source": args.path}
        )
    except OSError as exc:
        print(f"cannot read audit input: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"cannot parse trace: {exc}", file=sys.stderr)
        return 2

    if args.audit_format == "json":
        print(report.to_json())
    else:
        print(render_report(report))
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        print(f"audit report written to {args.out}")
    if args.diagram_csv is not None:
        with open(args.diagram_csv, "w") as fh:
            fh.write(reliability_diagram_csv(report))
        print(f"reliability diagram written to {args.diagram_csv}")
    if args.fail_on == "degraded" and report.status != AUDIT_STATUS_OK:
        print(f"audit status {report.status} (failing on degraded)", file=sys.stderr)
        return 1
    if args.fail_on == "violated" and report.status == AUDIT_STATUS_VIOLATED:
        print(f"audit status {report.status} (failing on violated)", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_lint

    return run_lint(
        args.paths,
        output_format=args.output_format,
        select=args.select,
        ignore=args.ignore,
        arch=args.arch,
    )


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    setup = _setup(args)
    print(
        generate_report(
            job_count=args.job_count,
            seed=setup.seed,
            figures=args.figures,
            jobs=args.jobs,
            # Timing is progress output, not part of the archival artifact.
            elapsed_to=sys.stderr,
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "figure": _cmd_figure,
        "table": _cmd_table,
        "run": _cmd_run,
        "headline": _cmd_headline,
        "suggest": _cmd_suggest,
        "export": _cmd_export,
        "gantt": _cmd_gantt,
        "report": _cmd_report,
        "obs": _cmd_obs,
        "prof": _cmd_prof,
        "trace": _cmd_trace,
        "audit": _cmd_audit,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
