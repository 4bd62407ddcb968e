"""Command-line interface: ``repro-bfs`` / ``python -m repro``.

Subcommands::

    repro-bfs list                       # available experiments
    repro-bfs run fig08 [--scale 15] [--save DIR]
    repro-bfs all [--scale 15] [--save DIR]
    repro-bfs bfs --scale 16 --edgefactor 16 [--m 64 --n 512] [--json]
    repro-bfs graph500 --scale 16 [--json]
    repro-bfs trace --scale 14 [--out PREFIX]
    repro-bfs profile --scale 12 [--flight-recorder] [--out DIR]
    repro-bfs monitor record|check|report|drift [--history PATH]
    repro-bfs lint|callgraph|dataflow|sanitize ...
    repro-bfs protocols [--machine NAME] [--format text|json|dot]
    repro-bfs info                       # architecture presets

``run``/``all`` regenerate the paper's tables and figures and print
them with paper-vs-measured notes; ``bfs`` runs a real traversal on
this machine and reports wall-clock TEPS; ``trace`` runs a traversal
with the :mod:`repro.obs` tracer enabled, writes a Perfetto-loadable
``.trace.json`` plus a JSONL event stream, and prints a span summary
and the switching-point mistuning report.

``profile`` is the continuous-profiling entry point
(:mod:`repro.obs.profile`): it runs repeated traversals under the
sampling stack profiler and per-span allocation windows, writes the
collapsed-stack flamegraph and merged Perfetto trace, and prints the
measured-vs-predicted *explain* report; ``--flight-recorder`` arms the
anomaly ring (``--inject-anomaly`` forces a 3x-slow traversal so CI can
assert a snapshot fires).  The ``bfs``/``graph500``/``trace`` commands
accept ``--profile`` / ``--flight-recorder`` to run the same machinery
around their normal flow; snapshot digests land in the run-history
meta either way.

``monitor`` is the longitudinal layer (:mod:`repro.obs.history` /
:mod:`repro.obs.monitor`): ``record`` appends an instrumented run to
the JSONL history store, ``check`` gates the newest run against the
rolling baseline (nonzero exit on regression — the CI gate), ``report``
prints the trajectory, and ``drift`` replays the stored audit verdicts
through the predictor drift monitor.

``lint``, ``callgraph``, ``dataflow`` and ``sanitize`` front the static
and runtime checks of :mod:`repro.analysis`; ``protocols`` lists the
typestate machines behind rules RPR023 and RPR024 and exports them as
Graphviz DOT.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from repro._version import __version__
from repro.obs.clock import now

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument grammar."""
    parser = argparse.ArgumentParser(
        prog="repro-bfs",
        description="Heuristic cross-architecture BFS combination "
        "(ICPP'14 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list available experiments")
    sub.add_parser("info", help="show architecture presets")

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment", help="experiment name (see 'list')")
    _common_bench_args(run_p)

    all_p = sub.add_parser("all", help="run every experiment")
    _common_bench_args(all_p)

    g5_p = sub.add_parser(
        "graph500", help="run the Graph 500 benchmark flow on this machine"
    )
    g5_p.add_argument("--scale", type=int, default=16)
    g5_p.add_argument("--edgefactor", type=int, default=16)
    g5_p.add_argument("--roots", type=int, default=16)
    g5_p.add_argument("--seed", type=int, default=0)
    g5_p.add_argument(
        "--engine",
        choices=("td", "bu", "hybrid"),
        default="hybrid",
    )
    g5_p.add_argument(
        "--json",
        action="store_true",
        help="emit the result as a JSON object on stdout",
    )
    g5_p.add_argument(
        "--no-audit",
        action="store_true",
        help="skip the switching-point audit in the JSON/history output",
    )
    _profile_args(g5_p)
    _history_arg(g5_p)

    lint_p = sub.add_parser(
        "lint", help="run the repro static-analysis rules (RPR001..)"
    )
    lint_p.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files/directories to lint (default: the installed package)",
    )
    lint_p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="fmt",
        help="report format",
    )
    lint_p.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    lint_p.add_argument(
        "--rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    lint_p.add_argument(
        "--deep",
        action="store_true",
        help="also run the deep dataflow/race/typestate rules "
        "(RPR010..RPR019, RPR023, RPR024)",
    )
    lint_p.add_argument(
        "--changed",
        action="store_true",
        help="report only on .py files changed vs HEAD (per git), scoped "
        "to the given paths; with --deep the whole project is still "
        "analyzed so interprocedural rules keep their context",
    )

    cg_p = sub.add_parser(
        "callgraph",
        help="build the whole-program call graph and query/export it",
    )
    cg_p.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files/directories to analyze (default: the installed package)",
    )
    cg_p.add_argument(
        "--format",
        choices=("text", "dot", "json"),
        default="text",
        dest="fmt",
        help="export format (text = stats summary)",
    )
    cg_p.add_argument(
        "--out",
        default=None,
        help="write the export to this file instead of stdout",
    )
    cg_p.add_argument(
        "--summaries",
        action="store_true",
        help="include/print the fixpoint per-function effect summaries",
    )
    cg_p.add_argument(
        "--who-writes",
        default=None,
        metavar="NAME",
        help="list functions whose fixpoint summary writes NAME "
        "(e.g. workspace.parent)",
    )
    cg_p.add_argument(
        "--who-calls",
        default=None,
        metavar="QNAME",
        help="list direct and transitive callers of a function qname",
    )
    cg_p.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help="JSON summary-cache file keyed by content hash "
        "(created if missing)",
    )
    cg_p.add_argument(
        "--write-baseline",
        default=None,
        metavar="PATH",
        help="write the whole-program baseline (stats + program-rule "
        "findings) to PATH and exit",
    )

    df_p = sub.add_parser(
        "dataflow",
        help="run only the deep dataflow/race rules (RPR010..RPR014)",
    )
    df_p.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files/directories to analyze (default: the installed package)",
    )
    df_p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="fmt",
        help="report format",
    )
    df_p.add_argument(
        "--effects",
        action="store_true",
        help="also print per-function read/write/escape effect summaries",
    )

    san_p = sub.add_parser(
        "sanitize",
        help="run a BFS under the runtime sanitizer + units audit",
    )
    san_p.add_argument("--scale", type=int, default=14)
    san_p.add_argument("--edgefactor", type=int, default=16)
    san_p.add_argument("--seed", type=int, default=0)
    san_p.add_argument(
        "--engine", choices=("td", "bu", "hybrid"), default="hybrid"
    )
    san_p.add_argument("--m", type=float, default=64.0, help="threshold M")
    san_p.add_argument("--n", type=float, default=512.0, help="threshold N")
    san_p.add_argument(
        "--skip-units",
        action="store_true",
        help="skip the cost-model dimensional-analysis audit",
    )

    bfs_p = sub.add_parser("bfs", help="run a real BFS on this machine")
    bfs_p.add_argument("--scale", type=int, default=16)
    bfs_p.add_argument("--edgefactor", type=int, default=16)
    bfs_p.add_argument("--seed", type=int, default=0)
    bfs_p.add_argument("--m", type=float, default=None, help="threshold M")
    bfs_p.add_argument("--n", type=float, default=None, help="threshold N")
    bfs_p.add_argument(
        "--engine",
        choices=("td", "bu", "hybrid", "auto"),
        default="auto",
        help="'auto' predicts (M, N) with the regression model",
    )
    bfs_p.add_argument(
        "--bottom-up",
        choices=("scan", "tiles"),
        default="scan",
        dest="bottom_up",
        help=(
            "bottom-up kernel family for hybrid/bu runs: 'scan' is the "
            "reference row scan, 'tiles' the bitmap-tile masked SpMV"
        ),
    )
    bfs_p.add_argument(
        "--json",
        action="store_true",
        help="emit the result as a JSON object on stdout",
    )
    bfs_p.add_argument(
        "--no-audit",
        action="store_true",
        help="skip the switching-point audit in the JSON/history output",
    )
    _profile_args(bfs_p)
    _history_arg(bfs_p)

    tr_p = sub.add_parser(
        "trace",
        help="run a traversal with tracing on and export the trace",
    )
    tr_p.add_argument("--scale", type=int, default=14)
    tr_p.add_argument("--edgefactor", type=int, default=16)
    tr_p.add_argument("--seed", type=int, default=0)
    tr_p.add_argument(
        "--engine",
        choices=("td", "bu", "hybrid", "parallel"),
        default="hybrid",
    )
    tr_p.add_argument("--m", type=float, default=64.0, help="threshold M")
    tr_p.add_argument("--n", type=float, default=512.0, help="threshold N")
    tr_p.add_argument(
        "--threads", type=int, default=4, help="workers for --engine parallel"
    )
    tr_p.add_argument(
        "--audit-candidates",
        type=int,
        default=500,
        help="candidate (M, N) pairs priced for the mistuning report",
    )
    tr_p.add_argument(
        "--no-audit",
        action="store_true",
        help="skip the switching-point mistuning report",
    )
    tr_p.add_argument(
        "--out",
        type=Path,
        default=Path("bfs"),
        help="output prefix: writes PREFIX.trace.json and PREFIX.jsonl",
    )
    _profile_args(tr_p)
    _history_arg(tr_p)

    pf_p = sub.add_parser(
        "profile",
        help="profile repeated traversals: flamegraph, allocation "
        "windows, explain report, flight recorder",
    )
    pf_p.add_argument("--scale", type=int, default=12)
    pf_p.add_argument("--edgefactor", type=int, default=16)
    pf_p.add_argument("--seed", type=int, default=0)
    pf_p.add_argument(
        "--engine", choices=("td", "bu", "hybrid"), default="hybrid"
    )
    pf_p.add_argument("--m", type=float, default=64.0, help="threshold M")
    pf_p.add_argument("--n", type=float, default=512.0, help="threshold N")
    pf_p.add_argument(
        "--bottom-up",
        choices=("scan", "tiles"),
        default="scan",
        dest="bottom_up",
        help="bottom-up kernel family (tags levels for the explain report)",
    )
    pf_p.add_argument(
        "--repeat",
        type=int,
        default=5,
        help="traversals to run (later ones reuse a warm workspace; "
        "the explain report describes the last)",
    )
    pf_p.add_argument(
        "--hz",
        type=float,
        default=997.0,
        help="sampling rate; the default resolves millisecond-scale "
        "traversals (the always-on default is 97 Hz)",
    )
    pf_p.add_argument(
        "--out",
        type=Path,
        default=Path("profile"),
        help="directory for the .collapsed / .trace.json artifacts",
    )
    pf_p.add_argument(
        "--no-sampler",
        action="store_true",
        help="skip the sampling stack profiler",
    )
    pf_p.add_argument(
        "--no-alloc",
        action="store_true",
        help="skip the per-span allocation windows",
    )
    pf_p.add_argument(
        "--flight-recorder",
        action="store_true",
        dest="flight_recorder",
        help="arm the anomaly flight recorder",
    )
    pf_p.add_argument(
        "--snapshot-dir",
        type=Path,
        default=None,
        dest="snapshot_dir",
        help="flight-recorder snapshot directory (default: OUT/snapshots)",
    )
    pf_p.add_argument(
        "--inject-anomaly",
        action="store_true",
        dest="inject_anomaly",
        help="record a synthetic 3x-slow traversal span after the real "
        "runs (arms the recorder; nonzero exit if no snapshot fires)",
    )
    pf_p.add_argument(
        "--json",
        action="store_true",
        help="emit the full profile payload as JSON on stdout",
    )
    _history_arg(pf_p)

    mon_p = sub.add_parser(
        "monitor",
        help="run-history recording, regression gates, drift reports",
    )
    mon_sub = mon_p.add_subparsers(dest="monitor_command")

    rec_p = mon_sub.add_parser(
        "record", help="run an instrumented graph500 flow and append it"
    )
    rec_p.add_argument("--scale", type=int, default=10)
    rec_p.add_argument("--edgefactor", type=int, default=16)
    rec_p.add_argument("--roots", type=int, default=8)
    rec_p.add_argument("--seed", type=int, default=0)
    rec_p.add_argument("--m", type=float, default=20.0, help="threshold M")
    rec_p.add_argument("--n", type=float, default=100.0, help="threshold N")
    rec_p.add_argument(
        "--audit-candidates",
        type=int,
        default=300,
        help="candidate (M, N) pairs priced for the audit verdict",
    )
    _history_arg(rec_p)

    chk_p = mon_sub.add_parser(
        "check",
        help="gate the newest run against the rolling baseline "
        "(nonzero exit on regression)",
    )
    chk_p.add_argument("--window", type=int, default=8)
    chk_p.add_argument("--min-samples", type=int, default=3)
    chk_p.add_argument("--kind", default=None)
    chk_p.add_argument("--workload", default=None)
    chk_p.add_argument("--json", action="store_true")
    _history_arg(chk_p)

    rep_p = mon_sub.add_parser(
        "report", help="print the recorded trajectory"
    )
    rep_p.add_argument("--tail", type=int, default=0, help="newest N only")
    rep_p.add_argument("--json", action="store_true")
    _history_arg(rep_p)

    dr_p = mon_sub.add_parser(
        "drift",
        help="replay stored audit verdicts through the drift monitor",
    )
    dr_p.add_argument("--window", type=int, default=8)
    dr_p.add_argument("--tolerance", type=float, default=1.25)
    dr_p.add_argument("--min-runs", type=int, default=3)
    dr_p.add_argument("--json", action="store_true")
    _history_arg(dr_p)

    proto_p = sub.add_parser(
        "protocols",
        help="list the typestate protocol machines (RPR023, RPR024) "
        "and export them as DOT",
    )
    proto_p.add_argument(
        "--machine",
        default=None,
        help="show only this machine (e.g. bfs-workspace)",
    )
    proto_p.add_argument(
        "--format",
        choices=("text", "json", "dot"),
        default="text",
        dest="fmt",
        help="report format (dot requires --machine or --dot-dir)",
    )
    proto_p.add_argument(
        "--dot-dir",
        type=Path,
        default=None,
        dest="dot_dir",
        help="write one Graphviz .dot file per machine into this "
        "directory (the CI artifact export)",
    )
    return parser


def _history_arg(p: argparse.ArgumentParser) -> None:
    is_monitor = p.prog.split()[-2:-1] == ["monitor"]
    p.add_argument(
        "--history",
        type=Path,
        # monitor subcommands always have a store; the run commands
        # record only when asked.
        default=Path("benchmarks/results/history/runs.jsonl")
        if is_monitor
        else None,
        help="run-history JSONL store "
        "(default: benchmarks/results/history/runs.jsonl"
        + ("" if is_monitor else "; omit to skip recording")
        + ")",
    )


def _profile_args(p: argparse.ArgumentParser) -> None:
    """The profiling ride-along flags shared by bfs/graph500/trace."""
    p.add_argument(
        "--profile",
        action="store_true",
        help="run under the sampling profiler + allocation windows and "
        "write flamegraph artifacts (see 'repro-bfs profile')",
    )
    p.add_argument(
        "--flight-recorder",
        action="store_true",
        dest="flight_recorder",
        help="arm the anomaly flight recorder around the run",
    )
    p.add_argument(
        "--snapshot-dir",
        type=Path,
        default=None,
        dest="snapshot_dir",
        help="flight-recorder snapshot directory "
        "(default: PROFILE_OUT/snapshots)",
    )
    p.add_argument(
        "--profile-out",
        type=Path,
        default=Path("profile"),
        dest="profile_out",
        help="directory for profiling artifacts",
    )


def _make_profile_session(args: argparse.Namespace, tracer, **context):
    """A :class:`~repro.obs.profile.ProfileSession` for the ride-along
    flags, or ``None`` when neither was given."""
    profiled = getattr(args, "profile", False)
    recorded = getattr(args, "flight_recorder", False)
    if not (profiled or recorded):
        return None
    from repro.obs.profile import ProfileSession

    snapshot_dir = args.snapshot_dir
    if recorded and snapshot_dir is None:
        snapshot_dir = args.profile_out / "snapshots"
    return ProfileSession(
        tracer,
        sampler=profiled,
        alloc=profiled,
        recorder=recorded,
        snapshot_dir=snapshot_dir,
        recorder_kwargs={"context": context},
    )


def _finish_profile(session, out_dir, stem: str, *, quiet: bool) -> dict:
    """Write a finished session's artifacts and fold its summary into
    history meta (the snapshot digests land in ``runs.jsonl`` here)."""
    if session is None:
        return {}
    report = session.report()
    meta: dict = {"profile": report}
    if session.sampler is not None or session.recorder is not None:
        paths = session.write_artifacts(out_dir, stem)
    else:
        paths = {}
    if session.recorder is not None and session.recorder.snapshots:
        meta["snapshots"] = [
            s.as_dict() for s in session.recorder.snapshots
        ]
    if quiet:
        return meta
    if paths:
        wrote = ", ".join(str(p) for p in paths.values())
        print(f"profile: wrote {wrote}")
    sampler = report.get("sampler")
    if sampler is not None:
        print(
            f"profile: {sampler['samples']} stack sample(s) at "
            f"{session.sampler.hz:g} Hz"
        )
    alloc = report.get("alloc")
    if alloc is not None:
        verdict = "clean" if alloc["clean"] else "ALLOCATING"
        print(
            f"profile: allocation windows {verdict} "
            f"({alloc['windows']} window(s), floor {alloc['size_floor']} B)"
        )
    rec = report.get("flight_recorder")
    if rec is not None:
        print(
            f"flight recorder: {len(rec['triggers'])} trigger(s), "
            f"{len(rec['snapshots'])} snapshot(s)"
        )
        for snap in rec["snapshots"]:
            print(
                f"  snapshot {snap['digest'][:16]} ({snap['reason']}) "
                f"-> {snap['path']}"
            )
    return meta


def _common_bench_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--scale", type=int, default=15, help="measured graph scale"
    )
    p.add_argument(
        "--save",
        type=Path,
        default=None,
        help="directory for result JSON files",
    )
    p.add_argument("--candidates", type=int, default=1000)
    _history_arg(p)


def _cmd_list() -> int:
    from repro.bench.experiments import REGISTRY

    for name in sorted(REGISTRY):
        print(name)
    return 0


def _cmd_info() -> int:
    from repro.arch import PRESETS
    from repro.arch.roofline import analyze

    for key, spec in PRESETS.items():
        point = analyze(spec)
        print(
            f"{key}: {spec.name} — {spec.cores} cores @ {spec.freq_ghz} GHz, "
            f"{spec.peak_sp_gflops} SP Gflops, {spec.measured_bw_gbs} GB/s "
            f"measured, RCMB(sp) {point.rcmb_sp:.2f}"
        )
    return 0


def _bench_config(args: argparse.Namespace):
    from repro.bench.runner import BenchConfig

    return BenchConfig(
        base_scale=args.scale,
        candidate_count=args.candidates,
        history_path=args.history,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.bench.experiments import REGISTRY, run_experiment

    if args.experiment not in REGISTRY:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"available: {', '.join(sorted(REGISTRY))}",
            file=sys.stderr,
        )
        return 2
    result = run_experiment(args.experiment, _bench_config(args))
    print(result.render())
    if args.save:
        path = result.save(args.save)
        print(f"saved: {path}")
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    from repro.bench.experiments import REGISTRY, run_experiment

    config = _bench_config(args)
    for name in sorted(REGISTRY):
        t0 = now()
        result = run_experiment(name, config)
        took = now() - t0
        print(result.render())
        print(f"[{name} in {took:.1f}s]")
        print()
        if args.save:
            result.save(args.save)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import RULES, deep_rule_codes, format_json, format_text, lint_paths
    from repro.errors import LintError

    if getattr(args, "rules", False):
        deep_rule_codes()  # force rule registration
        for code in sorted(RULES):
            rl = RULES[code]
            scope = " [hot-path only]" if rl.hot_path_only else ""
            scope += " [deep]" if rl.deep else ""
            print(f"{code}{scope}: {rl.summary}")
        return 0
    paths = args.paths
    if not paths:
        # Default to linting the installed package itself.
        import repro

        paths = [Path(repro.__file__).parent]
    select = getattr(args, "select", None)
    select = select.split(",") if select else None
    try:
        restrict_to = None
        if getattr(args, "changed", False):
            from repro.analysis import changed_python_files

            changed = changed_python_files(paths)
            if not changed:
                print("no changed Python files in scope")
                return 0
            # Analyze the full scope, report on the changed subset:
            # narrowing the *analysis* to changed files would silently
            # blind interprocedural rules (RPR015+) to violations whose
            # other half lives in an unchanged module.
            restrict_to = changed
        violations, checked = lint_paths(
            paths,
            select=select,
            deep=getattr(args, "deep", False),
            restrict_to=restrict_to,
        )
    except LintError as exc:
        print(f"lint error: {exc}", file=sys.stderr)
        return 2
    if args.fmt == "json":
        print(format_json(violations))
    elif violations:
        print(format_text(violations))
    if violations:
        print(
            f"{len(violations)} violation(s) in {checked} file(s)",
            file=sys.stderr,
        )
        return 1
    if args.fmt != "json":
        print(f"{checked} file(s) checked, no issues")
    return 0


def _cmd_callgraph(args: argparse.Namespace) -> int:
    """Build the whole-program call graph; export or query it."""
    from repro.analysis.callgraph import SummaryCache, build_project
    from repro.analysis.lint import iter_python_files
    from repro.errors import CallGraphError, LintError

    paths = args.paths
    if not paths:
        import repro

        paths = [Path(repro.__file__).parent]
    cache = SummaryCache(args.cache) if args.cache else None
    try:
        files = iter_python_files(paths)
        project = build_project(files, cache=cache)
    except (CallGraphError, LintError) as exc:
        print(f"callgraph error: {exc}", file=sys.stderr)
        return 2
    if cache is not None:
        cache.save()

    if args.write_baseline:
        from repro.analysis.program import program_report

        report = program_report(project)
        payload = {
            "schema": "repro.analysis.wholeprogram_baseline/1",
            "program_rules": sorted(report),
            "stats": project.stats(),
            "violations": {
                code: {
                    path: [[ln, col, msg] for ln, col, msg in triples]
                    for path, triples in sorted(buckets.items())
                }
                for code, buckets in report.items()
                if buckets
            },
        }
        text = json.dumps(payload, indent=2) + "\n"
        Path(args.write_baseline).write_text(text, encoding="utf-8")
        n = sum(
            len(t) for b in report.values() for t in b.values()
        )
        print(
            f"baseline written to {args.write_baseline} "
            f"({n} finding(s) over {project.stats()['functions']} functions)"
        )
        return 0

    if args.who_writes:
        writers = project.who_writes(args.who_writes)
        if writers:
            for qname in writers:
                info = project.functions[qname]
                print(f"{qname}  ({info.path}:{info.line})")
        else:
            print(f"no function writes `{args.who_writes}`")
        return 0

    if args.who_calls:
        target = args.who_calls
        if target not in project.functions:
            print(f"unknown function: {target}", file=sys.stderr)
            return 2
        callers = sorted(project.callers_of(target))
        if callers:
            for qname in callers:
                info = project.functions[qname]
                print(f"{qname}  ({info.path}:{info.line})")
        else:
            print(f"no callers of `{target}`")
        return 0

    if args.fmt == "dot":
        output = project.to_dot()
    elif args.fmt == "json":
        output = project.to_json(summaries=args.summaries)
    else:
        stats = project.stats()
        lines = ["whole-program call graph"]
        lines += [f"  {key}: {stats[key]}" for key in stats]
        output = "\n".join(lines) + "\n"
        if args.summaries:
            output += project.format_summaries()
    if args.out:
        Path(args.out).write_text(output, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(output)
    return 0


def _cmd_dataflow(args: argparse.Namespace) -> int:
    """Deep-rules-only lint pass plus optional effect-summary dump."""
    from repro.analysis import (
        deep_rule_codes,
        format_json,
        format_text,
        lint_paths,
    )
    from repro.errors import LintError

    paths = args.paths
    if not paths:
        import repro

        paths = [Path(repro.__file__).parent]
    try:
        violations, checked = lint_paths(
            paths, select=deep_rule_codes(), deep=True
        )
    except LintError as exc:
        print(f"dataflow error: {exc}", file=sys.stderr)
        return 2
    if args.fmt == "json":
        print(format_json(violations))
    elif violations:
        print(format_text(violations))
    if args.effects:
        import ast as _ast

        from repro.analysis import format_effects, module_effects, propagate
        from repro.analysis.lint import iter_python_files

        for file in iter_python_files(paths):
            try:
                tree = _ast.parse(
                    file.read_text(encoding="utf-8"), filename=str(file)
                )
            except (OSError, SyntaxError) as exc:
                print(f"effects error: {file}: {exc}", file=sys.stderr)
                return 2
            summaries = propagate(module_effects(tree))
            if summaries:
                print(f"# {file}")
                print(format_effects(summaries))
    if violations:
        print(
            f"{len(violations)} violation(s) in {checked} file(s)",
            file=sys.stderr,
        )
        return 1
    if args.fmt != "json":
        print(f"{checked} file(s) analyzed, no issues")
    return 0


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from repro.analysis import check_cost_model
    from repro.bfs import bfs_bottom_up, bfs_hybrid, bfs_top_down, pick_sources
    from repro.errors import SanitizerError
    from repro.graph import rmat

    print(
        f"generating R-MAT scale={args.scale} ef={args.edgefactor} "
        f"(seed {args.seed}) ..."
    )
    graph = rmat(args.scale, args.edgefactor, seed=args.seed)
    source = int(pick_sources(graph, 1, seed=args.seed)[0])
    print(f"graph: {graph!r}, source {source}, engine {args.engine}")

    rc = 0
    try:
        if args.engine == "td":
            result = bfs_top_down(graph, source, sanitize=True)
        elif args.engine == "bu":
            result = bfs_bottom_up(graph, source, sanitize=True)
        else:
            result = bfs_hybrid(
                graph, source, m=args.m, n=args.n, sanitize=True
            )
    except SanitizerError as exc:
        print(f"SANITIZER VIOLATION: {exc}", file=sys.stderr)
        rc = 1
    else:
        result.validate(graph)
        print(
            f"sanitizer: {result.num_levels} levels, "
            f"{result.num_reached} vertices, 0 invariant violations "
            f"(directions {result.directions})"
        )

    if not args.skip_units:
        failures = check_cost_model()
        if failures:
            for f in failures:
                print(f"UNITS VIOLATION: {f}", file=sys.stderr)
            rc = 1
        else:
            print(
                "units: cost model is dimensionally consistent "
                "(all level costs reduce to seconds)"
            )
    return rc


def _cmd_bfs(args: argparse.Namespace) -> int:
    from repro.arch import CPU_SANDY_BRIDGE, GPU_K20X
    from repro.bench.metrics import gteps
    from repro.bfs import bfs_bottom_up, bfs_hybrid, bfs_top_down, pick_sources
    from repro.graph import rmat
    from repro.obs import Tracer, use_tracer

    quiet = args.json
    if not quiet:
        print(
            f"generating R-MAT scale={args.scale} ef={args.edgefactor} ..."
        )
    graph = rmat(args.scale, args.edgefactor, seed=args.seed)
    source = int(pick_sources(graph, 1, seed=args.seed)[0])
    if not quiet:
        print(f"graph: {graph!r}, source {source}")

    # Kernel family actually in force: top-down runs never touch a
    # bottom-up kernel, so the flag is reported as such in the payload.
    kernel_family = "scan" if args.engine == "td" else args.bottom_up
    m = n = None
    if args.engine == "td":
        runner = lambda: bfs_top_down(graph, source)
    elif args.engine == "bu":
        if args.bottom_up == "tiles":
            from repro.linalg import bfs_bottom_up_tiles

            runner = lambda: bfs_bottom_up_tiles(graph, source)
        else:
            runner = lambda: bfs_bottom_up(graph, source)
    else:
        m, n = args.m, args.n
        if args.engine == "auto" and (m is None or n is None):
            from repro.bench.experiments._shared import train_default_predictor
            from repro.bench.runner import BenchConfig

            predictor = train_default_predictor(
                BenchConfig(base_scale=max(args.scale - 1, 12))
            )
            pm, pn = predictor.predict_mn(graph, CPU_SANDY_BRIDGE, GPU_K20X)
            # Only the threshold left unset is predicted; one given on
            # the command line is used as is.
            if not quiet:
                predicted = " ".join(
                    f"{name}={value:.1f}"
                    for name, value, given in (
                        ("M", pm, m), ("N", pn, n)
                    )
                    if given is None
                )
                print(f"predicted switching point: {predicted}")
            m = pm if m is None else m
            n = pn if n is None else n
        m = 64.0 if m is None else m
        n = 512.0 if n is None else n
        runner = lambda: bfs_hybrid(
            graph, source, m=m, n=n, bottom_up=args.bottom_up
        )

    workload = f"rmat-s{args.scale}-ef{args.edgefactor}-{args.engine}"
    tracer = Tracer()
    session = _make_profile_session(
        args, tracer, command="bfs", workload=workload, source=source
    )
    if session is not None and session.recorder is not None:
        from repro.obs.profile import graph_fingerprint

        session.recorder.context["graph"] = graph_fingerprint(graph)
    with session or contextlib.nullcontext(), use_tracer(tracer):
        t0 = now()
        result = runner()
        took = now() - t0
        result.validate(graph)
        traversed = result.traversed_edges(graph)

        # The audit verdict only exists for a (M, N)-parameterized run.
        report = None
        if m is not None and not args.no_audit:
            from repro.arch.costmodel import CostModel
            from repro.bfs import profile_bfs
            from repro.obs import audit_switching_point

            profile, _ = profile_bfs(graph, source)
            report = audit_switching_point(
                profile,
                CostModel(CPU_SANDY_BRIDGE),
                m,
                n,
                count=300,
                seed=args.seed,
                scale=args.scale,
                edgefactor=args.edgefactor,
            )

    profile_meta = _finish_profile(
        session,
        getattr(args, "profile_out", Path("profile")),
        f"bfs-s{args.scale}-{args.engine}",
        quiet=quiet,
    )
    teps = traversed / took if took > 0 else 0.0
    payload = {
        "scale": args.scale,
        "edgefactor": args.edgefactor,
        "seed": args.seed,
        "engine": args.engine,
        "kernel_family": kernel_family,
        "source": source,
        "m": m,
        "n": n,
        "levels": result.num_levels,
        "reached": result.num_reached,
        "directions": list(result.directions),
        "traversed_edges": int(traversed),
        "seconds": took,
        "gteps": gteps(traversed, took),
        "validated": True,
        # Shared schema with history entries (see repro.obs.history):
        # the registry snapshot and the audit verdict dict.
        "metrics": tracer.metrics.snapshot(),
        "audit": None if report is None else report.as_dict(),
        **profile_meta,
    }
    _append_history(
        args.history,
        "bfs",
        workload,
        tracer=tracer,
        teps=teps,
        audit=report,
        quiet=quiet,
        seed=args.seed,
        m=m,
        n=n,
        **profile_meta,
    )
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"levels={result.num_levels} reached={result.num_reached} "
        f"directions={result.directions}"
    )
    print(
        f"wall-clock {took:.3f}s, "
        f"{gteps(traversed, took):.4f} GTEPS (validated)"
    )
    if report is not None:
        print()
        print(report.render())
    return 0


def _append_history(
    path,
    kind: str,
    workload: str,
    *,
    tracer=None,
    teps=None,
    audit=None,
    quiet: bool = False,
    **meta,
):
    """Append one run to the JSONL history store when ``path`` is set."""
    if path is None:
        return None
    from repro.obs.history import HistoryStore, snapshot_run

    record = snapshot_run(
        kind, workload, tracer=tracer, teps=teps, audit=audit, **meta
    )
    store = HistoryStore(path)
    store.append(record)
    if not quiet:
        print(f"history: appended {kind}/{workload} to {store.path}")
    return record


def _cmd_graph500(args: argparse.Namespace) -> int:
    from repro.bfs import bfs_bottom_up, bfs_top_down
    from repro.graph500 import HybridEngine, run_graph500
    from repro.obs import Tracer, use_tracer

    hybrid = args.engine == "hybrid"
    engine = {
        "td": bfs_top_down,
        "bu": bfs_bottom_up,
        # Workspace-caching engine: the 64-root loop reuses one set of
        # graph-sized arrays instead of allocating per traversal.
        "hybrid": HybridEngine(),
    }[args.engine]
    if not args.json:
        print(
            f"running Graph 500 flow: SCALE={args.scale} "
            f"edgefactor={args.edgefactor} NBFS={args.roots} "
            f"engine={args.engine} ..."
        )
    workload = f"rmat-s{args.scale}-ef{args.edgefactor}-r{args.roots}"
    tracer = Tracer()
    session = _make_profile_session(
        args, tracer, command="graph500", workload=workload
    )
    with session or contextlib.nullcontext(), use_tracer(tracer):
        result = run_graph500(
            args.scale,
            args.edgefactor,
            num_roots=args.roots,
            engine=engine,
            seed=args.seed,
            tracer=tracer,
            recorder=None if session is None else session.recorder,
        )
        report = None
        if hybrid and not args.no_audit:
            report = _graph500_audit(args, tracer)

    profile_meta = _finish_profile(
        session,
        getattr(args, "profile_out", Path("profile")),
        f"graph500-s{args.scale}-{args.engine}",
        quiet=args.json,
    )
    payload = {
        "scale": result.scale,
        "edgefactor": result.edgefactor,
        "nbfs": result.num_roots,
        "engine": args.engine,
        "seed": args.seed,
        "construction_seconds": result.construction_seconds,
        "validated": result.validated,
        "roots": [int(r) for r in result.roots],
        "time_stats": result.time_stats.as_dict(),
        "teps_stats": result.teps_stats.as_dict(),
        "harmonic_mean_teps": result.harmonic_mean_teps,
        # Shared schema with history entries (see repro.obs.history).
        "metrics": tracer.metrics.snapshot(),
        "audit": None if report is None else report.as_dict(),
        **profile_meta,
    }
    _append_history(
        args.history,
        "graph500",
        workload,
        tracer=tracer,
        teps=result.harmonic_mean_teps,
        audit=report,
        quiet=args.json,
        seed=args.seed,
        engine=args.engine,
        **profile_meta,
    )
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(result.summary())
    print(
        f"\nheadline: {result.harmonic_mean_teps / 1e9:.4f} GTEPS "
        "(harmonic mean, all roots validated)"
    )
    if report is not None:
        print()
        print(report.render())
    return 0


def _graph500_audit(args: argparse.Namespace, tracer):
    """The switching-point verdict for a graph500 hybrid run: audit the
    engine's (M, N) against the sweep on a measured profile of the same
    graph."""
    from repro.arch import CPU_SANDY_BRIDGE
    from repro.arch.costmodel import CostModel
    from repro.bfs import pick_sources, profile_bfs
    from repro.graph import rmat
    from repro.graph500 import HybridEngine
    from repro.obs import audit_switching_point

    graph = rmat(args.scale, args.edgefactor, seed=args.seed)
    source = int(pick_sources(graph, 1, seed=args.seed)[0])
    profile, _ = profile_bfs(graph, source)
    engine_defaults = HybridEngine()
    return audit_switching_point(
        profile,
        CostModel(CPU_SANDY_BRIDGE),
        engine_defaults.m,
        engine_defaults.n,
        count=getattr(args, "audit_candidates", 300),
        seed=args.seed,
        tracer=tracer,
        scale=args.scale,
        edgefactor=args.edgefactor,
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.arch import CPU_SANDY_BRIDGE
    from repro.bfs import (
        ParallelBFS,
        bfs_bottom_up,
        bfs_hybrid,
        bfs_top_down,
        pick_sources,
        profile_bfs,
    )
    from repro.graph import rmat
    from repro.obs import (
        Tracer,
        audit_switching_point,
        use_tracer,
        validate_chrome_trace,
        write_chrome_trace,
        write_jsonl,
    )
    from repro.arch.costmodel import CostModel

    print(
        f"generating R-MAT scale={args.scale} ef={args.edgefactor} "
        f"(seed {args.seed}) ..."
    )
    graph = rmat(args.scale, args.edgefactor, seed=args.seed)
    source = int(pick_sources(graph, 1, seed=args.seed)[0])
    print(f"graph: {graph!r}, source {source}, engine {args.engine}")

    workload = f"rmat-s{args.scale}-ef{args.edgefactor}-{args.engine}"
    tracer = Tracer()
    session = _make_profile_session(
        args, tracer, command="trace", workload=workload, source=source
    )
    if session is not None and session.recorder is not None:
        from repro.obs.profile import graph_fingerprint

        session.recorder.context["graph"] = graph_fingerprint(graph)
    with session or contextlib.nullcontext(), use_tracer(tracer):
        if args.engine == "td":
            result = bfs_top_down(graph, source)
        elif args.engine == "bu":
            result = bfs_bottom_up(graph, source)
        elif args.engine == "parallel":
            from repro.bfs.hybrid import MNPolicy

            with ParallelBFS(
                num_threads=args.threads,
                policy=MNPolicy(m=args.m, n=args.n),
            ) as engine:
                result = engine.run(graph, source)
        else:
            result = bfs_hybrid(graph, source, m=args.m, n=args.n)
        result.validate(graph)

        report = None
        if not args.no_audit:
            profile, _ = profile_bfs(graph, source)
            report = audit_switching_point(
                profile,
                CostModel(CPU_SANDY_BRIDGE),
                args.m,
                args.n,
                count=args.audit_candidates,
                seed=args.seed,
                scale=args.scale,
                edgefactor=args.edgefactor,
            )

    meta = {
        "scale": args.scale,
        "edgefactor": args.edgefactor,
        "seed": args.seed,
        "engine": args.engine,
        "source": source,
    }
    trace_path = args.out.with_name(args.out.name + ".trace.json")
    jsonl_path = args.out.with_name(args.out.name + ".jsonl")
    write_chrome_trace(tracer, trace_path, **meta)
    events = validate_chrome_trace(trace_path)
    lines = write_jsonl(tracer, jsonl_path, **meta)

    print()
    print(f"{'span':<24} {'count':>5} {'total_ms':>10} {'mean_ms':>10}")
    for row in tracer.summary_rows():
        print(
            f"{row['span']:<24} {row['count']:>5} "
            f"{row['total_ms']:>10.3f} {row['mean_ms']:>10.3f}"
        )
    print(
        f"\nlevels={result.num_levels} reached={result.num_reached} "
        f"directions={result.directions}"
    )
    if report is not None:
        print()
        print(report.render())
    print(
        f"\nwrote {trace_path} ({events} trace events, validated) and "
        f"{jsonl_path} ({lines} lines)"
    )
    profile_meta = _finish_profile(
        session,
        getattr(args, "profile_out", Path("profile")),
        f"trace-s{args.scale}-{args.engine}",
        quiet=False,
    )
    _append_history(
        args.history,
        "trace",
        workload,
        tracer=tracer,
        audit=report,
        seed=args.seed,
        m=args.m,
        n=args.n,
        **profile_meta,
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.arch import CPU_SANDY_BRIDGE, TENSOR_TILE
    from repro.arch.costmodel import CostModel
    from repro.bench.metrics import gteps
    from repro.bfs import pick_sources, profile_bfs
    from repro.bfs.timing import timed_bfs
    from repro.bfs.workspace import BFSWorkspace
    from repro.graph import rmat
    from repro.obs import use_tracer, validate_chrome_trace
    from repro.obs.profile import (
        ProfileSession,
        explain_traversal,
        graph_fingerprint,
        validate_collapsed,
        validate_snapshot,
    )

    quiet = args.json
    if args.repeat < 1:
        print(f"--repeat must be >= 1, got {args.repeat}", file=sys.stderr)
        return 2
    if not quiet:
        print(
            f"generating R-MAT scale={args.scale} ef={args.edgefactor} "
            f"(seed {args.seed}) ..."
        )
    graph = rmat(args.scale, args.edgefactor, seed=args.seed)
    source = int(pick_sources(graph, 1, seed=args.seed)[0])
    workload = f"rmat-s{args.scale}-ef{args.edgefactor}-{args.engine}"
    if not quiet:
        print(
            f"graph: {graph!r}, source {source}, engine {args.engine}, "
            f"{args.repeat} traversal(s) at {args.hz:g} Hz"
        )

    recorder_on = args.flight_recorder or args.inject_anomaly
    snapshot_dir = args.snapshot_dir
    if recorder_on and snapshot_dir is None:
        snapshot_dir = args.out / "snapshots"
    session = ProfileSession(
        sampler=not args.no_sampler,
        hz=args.hz,
        alloc=not args.no_alloc,
        # "Graph-sized" is the allocation-freedom bar: anything smaller
        # than one vertex-indexed array is per-level churn, not a
        # falsification of the warm-workspace claim.
        size_floor=8 * graph.num_vertices,
        recorder=recorder_on,
        snapshot_dir=snapshot_dir,
        recorder_kwargs={
            # The baseline must be learned before the injected span
            # closes, so cap the warmup below the real-run count.
            "warmup": min(3, args.repeat),
            "context": {
                "command": "profile",
                "workload": workload,
                "source": source,
                "graph": graph_fingerprint(graph),
            },
        },
    )

    kwargs: dict = {"bottom_up": args.bottom_up}
    if args.engine in ("td", "bu"):
        kwargs["direction"] = args.engine
    else:
        kwargs["m"] = args.m
        kwargs["n"] = args.n
    ws = BFSWorkspace(graph.num_vertices)
    # One untracked warm-up traversal grows the workspace's scratch
    # buffers to their steady-state sizes, so the profiled windows
    # measure the warm kernels (the allocation-freedom claim under
    # test), not first-run buffer growth.
    timed_bfs(graph, source, workspace=ws, **kwargs)
    with session, use_tracer(session.tracer):
        for _ in range(args.repeat):
            run = timed_bfs(
                graph,
                source,
                workspace=ws,
                tracer=session.tracer,
                **kwargs,
            )
        run.result.validate(graph)
        if args.inject_anomaly:
            # A synthetic traversal root 3x slower than the slowest
            # real one: must clear the recorder's 2.5x-median bar.
            worst = max(
                r.duration
                for r in session.tracer.spans()
                if r.name == "bfs.timed"
            )
            session.tracer.add_span(
                "bfs.timed", 0.0, 3.0 * worst, injected=True
            )

    # The explain join: profiled counters (model input) + the last
    # run's measured level seconds.  The profile traversal runs after
    # the session so it cannot pollute the allocation windows.
    profile, _ = profile_bfs(graph, source)
    model = CostModel(CPU_SANDY_BRIDGE)
    tile_model = (
        CostModel(TENSOR_TILE) if args.bottom_up == "tiles" else None
    )
    report = explain_traversal(
        run,
        profile,
        model,
        tile_model=tile_model,
        tracer=session.tracer,
    )

    stem = f"profile-s{args.scale}-{args.engine}"
    paths = session.write_artifacts(args.out, stem)
    samples = None
    if "collapsed" in paths:
        samples = validate_collapsed(
            paths["collapsed"].read_text(encoding="utf-8")
        )
    events = validate_chrome_trace(paths["trace"])
    for snap in session.recorder.snapshots if session.recorder else ():
        validate_snapshot(snap.path)

    session_report = session.report()
    traversed = run.result.traversed_edges(graph)
    teps = (
        traversed / run.total_seconds if run.total_seconds > 0 else 0.0
    )
    meta: dict = {
        "engine": args.engine,
        "kernel_family": args.bottom_up,
        "repeat": args.repeat,
        "hz": args.hz,
        "profile": session_report,
        "explain": report.as_dict(),
    }
    if session.recorder is not None and session.recorder.snapshots:
        meta["snapshots"] = [
            s.as_dict() for s in session.recorder.snapshots
        ]
    _append_history(
        args.history,
        "profile",
        workload,
        tracer=session.tracer,
        teps=teps,
        quiet=quiet,
        seed=args.seed,
        **meta,
    )

    if args.json:
        payload = {
            "scale": args.scale,
            "edgefactor": args.edgefactor,
            "seed": args.seed,
            "source": source,
            "levels": run.result.num_levels,
            "reached": run.result.num_reached,
            "gteps": gteps(traversed, run.total_seconds),
            "samples": samples,
            "trace_events": events,
            "artifacts": {k: str(p) for k, p in paths.items()},
            **meta,
        }
        print(json.dumps(payload, indent=2))
    else:
        print()
        print(report.render())
        print()
        if samples is not None:
            top = sorted(
                session.sampler.span_seconds().items(),
                key=lambda kv: kv[1],
                reverse=True,
            )[:4]
            where = ", ".join(f"{tag} {s:.3f}s" for tag, s in top)
            print(f"sampler: {samples} sample(s); hottest spans: {where}")
        alloc = session_report.get("alloc")
        if alloc is not None:
            verdict = (
                "clean — the warm workspace allocated nothing graph-sized"
                if alloc["clean"]
                else "ALLOCATING (see per-kernel rows in the history meta)"
            )
            print(f"alloc: {verdict} ({alloc['windows']} window(s))")
        rec = session_report.get("flight_recorder")
        if rec is not None:
            print(
                f"flight recorder: {len(rec['triggers'])} trigger(s), "
                f"{len(rec['snapshots'])} snapshot(s)"
            )
            for snap in rec["snapshots"]:
                print(
                    f"  snapshot {snap['digest'][:16]} ({snap['reason']})"
                    f" -> {snap['path']} (validated)"
                )
        wrote = ", ".join(str(p) for p in paths.values())
        print(f"wrote {wrote} ({events} trace events, validated)")

    if args.inject_anomaly and not (
        session.recorder and session.recorder.snapshots
    ):
        print(
            "inject-anomaly: no flight-recorder snapshot fired",
            file=sys.stderr,
        )
        return 1
    return 0


def _history_store(args: argparse.Namespace):
    from repro.obs.history import HistoryStore

    return HistoryStore(args.history)


def _cmd_monitor(args: argparse.Namespace) -> int:
    if args.monitor_command == "record":
        return _cmd_monitor_record(args)
    if args.monitor_command == "check":
        return _cmd_monitor_check(args)
    if args.monitor_command == "report":
        return _cmd_monitor_report(args)
    if args.monitor_command == "drift":
        return _cmd_monitor_drift(args)
    print("usage: repro-bfs monitor {record,check,report,drift} ...",
          file=sys.stderr)
    return 2


def _cmd_monitor_record(args: argparse.Namespace) -> int:
    from repro.arch import CPU_SANDY_BRIDGE
    from repro.arch.costmodel import CostModel
    from repro.bfs import pick_sources, profile_bfs
    from repro.graph import rmat
    from repro.graph500 import HybridEngine, run_graph500
    from repro.obs import Tracer, audit_switching_point, use_tracer

    workload = f"rmat-s{args.scale}-ef{args.edgefactor}-r{args.roots}"
    print(f"recording graph500/{workload} (m={args.m} n={args.n}) ...")
    tracer = Tracer()
    with use_tracer(tracer):
        result = run_graph500(
            args.scale,
            args.edgefactor,
            num_roots=args.roots,
            engine=HybridEngine(m=args.m, n=args.n),
            seed=args.seed,
            tracer=tracer,
        )
        graph = rmat(args.scale, args.edgefactor, seed=args.seed)
        source = int(pick_sources(graph, 1, seed=args.seed)[0])
        profile, _ = profile_bfs(graph, source)
        report = audit_switching_point(
            profile,
            CostModel(CPU_SANDY_BRIDGE),
            args.m,
            args.n,
            count=args.audit_candidates,
            seed=args.seed,
            tracer=tracer,
            scale=args.scale,
            edgefactor=args.edgefactor,
        )
    record = _append_history(
        args.history,
        "graph500",
        workload,
        tracer=tracer,
        teps=result.harmonic_mean_teps,
        audit=report,
        seed=args.seed,
        m=args.m,
        n=args.n,
    )
    print(
        f"  harmonic-mean TEPS {record.teps:.4g}, audit slowdown "
        f"{report.slowdown:.3f}x ({'MISTUNED' if report.is_mistuned() else 'well-tuned'})"
    )
    return 0


def _cmd_monitor_check(args: argparse.Namespace) -> int:
    from repro.errors import MonitorError
    from repro.obs.monitor import detect_regressions

    store = _history_store(args)
    records = store.read()
    if store.last_skipped and not args.json:
        for lineno, reason in store.last_skipped:
            print(
                f"note: skipped corrupt history line {lineno}: {reason}",
                file=sys.stderr,
            )
    try:
        report = detect_regressions(
            records,
            window=args.window,
            min_samples=args.min_samples,
            kind=args.kind,
            workload=args.workload,
        )
    except MonitorError as exc:
        print(f"monitor check: {exc}", file=sys.stderr)
        return 2
    print(report.to_json() if args.json else report.render())
    return report.exit_code


def _cmd_monitor_report(args: argparse.Namespace) -> int:
    store = _history_store(args)
    records = store.read()
    if args.tail:
        records = records[-args.tail:]
    if args.json:
        print(json.dumps([r.as_dict() for r in records], indent=2))
        return 0
    if not records:
        print(f"history {store.path}: no records")
        return 0
    print(f"history {store.path}: {len(records)} record(s)")
    header = (
        f"{'timestamp':<26} {'kind':<16} {'workload':<28} "
        f"{'teps':>10} {'audit':>8}"
    )
    print(header)
    for r in records:
        teps = "-" if r.teps is None else f"{r.teps:.3g}"
        slowdown = "-"
        if isinstance(r.audit, dict) and isinstance(
            r.audit.get("slowdown"), (int, float)
        ):
            slowdown = f"{r.audit['slowdown']:.3f}x"
        print(
            f"{r.timestamp:<26} {r.kind:<16} {r.workload:<28} "
            f"{teps:>10} {slowdown:>8}"
        )
    if store.last_skipped:
        print(f"({len(store.last_skipped)} corrupt line(s) skipped)")
    return 0


def _cmd_monitor_drift(args: argparse.Namespace) -> int:
    from repro.obs.monitor import DriftMonitor

    store = _history_store(args)
    monitor = DriftMonitor(
        window=args.window,
        tolerance=args.tolerance,
        min_runs=args.min_runs,
    )
    audited = 0
    for record in store.read():
        if not isinstance(record.audit, dict):
            continue
        slowdown = record.audit.get("slowdown")
        if not isinstance(slowdown, (int, float)) or slowdown < 1.0:
            continue
        arch = str(record.audit.get("arch") or "default")
        family = str(record.meta.get("family") or record.workload)
        monitor.observe(slowdown, family=family, arch=arch)
        audited += 1
    if args.json:
        print(
            json.dumps(
                {
                    "audited_runs": audited,
                    "tolerance": args.tolerance,
                    "series": monitor.state(),
                    "alerts": [a.as_dict() for a in monitor.alerts],
                },
                indent=2,
            )
        )
        return 1 if monitor.alerts else 0
    print(
        f"drift: replayed {audited} audited run(s) from {store.path} "
        f"(window {args.window}, tolerance {args.tolerance}x)"
    )
    for key, state in monitor.state().items():
        flag = "DRIFTING" if state["drifting"] else "ok"
        print(
            f"  {key}: {state['runs']} run(s), windowed mean "
            f"{state['mean_slowdown']:.3f}x — {flag}"
        )
    for alert in monitor.alerts:
        print(f"  {alert.render()}")
    return 1 if monitor.alerts else 0


def _cmd_protocols(args: argparse.Namespace) -> int:
    """List/export the typestate protocol state machines."""
    from repro.analysis.typestate import PROTOCOLS, get_protocol
    from repro.errors import AnalysisError

    try:
        if args.machine is not None:
            specs = [get_protocol(args.machine)]
        else:
            specs = [PROTOCOLS[name] for name in sorted(PROTOCOLS)]
    except AnalysisError as exc:
        print(f"protocols: {exc}", file=sys.stderr)
        return 2
    if args.dot_dir is not None:
        args.dot_dir.mkdir(parents=True, exist_ok=True)
        for spec in specs:
            out = args.dot_dir / f"{spec.name}.dot"
            out.write_text(spec.to_dot(), encoding="utf-8")
            print(f"wrote {out}")
        return 0
    if args.fmt == "dot":
        if len(specs) != 1:
            print(
                "protocols: --format dot needs --machine (or use "
                "--dot-dir for all machines)",
                file=sys.stderr,
            )
            return 2
        print(specs[0].to_dot())
        return 0
    if args.fmt == "json":
        print(json.dumps([spec.as_dict() for spec in specs], indent=2))
        return 0
    for spec in specs:
        accepting = ", ".join(sorted(spec.accepting))
        print(f"{spec.name} — {spec.subject}")
        print(f"  {spec.description}")
        print(
            f"  states: {', '.join(spec.states)} "
            f"(initial: {spec.initial}; accepting: {accepting})"
        )
        if spec.owner_rule:
            print(f"  lint rule: {spec.owner_rule}")
        for state, event, nxt in spec.transitions:
            print(f"    {state} --{event}--> {nxt}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    A library error no command handles is reported as one stderr line,
    ``repro-bfs: <ErrorClass>: <message>``, with exit status 2; so is a
    file the command cannot open or create (``repro-bfs: <path>:
    <reason>``).
    """
    from repro.errors import ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(parser, args)
    except ReproError as exc:
        print(f"repro-bfs: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if exc.filename is None:
            raise
        print(f"repro-bfs: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


def _dispatch(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "info":
        return _cmd_info()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "all":
        return _cmd_all(args)
    if args.command == "bfs":
        return _cmd_bfs(args)
    if args.command == "graph500":
        return _cmd_graph500(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "monitor":
        return _cmd_monitor(args)
    if args.command == "protocols":
        return _cmd_protocols(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "callgraph":
        return _cmd_callgraph(args)
    if args.command == "dataflow":
        return _cmd_dataflow(args)
    if args.command == "sanitize":
        return _cmd_sanitize(args)
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
