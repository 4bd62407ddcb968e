"""Command-line interface: ``repro-bfs`` / ``python -m repro``.

Subcommands::

    repro-bfs list                       # available experiments
    repro-bfs run fig08 [--scale 15] [--save DIR]
    repro-bfs all [--scale 15] [--save DIR]
    repro-bfs bfs --scale 16 --edgefactor 16 [--m 20 --n 100] [--json]
    repro-bfs graph500 --scale 16 [--json]
    repro-bfs trace --scale 14 [--out PREFIX]
    repro-bfs profile --scale 12 [--repeat 5] [--out DIR]
    repro-bfs monitor record|check|report [--history PATH]
    repro-bfs lint|callgraph|sanitize ...
    repro-bfs info                       # architecture presets

``run``/``all`` regenerate the paper's tables and figures and print
them with paper-vs-measured notes; ``bfs`` runs a real traversal on
this machine and reports wall-clock TEPS; ``trace`` runs a traversal
with the :mod:`repro.obs` tracer enabled, writes a Perfetto-loadable
``.trace.json`` plus a JSONL event stream, and prints a span summary
and the switching-point mistuning report.

``profile`` is the profiling entry point (:mod:`repro.obs.profile`):
it runs repeated traversals under per-level allocation windows, then
one more with the windows off, writes the Perfetto trace, and prints
the allocation verdict and the measured-vs-predicted *explain* report
of the un-windowed traversal.

``monitor`` is the longitudinal layer (:mod:`repro.obs.history` /
:mod:`repro.obs.monitor`): ``record`` appends an instrumented run to
the JSONL history store, ``check`` gates the newest run against the
rolling baseline (nonzero exit on regression — the CI gate), and
``report`` prints the trajectory.

``lint``, ``callgraph`` and ``sanitize`` front the static and runtime
checks of :mod:`repro.analysis`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro._version import __version__
from repro.obs.clock import now

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument grammar."""
    from repro.bfs.hybrid import DEFAULT_M, DEFAULT_N

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
        help="also run the deep dataflow and whole-program rules "
        "(RPR010, RPR012, RPR015, RPR019)",
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
        "--write-baseline",
        default=None,
        metavar="PATH",
        help="write the whole-program baseline (stats + program-rule "
        "findings) to PATH and exit",
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
    san_p.add_argument("--m", type=float, default=DEFAULT_M, help="threshold M")
    san_p.add_argument("--n", type=float, default=DEFAULT_N, help="threshold N")
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
        "--json",
        action="store_true",
        help="emit the result as a JSON object on stdout",
    )
    bfs_p.add_argument(
        "--no-audit",
        action="store_true",
        help="skip the switching-point audit in the JSON/history output",
    )
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
    tr_p.add_argument("--m", type=float, default=DEFAULT_M, help="threshold M")
    tr_p.add_argument("--n", type=float, default=DEFAULT_N, help="threshold N")
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
    _history_arg(tr_p)

    pf_p = sub.add_parser(
        "profile",
        help="profile repeated traversals: allocation windows, "
        "explain report",
    )
    pf_p.add_argument("--scale", type=int, default=12)
    pf_p.add_argument("--edgefactor", type=int, default=16)
    pf_p.add_argument("--seed", type=int, default=0)
    pf_p.add_argument(
        "--engine", choices=("td", "bu", "hybrid"), default="hybrid"
    )
    pf_p.add_argument("--m", type=float, default=DEFAULT_M, help="threshold M")
    pf_p.add_argument("--n", type=float, default=DEFAULT_N, help="threshold N")
    pf_p.add_argument(
        "--repeat",
        type=int,
        default=5,
        help="traversals to run under allocation windows (on a warm "
        "workspace; the explain report times one more, un-windowed)",
    )
    pf_p.add_argument(
        "--out",
        type=Path,
        default=Path("profile"),
        help="directory for the .trace.json artifact",
    )
    pf_p.add_argument(
        "--json",
        action="store_true",
        help="emit the full profile payload as JSON on stdout",
    )
    _history_arg(pf_p)

    mon_p = sub.add_parser(
        "monitor",
        help="run-history recording, regression gates, trajectory reports",
    )
    mon_sub = mon_p.add_subparsers(dest="monitor_command")

    rec_p = mon_sub.add_parser(
        "record", help="run an instrumented graph500 flow and append it"
    )
    rec_p.add_argument("--scale", type=int, default=10)
    rec_p.add_argument("--edgefactor", type=int, default=16)
    rec_p.add_argument("--roots", type=int, default=8)
    rec_p.add_argument("--seed", type=int, default=0)
    rec_p.add_argument("--m", type=float, default=DEFAULT_M, help="threshold M")
    rec_p.add_argument("--n", type=float, default=DEFAULT_N, help="threshold N")
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
            # blind the whole-program rules to violations whose
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
    from repro.analysis.callgraph import build_project
    from repro.analysis.lint import iter_python_files
    from repro.errors import CallGraphError, LintError

    paths = args.paths
    if not paths:
        import repro

        paths = [Path(repro.__file__).parent]
    try:
        project = build_project(iter_python_files(paths))
    except (CallGraphError, LintError) as exc:
        print(f"callgraph error: {exc}", file=sys.stderr)
        return 2

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
    from repro.bfs.hybrid import DEFAULT_M, DEFAULT_N
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

    m = n = None
    if args.engine == "td":
        runner = lambda: bfs_top_down(graph, source)
    elif args.engine == "bu":
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
        m = DEFAULT_M if m is None else m
        n = DEFAULT_N if n is None else n
        runner = lambda: bfs_hybrid(graph, source, m=m, n=n)

    workload = f"rmat-s{args.scale}-ef{args.edgefactor}-{args.engine}"
    tracer = Tracer()
    with use_tracer(tracer):
        t0 = now()
        result = runner()
        took = now() - t0
        result.validate(graph)
        traversed = result.traversed_edges(graph)

        # The audit verdict only exists for a (M, N)-parameterized run.
        report = None
        if m is not None and not args.no_audit:
            report = _audit(args, graph, source, m, n, count=300)

    teps = traversed / took if took > 0 else 0.0
    payload = {
        "scale": args.scale,
        "edgefactor": args.edgefactor,
        "seed": args.seed,
        "engine": args.engine,
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
    from repro.bfs import bfs_bottom_up, bfs_top_down, pick_sources
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
    with use_tracer(tracer):
        result = run_graph500(
            args.scale,
            args.edgefactor,
            num_roots=args.roots,
            engine=engine,
            seed=args.seed,
            tracer=tracer,
        )
        # Audit the engine's (M, N) on the kernel-1 graph it ran on.
        report = None
        if hybrid and not args.no_audit:
            source = int(pick_sources(result.graph, 1, seed=args.seed)[0])
            report = _audit(
                args, result.graph, source, engine.m, engine.n, count=300
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


def _audit(args: argparse.Namespace, graph, source, m, n, *, count):
    """The switching-point verdict for one run: price its (M, N) against
    ``count`` candidate pairs on a measured profile of ``source``, on
    the Sandy Bridge cost model.  Events go to the installed tracer."""
    from repro.arch import CPU_SANDY_BRIDGE
    from repro.arch.costmodel import CostModel
    from repro.bfs import profile_bfs
    from repro.obs import audit_switching_point

    profile, _ = profile_bfs(graph, source)
    return audit_switching_point(
        profile,
        CostModel(CPU_SANDY_BRIDGE),
        m,
        n,
        count=count,
        seed=args.seed,
        scale=args.scale,
        edgefactor=args.edgefactor,
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.bfs import (
        ParallelBFS,
        bfs_bottom_up,
        bfs_hybrid,
        bfs_top_down,
        pick_sources,
    )
    from repro.graph import rmat
    from repro.obs import (
        Tracer,
        use_tracer,
        validate_chrome_trace,
        write_chrome_trace,
        write_jsonl,
    )

    print(
        f"generating R-MAT scale={args.scale} ef={args.edgefactor} "
        f"(seed {args.seed}) ..."
    )
    graph = rmat(args.scale, args.edgefactor, seed=args.seed)
    source = int(pick_sources(graph, 1, seed=args.seed)[0])
    print(f"graph: {graph!r}, source {source}, engine {args.engine}")

    workload = f"rmat-s{args.scale}-ef{args.edgefactor}-{args.engine}"
    tracer = Tracer()
    with use_tracer(tracer):
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
            report = _audit(
                args, graph, source, args.m, args.n,
                count=args.audit_candidates,
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
    _append_history(
        args.history,
        "trace",
        workload,
        tracer=tracer,
        audit=report,
        seed=args.seed,
        m=args.m,
        n=args.n,
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.arch import CPU_SANDY_BRIDGE
    from repro.arch.costmodel import CostModel
    from repro.bench.metrics import gteps
    from repro.bfs import pick_sources, profile_bfs
    from repro.bfs.timing import timed_bfs
    from repro.bfs.workspace import BFSWorkspace
    from repro.graph import rmat
    from repro.obs import Tracer, validate_chrome_trace, write_chrome_trace
    from repro.obs.profile import AllocationProfiler, explain_traversal

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
            f"{args.repeat} windowed traversal(s)"
        )

    if args.engine in ("td", "bu"):
        kwargs: dict = {"direction": args.engine}
    else:
        kwargs = {"m": args.m, "n": args.n}
    ws = BFSWorkspace(graph.num_vertices)
    # One untracked warm-up traversal grows the workspace's scratch
    # buffers to their steady-state sizes, so the windows measure the
    # warm kernels (the allocation-freedom claim under test), not
    # first-run buffer growth.
    timed_bfs(graph, source, workspace=ws, **kwargs)
    # "Graph-sized" is the allocation-freedom bar: anything smaller
    # than one vertex-indexed array is per-level churn, not a
    # falsification of the warm-workspace claim.
    alloc = AllocationProfiler(Tracer(), size_floor=8 * graph.num_vertices)
    with alloc:
        for _ in range(args.repeat):
            timed_bfs(
                graph, source, workspace=ws, tracer=alloc.tracer, **kwargs
            )
    # A window's snapshot runs inside its level span and tracemalloc
    # taxes every allocation, so the windowed runs, on their own
    # tracer, time the profiler.  The explain report, GTEPS, the trace
    # and the history record describe one more traversal with
    # tracemalloc off.
    tracer = Tracer()
    run = timed_bfs(graph, source, workspace=ws, tracer=tracer, **kwargs)
    run.result.validate(graph)

    # The explain join: profiled counters (model input) + the
    # un-windowed run's measured level seconds.
    profile, _ = profile_bfs(graph, source)
    report = explain_traversal(
        run, profile, CostModel(CPU_SANDY_BRIDGE), tracer=tracer
    )

    args.out.mkdir(parents=True, exist_ok=True)
    trace_path = args.out / f"profile-s{args.scale}-{args.engine}.trace.json"
    write_chrome_trace(tracer, trace_path)
    events = validate_chrome_trace(trace_path)

    alloc_report = alloc.report()
    traversed = run.result.traversed_edges(graph)
    teps = (
        traversed / run.total_seconds if run.total_seconds > 0 else 0.0
    )
    meta: dict = {
        "engine": args.engine,
        "repeat": args.repeat,
        "profile": {"alloc": alloc_report},
        "explain": report.as_dict(),
    }
    _append_history(
        args.history,
        "profile",
        workload,
        tracer=tracer,
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
            "trace_events": events,
            "artifacts": {"trace": str(trace_path)},
            **meta,
        }
        print(json.dumps(payload, indent=2))
        return 0
    print()
    print(report.render())
    print()
    verdict = (
        "clean — the warm workspace allocated nothing graph-sized"
        if alloc_report["clean"]
        else "ALLOCATING (see per-kernel rows in the history meta)"
    )
    print(f"alloc: {verdict} ({alloc_report['windows']} window(s))")
    print(f"wrote {trace_path} ({events} trace events, validated)")
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
    print("usage: repro-bfs monitor {record,check,report} ...",
          file=sys.stderr)
    return 2


def _cmd_monitor_record(args: argparse.Namespace) -> int:
    from repro.bfs import pick_sources
    from repro.graph500 import HybridEngine, run_graph500
    from repro.obs import Tracer, use_tracer

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
        source = int(pick_sources(result.graph, 1, seed=args.seed)[0])
        report = _audit(
            args, result.graph, source, args.m, args.n,
            count=args.audit_candidates,
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
    records = store.tail(args.tail) if args.tail else store.read()
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
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "callgraph":
        return _cmd_callgraph(args)
    if args.command == "sanitize":
        return _cmd_sanitize(args)
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
