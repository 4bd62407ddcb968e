"""Whole-program deep rules over the project call graph.

These rules consume the fixpoint facts of
:mod:`repro.analysis.callgraph` — effects propagated through arbitrary
call depth, across modules, with method dispatch:

========  ==============================================================
RPR013    a thread-pool worker (a function handed to ``pool.map`` /
          ``executor.submit`` / ``Thread(target=...)``) writes a
          closure-captured shared array itself (subscript store,
          in-place method, ``out=``)
RPR014    a worker passes a shared array to a function *in its own
          module* whose fixpoint summary writes that parameter, at any
          call depth
RPR015    resource lifecycle: a ``ParallelBFS`` / executor acquired on
          a path that can raise before ``close()`` (exception-flow
          close-on-all-paths), a bound resource never closed, or a
          temporary engine that is never closed at all
RPR016    a *public* function returns workspace-aliased storage derived
          from its workspace parameter without ``detach()``/``copy()``
          — the interprocedural generalization of RPR011
RPR017    a worker passes a shared protocol array to a function in
          *another* module whose fixpoint summary writes it
RPR019    a call-graph cycle through hot-path modules — a Python-level
          call per vertex where :func:`~repro.analysis.lint.is_hot_path`
          prices Python dispatch as forbidden
========  ==============================================================

RPR013, RPR014 and RPR017 enforce the ownership protocol of
:mod:`repro.bfs.parallel`: a worker may write only what it owns — its
parameters (the disjoint chunk it was handed), its locals and its
per-thread ``workspace.buffer(...)`` scratch — and every write to the
shared ``parent``/``level`` maps happens on the main thread after the
pool joins.  A deliberate exception is suppressed at the reported line
with ``# repro: noqa[<code>]``.

All six are ``deep`` *and* ``whole_program``: ``lint_paths`` builds
one :class:`~repro.analysis.callgraph.Project` over every file in the
run and threads it through :class:`~repro.analysis.lint.ModuleContext`.
When a rule is invoked on a lone source string (fixture tests), it
falls back to a single-file project, which still exercises the full
fixpoint machinery within that file.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from repro.analysis.callgraph import (
    Project,
    edge_bindings,
    project_from_sources,
)
from repro.analysis.lint import ModuleContext, rule
from repro.errors import CallGraphError

__all__ = [
    "PROTOCOL_SHARED",
    "program_report",
]

#: Shared-array names of the documented claim protocol
#: (:mod:`repro.bfs.parallel`): workers may read these freely but every
#: write happens on the main thread after the pool joins.
PROTOCOL_SHARED = frozenset(
    {"parent", "level", "cand_parent", "frontier", "unvisited", "in_frontier"}
)

Findings = dict[str, dict[str, list[tuple[int, int, str]]]]


@lru_cache(maxsize=64)
def _single_file_project(ctx: ModuleContext) -> Project | None:
    try:
        return project_from_sources([(ctx.path, ctx.source)])
    except CallGraphError:
        return None


def _project_for(ctx: ModuleContext) -> Project | None:
    """The lint run's project, or a one-file project for a lone source
    (the lifecycle rules of :mod:`repro.analysis.dataflow` share it)."""
    project = getattr(ctx, "project", None)
    if isinstance(project, Project):
        return project
    return _single_file_project(ctx)


def program_report(project: Project) -> Findings:
    """All whole-program findings, bucketed ``code -> path -> triples``.

    Computed once per project and memoized on the instance; the rule
    callbacks then just filter by the module they were invoked on.
    """
    cached = getattr(project, "_program_report", None)
    if cached is not None:
        return cached
    report: Findings = {
        code: {} for code in
        ("RPR013", "RPR014", "RPR015", "RPR016", "RPR017", "RPR019")
    }

    def add(code: str, path: str, line: int, col: int, msg: str) -> None:
        report[code].setdefault(path, []).append((line, col, msg))

    _check_worker_writes(project, add)
    _check_resources(project, add)
    _check_workspace_escapes(project, add)
    _check_hot_cycles(project, add)
    for buckets in report.values():
        for triples in buckets.values():
            triples.sort()
    project._program_report = report
    return report


def _yield_for(ctx: ModuleContext, code: str) -> Iterator[tuple[int, int, str]]:
    project = _project_for(ctx)
    if project is None:
        return
    yield from program_report(project).get(code, {}).get(ctx.path, [])


# -- RPR013/RPR014/RPR017: worker writes outside the ownership protocol ----


def _check_worker_writes(project: Project, add) -> None:
    for worker_q in project.workers:
        info = project.functions[worker_q]
        owned = info.locals | info.scratch  # its chunk, locals, scratch
        for name, how, line, col in info.array_writes:
            if name in owned:
                continue
            add(
                "RPR013", info.path, line, col,
                f"worker `{info.name}` writes shared array `{name}` "
                f"({how}); shared parent/level writes must happen on the "
                "main thread after the pool joins (suppress a deliberate "
                "partitioned write with `# repro: noqa[RPR013]`)",
            )
        for edge in project._edges_by_caller.get(worker_q, ()):
            if edge.dispatch or edge.callee is None:
                continue
            callee = project.functions[edge.callee]
            summary = project.summaries[edge.callee]
            for param, arg in edge_bindings(edge, summary.params):
                if arg in owned or param not in summary.writes:
                    continue
                if callee.module == info.module:
                    add(
                        "RPR014", info.path, edge.line, edge.col,
                        f"worker `{info.name}` passes shared array `{arg}` "
                        f"to `{edge.raw}`, whose effect summary writes "
                        f"parameter `{param}`; a propagated cross-thread "
                        "write outside the ownership protocol",
                    )
                elif arg in PROTOCOL_SHARED:
                    add(
                        "RPR017", info.path, edge.line, edge.col,
                        f"worker `{info.name}` passes shared protocol array "
                        f"`{arg}` to `{edge.raw}` ({callee.module}), whose "
                        "whole-program effect summary writes parameter "
                        f"`{param}`; a cross-module write outside the "
                        "ownership protocol (suppress a deliberate "
                        "partitioned write with `# repro: noqa[RPR017]`)",
                    )


# -- RPR015: resource lifecycle -------------------------------------------


def _check_resources(project: Project, add) -> None:
    edge_at = {
        (e.caller, e.raw, e.line): e.callee
        for e in project.edges
        if not e.dispatch
    }

    def risk_raises(caller: str, raw: str, line: int) -> str | None:
        if raw == "raise":
            return "an explicit raise"
        callee = edge_at.get((caller, raw, line))
        if callee is None:
            return None
        summary = project.summaries.get(callee)
        if summary is not None and summary.raises:
            return f"`{raw}(...)` (which can raise)"
        return None

    for info in project.functions.values():
        for ctor, line, col in info.temp_ctors:
            add(
                "RPR015", info.path, line, col,
                f"temporary `{ctor}(...)` is never closed — its thread "
                "pool outlives the call; bind it in a `with` block or "
                "call close()",
            )
        for acq in info.acquisitions:
            if acq.escapes:
                continue  # ownership transferred to the caller/object
            raising: list[tuple[int, str]] = []
            for raw, rline, _rcol in acq.risks:
                if any(lo <= rline <= hi for lo, hi in acq.finally_spans):
                    continue  # a finally-close covers this statement
                why = risk_raises(info.qname, raw, rline)
                if why is not None:
                    raising.append((rline, why))
            if not acq.closed:
                detail = (
                    f"; {raising[0][1]} at line {raising[0][0]} exits "
                    "before any close()" if raising else ""
                )
                add(
                    "RPR015", info.path, acq.line, acq.col,
                    f"`{acq.var} = {acq.ctor}(...)` is never closed on "
                    f"any path{detail}; use `with` or try/finally",
                )
            elif raising:
                rline, why = raising[0]
                add(
                    "RPR015", info.path, acq.line, acq.col,
                    f"`{acq.var} = {acq.ctor}(...)` can leak: {why} at "
                    f"line {rline} exits before the close() on line "
                    f"{min(acq.close_lines)}; move the close into a "
                    "finally or use `with`",
                )


# -- RPR016: workspace aliases escaping a public boundary -----------------


def _check_workspace_escapes(project: Project, add) -> None:
    for qname, summary in project.summaries.items():
        if not summary.returns_ws:
            continue
        info = project.functions[qname]
        if not info.is_public:
            continue
        if info.cls is not None and "Workspace" in info.cls:
            continue  # the workspace's own accessors ARE the alias API
        add(
            "RPR016", info.path, info.line, 0,
            f"public `{info.name}` returns workspace-aliased storage "
            "(transitively derived from its workspace parameter) "
            "without detach()/copy(); callers will observe scratch "
            "reuse on the next traversal (interprocedural RPR011)",
        )


# -- RPR019: call cycles through hot-path modules -------------------------


def _check_hot_cycles(project: Project, add) -> None:
    for comp in project.cycles():
        hot = [q for q in comp if project.functions[q].hot]
        if not hot:
            continue
        anchor = project.functions[min(hot)]
        chain = " -> ".join(comp)
        add(
            "RPR019", anchor.path, anchor.line, 0,
            f"call-graph cycle through hot-path module(s): {chain}; "
            "recursion here costs a Python-level call per vertex "
            "(is_hot_path prices these packages as vectorized-only) — "
            "restructure as an iterative frontier loop",
        )


# -- rule registrations ----------------------------------------------------


@rule(
    "RPR013",
    "thread-pool worker writes a closure-captured shared array outside "
    "the ownership protocol (main-thread merge / owned chunk / "
    "per-thread scratch)",
    deep=True,
    whole_program=True,
)
def check_worker_shared_writes(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    yield from _yield_for(ctx, "RPR013")


@rule(
    "RPR014",
    "thread-pool worker calls a function whose effect summary writes a "
    "shared array argument (propagated race)",
    deep=True,
    whole_program=True,
)
def check_worker_callee_writes(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    yield from _yield_for(ctx, "RPR014")


@rule(
    "RPR015",
    "resource (ParallelBFS / executor) acquired on a path "
    "that can raise before close(); close-on-all-paths exception-flow "
    "analysis",
    deep=True,
    whole_program=True,
)
def check_resource_lifecycle(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    yield from _yield_for(ctx, "RPR015")


@rule(
    "RPR016",
    "workspace-aliased array escapes a public API boundary without "
    "detach() (interprocedural RPR011)",
    deep=True,
    whole_program=True,
)
def check_workspace_escape(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    yield from _yield_for(ctx, "RPR016")


@rule(
    "RPR017",
    "worker-side write to a shared protocol array routed through a "
    "helper in another module (cross-module RPR013/RPR014)",
    deep=True,
    whole_program=True,
)
def check_cross_module_ownership(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    yield from _yield_for(ctx, "RPR017")


@rule(
    "RPR019",
    "call-graph cycle through hot-path modules (Python-level call per "
    "vertex, priced via is_hot_path)",
    deep=True,
    whole_program=True,
)
def check_hot_path_cycles(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    yield from _yield_for(ctx, "RPR019")
