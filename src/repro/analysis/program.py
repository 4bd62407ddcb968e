"""Whole-program deep rules (RPR015–RPR019) over the project call graph.

These rules consume the fixpoint facts of
:mod:`repro.analysis.callgraph` — effects propagated through arbitrary
call depth, across modules, with method dispatch — so they see
violations that the intraprocedural tier (RPR010–RPR014) provably
cannot:

========  ==============================================================
RPR015    resource lifecycle: a ``ParallelBFS`` / executor acquired on
          a path that can raise before ``close()`` (exception-flow
          close-on-all-paths), a bound resource never closed, or a
          temporary engine that is never closed at all
RPR016    a *public* function returns workspace-aliased storage derived
          from its workspace parameter without ``detach()``/``copy()``
          — the interprocedural generalization of RPR011
RPR017    a thread-pool worker routes a write to a closure-captured
          shared protocol array through helper functions in *other*
          modules (extends RPR013/RPR014 across module boundaries)
RPR018    a public function transitively calls a
          ``# repro: owned[...]``-gated helper without holding
          ownership (no annotation on the path, no mediator in the
          helper's own module)
RPR019    a call-graph cycle through hot-path modules — a Python-level
          call per vertex where :func:`~repro.analysis.lint.is_hot_path`
          prices Python dispatch as forbidden
========  ==============================================================

All five are ``deep`` *and* ``whole_program``: ``lint_paths`` builds
one :class:`~repro.analysis.callgraph.Project` over every file in the
run and threads it through :class:`~repro.analysis.lint.ModuleContext`.
When a rule is invoked on a lone source string (fixture tests), it
falls back to a single-file project, which still exercises the full
fixpoint machinery within that file.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from repro.analysis import effects as fx
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

    Computed once per project and memoized on the instance; the five
    rule callbacks then just filter by the module they were invoked on.
    """
    cached = getattr(project, "_program_report", None)
    if cached is not None:
        return cached
    report: Findings = {
        code: {} for code in
        ("RPR015", "RPR016", "RPR017", "RPR018", "RPR019")
    }

    def add(code: str, path: str, line: int, col: int, msg: str) -> None:
        report[code].setdefault(path, []).append((line, col, msg))

    _check_resources(project, add)
    _check_workspace_escapes(project, add)
    _check_cross_module_ownership(project, add)
    _check_owned_gating(project, add)
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


# -- RPR017: cross-module ownership ---------------------------------------


@lru_cache(maxsize=256)
def _module_local_writes(record) -> dict[str, frozenset[str]]:
    """Bare-name -> written params under *module-local* fixpoint
    propagation, to tell apart what RPR014 already reports."""
    local = {info.name: info.summary for info in record.functions}
    propagated = fx.propagate(local)
    return {name: s.writes for name, s in propagated.items()}


def _check_cross_module_ownership(project: Project, add) -> None:
    for worker_q in project.workers:
        info = project.functions.get(worker_q)
        if info is None:
            continue
        record = project.modules[info.module]
        local_writes = _module_local_writes(record)
        for edge in project._edges_by_caller.get(worker_q, ()):
            if edge.dispatch or edge.callee is None:
                continue
            callee_info = project.functions[edge.callee]
            callee_summary = project.summaries[edge.callee]
            for param, arg in edge_bindings(edge, callee_summary.params):
                if arg not in PROTOCOL_SHARED:
                    continue
                if arg in info.locals or arg in info.scratch:
                    continue  # worker-owned chunk / scratch / local
                if param not in callee_summary.writes:
                    continue
                if edge.line in record.owned_lines:
                    continue
                same_module = callee_info.module == info.module
                if same_module and param in local_writes.get(
                    callee_info.name, frozenset()
                ):
                    continue  # RPR014's module-local engine reports this
                add(
                    "RPR017", info.path, edge.line, edge.col,
                    f"worker `{info.name}` passes shared protocol array "
                    f"`{arg}` to `{edge.raw}` "
                    f"({callee_info.module}), whose whole-program effect "
                    f"summary writes parameter `{param}`; a cross-module "
                    "write outside the ownership protocol (annotate "
                    "deliberate partitioned writes with "
                    "`# repro: owned[...]`)",
                )


# -- RPR018: ownership-gated helpers reached without ownership ------------


def _check_owned_gating(project: Project, add) -> None:
    gated = [
        info for info in project.functions.values() if info.owned_gated
    ]
    if not gated:
        return
    reverse: dict[str, list] = {}
    for edge in project.edges:
        if edge.callee is not None:
            reverse.setdefault(edge.callee, []).append(edge)
    for helper in gated:
        seen: set[str] = set()
        stack = [helper.qname]
        while stack:
            cur = stack.pop()
            for edge in reverse.get(cur, ()):
                caller = project.functions[edge.caller]
                if caller.qname in seen:
                    continue
                caller_record = project.modules[caller.module]
                if edge.line in caller_record.owned_lines:
                    continue  # the call site holds ownership
                if caller.module == helper.module:
                    continue  # mediated inside the owning module
                if caller.owned_gated:
                    continue  # the caller itself holds ownership
                seen.add(caller.qname)
                if caller.is_public:
                    add(
                        "RPR018", caller.path, caller.line, 0,
                        f"public `{caller.name}` transitively calls "
                        f"ownership-gated `{helper.name}` "
                        f"({helper.path}:{helper.line}) without holding "
                        "ownership: no `# repro: owned[...]` on the "
                        "path and no mediator in the owning module",
                    )
                stack.append(caller.qname)


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
    "RPR018",
    "public function transitively calls a `# repro: owned[...]`-gated "
    "helper without holding ownership",
    deep=True,
    whole_program=True,
)
def check_owned_gating(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    yield from _yield_for(ctx, "RPR018")


@rule(
    "RPR019",
    "call-graph cycle through hot-path modules (Python-level call per "
    "vertex, priced via is_hot_path)",
    deep=True,
    whole_program=True,
)
def check_hot_path_cycles(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    yield from _yield_for(ctx, "RPR019")
