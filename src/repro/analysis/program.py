"""Whole-program deep rules over the project call graph.

These rules consume the fixpoint facts of
:mod:`repro.analysis.callgraph` — effects propagated through arbitrary
call depth, across modules, with method dispatch:

========  ==============================================================
RPR015    resource lifecycle: a ``ParallelBFS`` / executor acquired on
          a path that can raise before ``close()`` (exception-flow
          close-on-all-paths), a bound resource never closed, or a
          temporary engine that is never closed at all
RPR019    a call-graph cycle through hot-path modules — a Python-level
          call per vertex where :func:`~repro.analysis.lint.is_hot_path`
          prices Python dispatch as forbidden
========  ==============================================================

Both are ``deep`` *and* ``whole_program``: ``lint_paths`` builds one
:class:`~repro.analysis.callgraph.Project` over every file in the run
and threads it through :class:`~repro.analysis.lint.ModuleContext`.
When a rule is invoked on a lone source string (fixture tests), it
falls back to a single-file project, which still exercises the full
fixpoint machinery within that file.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from repro.analysis.callgraph import Project, module_record
from repro.analysis.lint import ModuleContext, rule

__all__ = ["program_report"]

Findings = dict[str, dict[str, list[tuple[int, int, str]]]]


@lru_cache(maxsize=64)
def _single_file_project(ctx: ModuleContext) -> Project:
    return Project([module_record(ctx)])


def _project_for(ctx: ModuleContext) -> Project:
    """The lint run's project, or a one-file project for a lone
    source."""
    if isinstance(ctx.project, Project):
        return ctx.project
    return _single_file_project(ctx)


def program_report(project: Project) -> Findings:
    """All whole-program findings, bucketed ``code -> path -> triples``.

    Computed once per project and memoized on the instance; the rule
    callbacks then just filter by the module they were invoked on.
    """
    cached = getattr(project, "_program_report", None)
    if cached is not None:
        return cached
    report: Findings = {"RPR015": {}, "RPR019": {}}

    def add(code: str, path: str, line: int, col: int, msg: str) -> None:
        report[code].setdefault(path, []).append((line, col, msg))

    _check_resources(project, add)
    _check_hot_cycles(project, add)
    for buckets in report.values():
        for triples in buckets.values():
            triples.sort()
    project._program_report = report
    return report


def _yield_for(ctx: ModuleContext, code: str) -> Iterator[tuple[int, int, str]]:
    report = program_report(_project_for(ctx))
    yield from report.get(code, {}).get(ctx.path, [])


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
    "RPR019",
    "call-graph cycle through hot-path modules (Python-level call per "
    "vertex, priced via is_hot_path)",
    deep=True,
    whole_program=True,
)
def check_hot_path_cycles(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    yield from _yield_for(ctx, "RPR019")
