"""Lint registrations for the typestate tier (RPR023, RPR024).

Thin adapters: all the work happens in
:func:`repro.analysis.typestate.interp.typestate_report`, which runs
the protocol abstract interpreter once per
:class:`~repro.analysis.callgraph.Project` and buckets findings by
``code -> path``.  Each rule callback just surfaces its bucket for the
module being linted, so the usual ``# repro: noqa[RPR02x]`` and
baseline machinery apply unchanged.

========  ==============================================================
RPR023    use of a closed handle (``FlightRecorder``, ``ParallelBFS``)
RPR024    a workspace result still live (read later or escaped) when
          the workspace is re-lent to another traversal
========  ==============================================================
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from repro.analysis.callgraph import Project, project_from_sources
from repro.analysis.lint import ModuleContext, rule
from repro.analysis.typestate.interp import typestate_report
from repro.errors import CallGraphError

__all__: list[str] = []


@lru_cache(maxsize=64)
def _single_file_project(ctx: ModuleContext) -> Project | None:
    try:
        return project_from_sources([(ctx.path, ctx.source)])
    except CallGraphError:
        return None


def _yield_for(
    ctx: ModuleContext, code: str
) -> Iterator[tuple[int, int, str]]:
    project = getattr(ctx, "project", None)
    if not isinstance(project, Project):
        project = _single_file_project(ctx)
    if project is None:
        return
    report = typestate_report(
        project, extra_sources={ctx.path: ctx.source}
    )
    yield from report.get(code, {}).get(ctx.path, [])


@rule(
    "RPR023",
    "use of a closed handle (FlightRecorder/ParallelBFS)",
    deep=True,
    whole_program=True,
)
def _check_rpr023(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    yield from _yield_for(ctx, "RPR023")


@rule(
    "RPR024",
    "workspace re-lent to a traversal while a previous result "
    "still aliases its arrays",
    deep=True,
    whole_program=True,
)
def _check_rpr024(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    yield from _yield_for(ctx, "RPR024")

