"""Static analysis and runtime sanitizing for the reproduction.

Five coordinated correctness tools (see ``docs/static_analysis.md``):

* :mod:`repro.analysis.lint` — a dependency-free AST rule engine with
  codebase-specific rules (``RPR001`` … ``RPR024``) and line-level
  ``# repro: noqa[RULE]`` suppression; the repo lints itself as a
  tier-1 test.  Rules ``RPR010+`` are *deep* rules that run under
  ``repro-bfs lint --deep``.  Each file is parsed once: the dataflow,
  effect and call-graph passes below read that one
  :class:`ModuleContext`.
* :mod:`repro.analysis.dataflow` / :mod:`repro.analysis.effects` — an
  abstract interpreter (dtype/shape lattice, workspace alias analysis,
  and the ``ParallelBFS`` / ``BFSWorkspace`` lifecycle rules
  ``RPR023``/``RPR024``) and per-function write/raise/close/reset
  effect summaries.
* :mod:`repro.analysis.callgraph` / :mod:`repro.analysis.program` —
  whole-program analysis: a project-wide call graph with import-aware
  name resolution and method dispatch, a worklist *fixpoint* that
  propagates effects through arbitrary call depth, and the rules built
  on it (``RPR013`` … ``RPR017``, ``RPR019``): thread-pool workers
  writing shared arrays directly, through a same-module helper or
  through another module, resource lifecycle, interprocedural
  workspace escapes and hot-path call cycles.  Exposed as
  ``repro-bfs callgraph`` and folded into ``lint --deep``.
* :mod:`repro.analysis.sanitizer` — an opt-in runtime harness
  (``sanitize=True`` on the BFS engines) that freezes CSR arrays during
  traversal and checks per-level invariants, raising structured
  :class:`~repro.errors.SanitizerError` on corruption; the parallel
  engine additionally supports ``sanitize="race"`` write-tracking via
  :class:`RaceTracker`.
* :mod:`repro.analysis.units` — dimensional analysis that re-executes
  the cost model with unit-tagged quantities so its output provably
  reduces to seconds.

Exposed on the CLI as ``repro-bfs lint`` (``--deep``),
``repro-bfs callgraph`` and ``repro-bfs sanitize``.
"""

from repro.analysis.lint import (
    DIAGNOSTIC_RULE,
    RULES,
    ModuleContext,
    Rule,
    Violation,
    changed_python_files,
    deep_rule_codes,
    format_json,
    format_text,
    lint_paths,
    lint_source,
)
from repro.analysis.sanitizer import RaceTracker, Sanitizer, frozen_arrays
from repro.analysis.units import (
    BYTES,
    DIMENSIONLESS,
    EDGES,
    OPS,
    SECONDS,
    VERTICES,
    Quantity,
    Unit,
    check_cost_model,
)

# Importing the rule modules registers RPR001..RPR024 in RULES.
from repro.analysis import dataflow as _dataflow  # noqa: F401
from repro.analysis import program as _program  # noqa: F401
from repro.analysis import rules as _rules  # noqa: F401
from repro.analysis.callgraph import (
    Project,
    build_project,
    project_from_sources,
)
from repro.analysis.dataflow import (
    AbstractValue,
    DataflowReport,
    analyze,
    promote,
)
from repro.analysis.effects import (
    FunctionEffects,
    format_effects,
    function_effects,
)
from repro.analysis.program import program_report

__all__ = [
    "RULES",
    "Rule",
    "Violation",
    "ModuleContext",
    "lint_source",
    "lint_paths",
    "deep_rule_codes",
    "changed_python_files",
    "DIAGNOSTIC_RULE",
    "format_text",
    "format_json",
    "Project",
    "build_project",
    "project_from_sources",
    "program_report",
    "AbstractValue",
    "DataflowReport",
    "analyze",
    "promote",
    "FunctionEffects",
    "function_effects",
    "format_effects",
    "Sanitizer",
    "RaceTracker",
    "frozen_arrays",
    "Unit",
    "Quantity",
    "DIMENSIONLESS",
    "EDGES",
    "VERTICES",
    "BYTES",
    "SECONDS",
    "OPS",
    "check_cost_model",
]
