"""The ``repro`` lint engine.

A small, dependency-free static analyzer built on :mod:`ast`.  Rules are
codebase-specific: they encode the invariants this reproduction's hot
paths rely on (vectorized kernels, wide index dtypes, monotonic clocks,
library-grade error reporting, frozen CSR storage) rather than generic
style.  The concrete rules live in :mod:`repro.analysis.rules` (the
line-local pattern rules), :mod:`repro.analysis.dataflow` (the deep
dataflow rules) and :mod:`repro.analysis.program` (the whole-program
rules); this module provides the machinery:

* a rule registry (``RULES``) populated by the :func:`rule` decorator;
* a two-tier rule model: default rules run everywhere, ``deep`` rules
  (abstract interpretation, effect summaries, race detection) run only
  under ``--deep`` or when explicitly selected;
* per-file AST visiting with a :class:`ModuleContext` handed to each
  rule.  :func:`parse_module` parses each file **once** and builds a
  shared :class:`NodeIndex` (one ``ast.walk`` materialized by node
  type); every rule, the call-graph extraction and the dataflow
  interpreter read that one context;
* a third tier: ``whole_program`` rules (RPR013–RPR017 and RPR019 in
  :mod:`repro.analysis.program`, RPR011, RPR023 and RPR024 in
  :mod:`repro.analysis.dataflow`) additionally receive a resolved
  :class:`~repro.analysis.callgraph.Project` built once per
  :func:`lint_paths` run, so their findings rest on interprocedural
  fixpoint facts;
* structured diagnostics: files that cannot be decoded or parsed are
  reported as pseudo-rule ``RPR000`` violations instead of aborting
  the run with a traceback;
* line-level suppression via ``# repro: noqa[RPR001]`` (or a bare
  ``# repro: noqa`` to silence every rule on that line).  A marker on
  any line of a multi-line simple statement suppresses the whole
  statement extent;
* text and JSON reporters.

Run it programmatically (:func:`lint_paths`) or via ``repro-bfs lint``.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import LintError

__all__ = [
    "Violation",
    "Rule",
    "RULES",
    "rule",
    "deep_rule_codes",
    "ModuleContext",
    "NodeIndex",
    "parse_module",
    "read_module",
    "lint_source",
    "lint_paths",
    "format_text",
    "format_json",
    "iter_python_files",
    "changed_python_files",
    "DIAGNOSTIC_RULE",
]

#: Pseudo-rule code for engine diagnostics (undecodable / unparsable
#: files).  Not in ``RULES`` — it cannot be selected or suppressed; it
#: reports that a file could not be analyzed at all.
DIAGNOSTIC_RULE = "RPR000"

#: Directories (as package path fragments) whose modules are hot paths:
#: Python-level per-vertex/per-edge loops are forbidden there (RPR001).
HOT_PATH_FRAGMENTS = ("repro/bfs/", "repro/graph/", "repro/hetero/")

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)

#: Simple (non-compound) statement types over which a ``# repro: noqa``
#: marker is expanded to the full statement extent.  Compound statements
#: (``if``/``for``/``def``/...) are deliberately excluded — a noqa on a
#: ``def`` line must not blanket the whole function body.
_SIMPLE_STMT_TYPES = (
    ast.Assign,
    ast.AugAssign,
    ast.AnnAssign,
    ast.Expr,
    ast.Return,
    ast.Raise,
    ast.Assert,
    ast.Delete,
    ast.Import,
    ast.ImportFrom,
)


class NodeIndex:
    """One materialized ``ast.walk`` shared by every rule.

    Historically each rule walked the module tree itself, so an
    N-rule lint run traversed every AST N times.  The index walks once
    and buckets nodes by concrete type; rules ask for the types they
    care about via :meth:`of`.
    """

    __slots__ = ("nodes", "_by_type")

    def __init__(self, tree: ast.AST) -> None:
        self.nodes: tuple[ast.AST, ...] = tuple(ast.walk(tree))
        by_type: dict[type, list[ast.AST]] = {}
        for node in self.nodes:
            by_type.setdefault(type(node), []).append(node)
        self._by_type: dict[type, tuple[ast.AST, ...]] = {
            t: tuple(ns) for t, ns in by_type.items()
        }

    def of(self, *types: type) -> list[ast.AST]:
        """All nodes of the given concrete AST types, in walk order."""
        if len(types) == 1:
            return list(self._by_type.get(types[0], ()))
        out: list[ast.AST] = []
        for t in types:
            out.extend(self._by_type.get(t, ()))
        return out


@dataclass(frozen=True)
class Violation:
    """One rule firing at one source location."""

    rule: str
    message: str
    path: str
    line: int
    col: int

    def as_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "rule": self.rule,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
        }


@dataclass(frozen=True, eq=False)
class ModuleContext:
    """Everything a rule may inspect about one module.

    Instances are compared/hashes by identity so per-module analysis
    passes (the dataflow interpreter, effect summaries) can be cached
    with ``functools.lru_cache`` keyed on the context itself.
    """

    path: str
    source: str
    tree: ast.Module
    hot_path: bool
    index: NodeIndex = field(repr=False)
    #: Whole-program view (repro.analysis.callgraph.Project) when the
    #: lint run covers multiple files; ``None`` for single-source runs,
    #: where whole-program rules fall back to a one-file project.
    project: object | None = field(repr=False, default=None)

    @property
    def module_basename(self) -> str:
        """File name without the ``.py`` suffix."""
        name = Path(self.path).name
        return name[:-3] if name.endswith(".py") else name

    def nodes(self, *types: type) -> list[ast.AST]:
        """Nodes of the given types from the shared single-pass index."""
        return self.index.of(*types)


#: A rule yields ``(lineno, col, message)`` triples for one module.
RuleCheck = Callable[[ModuleContext], Iterator[tuple[int, int, str]]]


@dataclass(frozen=True)
class Rule:
    """A registered lint rule."""

    code: str
    name: str
    summary: str
    check: RuleCheck
    hot_path_only: bool = False
    deep: bool = False
    whole_program: bool = False


RULES: dict[str, Rule] = {}


def rule(
    code: str,
    summary: str,
    *,
    hot_path_only: bool = False,
    deep: bool = False,
    whole_program: bool = False,
) -> Callable[[RuleCheck], RuleCheck]:
    """Register a rule under ``code`` (e.g. ``'RPR001'``).

    ``deep`` rules (dataflow / race analysis) only run when the caller
    passes ``deep=True`` or selects the code explicitly.
    ``whole_program`` rules additionally want a resolved call-graph
    project on the context (``lint_paths`` builds one per run).
    """

    def register(fn: RuleCheck) -> RuleCheck:
        if code in RULES:
            raise LintError(f"duplicate rule code {code!r}")
        RULES[code] = Rule(
            code=code,
            name=fn.__name__,
            summary=summary,
            check=fn,
            hot_path_only=hot_path_only,
            deep=deep,
            whole_program=whole_program,
        )
        return fn

    return register


def _ensure_rules_loaded() -> None:
    # The concrete rules register themselves on import; importing here
    # (not at module top) avoids a cycle since the rule modules import
    # us.  Import unconditionally (imports are idempotent): guarding on
    # an empty registry would leave the set partial when a rule module
    # was imported directly first.
    from repro.analysis import dataflow, program, rules  # noqa: F401


def deep_rule_codes() -> list[str]:
    """Codes of the registered deep (dataflow/race) rules, sorted."""
    _ensure_rules_loaded()
    return sorted(c for c, r in RULES.items() if r.deep)


def _resolve_select(
    select: Iterable[str] | None, *, deep: bool = False
) -> list[Rule]:
    _ensure_rules_loaded()
    if select is None:
        rules = [RULES[c] for c in sorted(RULES)]
        if not deep:
            rules = [r for r in rules if not r.deep]
        return rules
    chosen: list[Rule] = []
    for code in select:
        code = code.strip().upper()
        if not code:
            continue
        if code not in RULES:
            raise LintError(
                f"unknown rule code {code!r}; known: {', '.join(sorted(RULES))}"
            )
        chosen.append(RULES[code])
    return chosen


def _suppressions(ctx: ModuleContext) -> dict[int, set[str] | None]:
    """Per-line suppression map: line -> set of codes, or ``None`` for
    a blanket ``# repro: noqa``.

    A marker on any line of a multi-line *simple* statement is expanded
    to the statement's full ``lineno..end_lineno`` extent, so a noqa on
    (say) the closing line of a wrapped call suppresses the whole call.
    """
    out: dict[int, set[str] | None] = {}
    for i, text in enumerate(ctx.source.splitlines(), 1):
        m = _NOQA_RE.search(text)
        if not m:
            continue
        codes = m.group("codes")
        if codes is None:
            out[i] = None
        else:
            out[i] = {c.strip().upper() for c in codes.split(",") if c.strip()}
    if not out:
        return out
    for node in ctx.nodes(*_SIMPLE_STMT_TYPES):
        end = getattr(node, "end_lineno", None)
        if end is None or end <= node.lineno:
            continue
        extent = range(node.lineno, end + 1)
        marks = [out[i] for i in extent if i in out]
        if not marks:
            continue
        if any(m is None for m in marks):
            merged: set[str] | None = None
        else:
            merged = set().union(*marks)  # type: ignore[arg-type]
        for i in extent:
            if merged is None:
                out[i] = None
            elif out.get(i, ()) is not None:
                out[i] = set(out.get(i) or ()) | merged
    return out


def is_hot_path(path: str) -> bool:
    """Whether ``path`` belongs to a hot-path package (RPR001 scope)."""
    posix = Path(path).as_posix()
    return any(frag in posix for frag in HOT_PATH_FRAGMENTS)


def parse_module(
    source: str, path: str = "<string>", *, hot_path: bool | None = None
) -> ModuleContext:
    """Parse one module into the context every analysis pass reads.

    This is the only ``ast.parse`` of a file: the rules, the call-graph
    extraction and the dataflow interpreter all read the returned
    context and its :class:`NodeIndex`.  ``path`` is normalized here
    (``./a//b.py`` becomes ``a/b.py``), the one spelling every pass
    files and looks up findings under.  ``hot_path`` overrides the
    path-based hot-path detection.  A source that does not parse raises
    :class:`~repro.errors.LintError` from the ``SyntaxError``.
    """
    path = str(Path(path))
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise LintError(f"{path}: cannot parse: {exc}") from exc
    return ModuleContext(
        path=path,
        source=source,
        tree=tree,
        hot_path=is_hot_path(path) if hot_path is None else hot_path,
        index=NodeIndex(tree),
    )


def _diagnostic(path: Path, message: str, line: int = 1) -> Violation:
    return Violation(
        rule=DIAGNOSTIC_RULE,
        message=message,
        path=str(path),
        line=line,
        col=0,
    )


def read_module(path: Path) -> ModuleContext | Violation:
    """Read and parse one file on disk.

    Files that cannot be decoded as UTF-8 or parsed as Python yield a
    single structured ``RPR000`` diagnostic violation instead of
    raising, so a directory run reports them and keeps going (the CLI
    exit code is nonzero either way).  A missing/unreadable file is
    still a usage error (:class:`~repro.errors.LintError`).
    """
    try:
        source = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        return _diagnostic(path, f"cannot decode as UTF-8: {exc}")
    except OSError as exc:
        raise LintError(f"{path}: cannot read: {exc}") from exc
    try:
        return parse_module(source, str(path))
    except LintError as exc:
        cause = exc.__cause__
        return _diagnostic(
            path, f"cannot parse: {cause.msg}", line=cause.lineno or 1
        )


def _check(
    ctx: ModuleContext, rules: Sequence[Rule], project: object | None
) -> list[Violation]:
    """Run ``rules`` over one parsed module, minus suppressed findings."""
    ctx = replace(ctx, project=project)
    suppressed = _suppressions(ctx)
    violations: list[Violation] = []
    for rl in rules:
        if rl.hot_path_only and not ctx.hot_path:
            continue
        for lineno, col, message in rl.check(ctx):
            mask = suppressed.get(lineno, "absent")
            if mask is None or (mask != "absent" and rl.code in mask):
                continue
            violations.append(
                Violation(
                    rule=rl.code,
                    message=message,
                    path=ctx.path,
                    line=lineno,
                    col=col,
                )
            )
    violations.sort(key=lambda v: (v.line, v.col, v.rule))
    return violations


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    select: Iterable[str] | None = None,
    hot_path: bool | None = None,
    deep: bool = False,
    project: object | None = None,
) -> list[Violation]:
    """Lint one module given as a string.

    ``hot_path`` overrides the path-based hot-path detection (useful for
    testing rules against files outside the package layout).  ``deep``
    additionally runs the dataflow/race rules (RPR010+).  ``project``
    optionally carries the whole-program call graph the
    ``whole_program`` rules consume; without one they analyze this file
    in isolation.
    """
    ctx = parse_module(source, path, hot_path=hot_path)
    return _check(ctx, _resolve_select(select, deep=deep), project)


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into the ``.py`` files to lint.

    Directories are walked recursively; hidden directories and
    ``__pycache__`` are skipped.  Order is deterministic.
    """
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            for sub in sorted(p.rglob("*.py")):
                parts = sub.relative_to(p).parts
                if any(
                    part.startswith(".") or part == "__pycache__"
                    for part in parts[:-1]
                ):
                    continue
                yield sub
        elif p.suffix == ".py":
            yield p
        elif not p.exists():
            raise LintError(f"{p}: no such file or directory")


def changed_python_files(
    paths: Iterable[str | Path] | None = None,
    *,
    root: str | Path | None = None,
) -> list[Path]:
    """``.py`` files changed vs git: working tree + staged + untracked.

    Backs ``repro-bfs lint --changed``.  When ``paths`` is given, the
    changed set is filtered to files under those files/directories.
    Raises :class:`~repro.errors.LintError` outside a git checkout.
    """
    import subprocess

    cwd = Path(root) if root is not None else Path.cwd()
    commands = (
        ["git", "diff", "--name-only", "HEAD", "--", "*.py"],
        ["git", "ls-files", "--others", "--exclude-standard", "--", "*.py"],
    )
    names: list[str] = []
    for cmd in commands:
        try:
            proc = subprocess.run(
                cmd, cwd=cwd, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise LintError(f"--changed requires git: {exc}") from exc
        if proc.returncode != 0:
            raise LintError(
                "--changed requires a git checkout: "
                + proc.stderr.strip().splitlines()[-1]
                if proc.stderr.strip()
                else "--changed requires a git checkout"
            )
        names.extend(proc.stdout.splitlines())
    scopes = None
    if paths is not None:
        scopes = [Path(p).resolve() for p in paths]
    out: list[Path] = []
    seen: set[Path] = set()
    for name in names:
        p = (cwd / name).resolve()
        if not p.exists() or p.suffix != ".py" or p in seen:
            continue
        if scopes is not None and not any(
            p == scope or scope in p.parents for scope in scopes
        ):
            continue
        seen.add(p)
        out.append(p)
    return sorted(out)


def lint_paths(
    paths: Iterable[str | Path],
    *,
    select: Iterable[str] | None = None,
    deep: bool = False,
    restrict_to: Iterable[str | Path] | None = None,
) -> tuple[list[Violation], int]:
    """Lint files and directories.

    When the selected rule set contains whole-program rules, one
    call-graph project is built over every file in the run and handed
    to each per-file context.  ``restrict_to`` narrows which files are
    *reported on* without narrowing the analysis scope: the project is
    still built over every file under ``paths``, so interprocedural
    rules keep seeing callees in unchanged modules, but only findings
    located in a restricted file surface (and only those files count
    toward ``files_checked``).  Returns ``(violations, files_checked)``.
    """
    rules = _resolve_select(select, deep=deep)
    files = list(iter_python_files(paths))
    report_files = files
    if restrict_to is not None:
        wanted = {Path(p).resolve() for p in restrict_to}
        report_files = [f for f in files if Path(f).resolve() in wanted]
    whole_program = any(r.whole_program for r in rules)
    reported = set(report_files)
    modules: dict[Path, ModuleContext | Violation] = {}
    for file in files if whole_program else report_files:
        try:
            modules[file] = read_module(file)
        except LintError:
            if file in reported:
                raise  # unreadable files outside the report set are skipped
    project: object | None = None
    if whole_program:
        from repro.analysis.callgraph import Project, module_record

        project = Project([
            module_record(m) for m in modules.values()
            if isinstance(m, ModuleContext)
        ])
    violations: list[Violation] = []
    for file in report_files:
        module = modules[file]
        if isinstance(module, Violation):
            violations.append(module)
        else:
            violations.extend(_check(module, rules, project))
    return violations, len(report_files)


# -- reporters ------------------------------------------------------------


def format_text(violations: Sequence[Violation]) -> str:
    """One ``path:line:col CODE message`` line per violation."""
    return "\n".join(
        f"{v.path}:{v.line}:{v.col} {v.rule} {v.message}" for v in violations
    )


def format_json(violations: Sequence[Violation]) -> str:
    """JSON array of violation objects (stable key order)."""
    return json.dumps([v.as_dict() for v in violations], indent=2)
