"""Whole-program call-graph construction and interprocedural fixpoint
effect propagation.

:mod:`repro.analysis.effects` summarizes one function at a time.  This
module lifts those summaries to the whole program:

1. **Extraction** (per module): read the lint's parsed
   :class:`~repro.analysis.lint.ModuleContext` (no second parse), walk
   each function body once, and record an import table, the
   class/method layout, per-function
   :class:`~repro.analysis.effects.FunctionEffects` base summaries,
   thread-pool dispatch sites, array writes, resource acquisitions
   (``ParallelBFS()``, executors) and a lightweight
   receiver-typing environment.  Records are memoized in-process by
   the file's SHA-256, so repeated builds in one interpreter never
   re-analyze an unchanged file.
2. **Resolution**: every recorded call site — bare names *and* dotted
   spellings like ``ws.begin`` or ``topdown.claim_first_writer`` — is
   resolved against the import tables, module function tables and a
   receiver-type heuristic (parameter annotations, the ``ws`` /
   ``workspace`` / ``graph`` naming conventions the dataflow tier
   already seeds, and locals assigned from a known constructor).
   Method dispatch walks base classes; a constructor call resolves to
   ``__init__``.  Unresolved callees stay ``None`` and are assumed
   effect-free and non-raising — the optimism
   :mod:`repro.analysis.effects` documents.
3. **Fixpoint**: a worklist iterates over the resolved edges until
   per-function writes/raises/workspace-write and close/reset facts
   stop changing.  The lattice is the finite powerset of names
   mentioned in the program and every transfer is monotone, so the
   iteration terminates; recursion (direct or mutual) simply
   converges, and a generous round cap widens defensively.

The resulting :class:`Project` answers the queries the whole-program
rules (:mod:`repro.analysis.program`, RPR013–RPR017 and RPR019; the
lifecycle rules RPR023/RPR024 in :mod:`repro.analysis.dataflow`) and the
``repro-bfs callgraph`` CLI need: ``who_writes("workspace.parent")``,
transitive callers, strongly-connected components through hot-path
modules, and DOT/JSON exports.
"""

from __future__ import annotations

import ast
import hashlib
import json
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis import effects as fx
from repro.analysis.lint import (
    ModuleContext,
    NodeIndex,
    parse_module,
    read_module,
)
from repro.errors import CallGraphError, LintError

__all__ = [
    "CallEdge",
    "FunctionInfo",
    "Acquisition",
    "ModuleRecord",
    "Project",
    "build_project",
    "project_from_sources",
    "extract_module",
    "module_record",
    "edge_bindings",
]

#: Constructors that acquire a joinable/closeable resource (RPR015);
#: :data:`~repro.analysis.effects.CLOSE_METHODS` release them.
RESOURCE_CTORS = frozenset({"ParallelBFS", "ThreadPoolExecutor"})

#: Receiver-name conventions mapped to class *bare* names; only applied
#: when the project actually defines the class (mirrors the seeding
#: conventions in repro.analysis.dataflow).
_RECEIVER_CONVENTIONS = {
    "ws": "BFSWorkspace",
    "workspace": "BFSWorkspace",
    "graph": "CSRGraph",
}

_DISPATCH_ATTRS = frozenset({"map", "submit"})
_POOL_NAME_HINTS = ("pool", "executor")

#: Fixpoint safety valve; the lattice is finite so this is never the
#: terminating condition on real input.
_MAX_ROUNDS_PER_FUNCTION = 50


@dataclass(frozen=True)
class Acquisition:
    """One ``name = Ctor(...)`` resource acquisition inside a function.

    ``risks`` are the statements between acquisition and release that
    may raise: explicit ``raise`` statements (``raw == "raise"``) and
    call sites, judged against the fixpoint ``raises`` facts at rule
    time.  ``finally_spans`` are ``(start, end)`` line ranges of try
    bodies whose ``finally`` releases the resource.
    """

    var: str
    ctor: str
    line: int
    col: int
    closed: bool
    escapes: bool
    finally_spans: tuple[tuple[int, int], ...]
    close_lines: tuple[int, ...]
    risks: tuple[tuple[str, int, int], ...]


@dataclass(frozen=True)
class FunctionInfo:
    """Static facts about one function definition (phase-1 product)."""

    qname: str
    module: str
    path: str
    name: str
    cls: str | None
    line: int
    end_line: int
    is_public: bool
    hot: bool
    summary: fx.FunctionEffects
    locals: frozenset[str]
    scratch: frozenset[str]
    types: tuple[tuple[str, str], ...]
    acquisitions: tuple[Acquisition, ...]
    temp_ctors: tuple[tuple[str, int, int], ...]
    dispatch_targets: tuple[tuple[str, int, int], ...]
    array_writes: tuple[tuple[str, str, int, int], ...]


@dataclass(frozen=True)
class ClassInfo:
    name: str
    qname: str
    module: str
    bases: tuple[str, ...]
    methods: tuple[tuple[str, str], ...]

    def method(self, attr: str) -> str | None:
        for bare, qname in self.methods:
            if bare == attr:
                return qname
        return None


@dataclass(frozen=True)
class ModuleRecord:
    """Everything phase 1 extracts from one file (hash-cacheable)."""

    module: str
    path: str
    hot: bool
    imports: tuple[tuple[str, str], ...]
    classes: tuple[ClassInfo, ...]
    functions: tuple[FunctionInfo, ...]


@dataclass(frozen=True)
class CallEdge:
    """One resolved (or unresolved) call site in the program graph."""

    caller: str
    callee: str | None
    raw: str
    line: int
    col: int
    receiver: str | None
    args: tuple[str | None, ...]
    kwargs: tuple[tuple[str, str], ...]
    dispatch: bool = False
    maybe: bool = False


def edge_bindings(
    edge: CallEdge, callee_params: Sequence[str]
) -> list[tuple[str, str]]:
    """``(callee_param, caller_name)`` pairs for one resolved edge.

    A method call binds the receiver variable to ``self``; a
    constructor call ``Cls(...)``, resolved to ``Cls.__init__``, binds
    nothing to it (``self`` is the new object).  Positional arguments
    then map onto the remaining parameters.
    """
    bindings: list[tuple[str, str]] = []
    params = list(callee_params)
    if params and params[0] == "self":
        if edge.receiver is not None:
            bindings.append(("self", edge.receiver))
            params = params[1:]
        elif edge.callee is not None and edge.callee.endswith(".__init__"):
            params = params[1:]
    for pos, arg in enumerate(edge.args):
        if arg is not None and pos < len(params):
            bindings.append((params[pos], arg))
    for kw, arg in edge.kwargs:
        bindings.append((kw, arg))
    return bindings


# -- phase 1: per-module extraction ---------------------------------------


def module_name_for(path: Path) -> str:
    """Dotted module name, walking up while ``__init__.py`` exists.

    Files outside any package (fixtures, scratch sources) fall back to
    their stem, so a single-file project still has stable names.
    """
    parts: list[str] = []
    if path.stem != "__init__":
        parts.append(path.stem)
    cur = path.parent
    try:
        while (cur / "__init__.py").exists():
            parts.append(cur.name)
            parent = cur.parent
            if parent == cur:
                break
            cur = parent
    except OSError:
        pass
    return ".".join(reversed(parts)) or path.stem


def _import_table(index: NodeIndex, module: str) -> dict[str, str]:
    # Walk order, so a name bound twice resolves to its last binding.
    table: dict[str, str] = {}
    for node in index.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                table[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                pkg_parts = module.split(".")[: -node.level]
                base = ".".join(pkg_parts)
            else:
                base = ""
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
            for alias in node.names:
                local = alias.asname or alias.name
                table[local] = f"{base}.{alias.name}" if base else alias.name
    return table


def _annotation_types(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, str]:
    types: dict[str, str] = {}
    a = fn.args
    for p in (*a.posonlyargs, *a.args, *a.kwonlyargs):
        ann = fx._annotation_name(p.annotation)
        if ann:
            types[p.arg] = ann
    return types


def _looks_like_pool(node: ast.expr) -> bool:
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    if name is None:
        return False
    lowered = name.lower()
    return any(hint in lowered for hint in _POOL_NAME_HINTS)


def _subscript_base(node: ast.expr) -> str | None:
    """``a`` for a subscript target ``a[i]`` / ``a[i][j]``, else None."""
    if not isinstance(node, ast.Subscript):
        return None
    while isinstance(node, ast.Subscript):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _scan_body(
    own: list[ast.AST], imports: frozenset[str]
) -> tuple[
    dict[str, str],
    set[str],
    list[tuple[str, int, int]],
    list[tuple[str, str, int, int]],
]:
    """One pass over a function body (``own`` is ``_walk_own(fn)``).

    Returns the locals assigned directly from a named call (receiver
    typing), the locals holding per-thread workspace scratch
    (``ws.buffer(...)``), the worker names handed to a pool or thread
    with their dispatch sites, and the body's array writes as
    ``(name, how, line, col)``: subscript and augmented stores,
    in-place methods on a plain name and ``out=`` targets (RPR013).
    A mutating method on a module receiver (``np.sort(x)``) is the
    copying function, not a write.
    """
    ctor_locals: dict[str, str] = {}
    scratch: set[str] = set()
    dispatch: list[tuple[str, int, int]] = []
    writes: list[tuple[str, str, int, int]] = []
    for node in own:
        if isinstance(node, ast.Assign):
            for tgt in node.targets:
                name = _subscript_base(tgt)
                if name:
                    writes.append(
                        (name, "subscript store", tgt.lineno, tgt.col_offset)
                    )
            call = node.value
            if not isinstance(call, ast.Call):
                continue
            raw = fx._dotted_name(call.func)
            if (
                raw
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                ctor_locals[node.targets[0].id] = raw
            if isinstance(call.func, ast.Attribute) and call.func.attr == "buffer":
                scratch.update(
                    t.id for t in node.targets if isinstance(t, ast.Name)
                )
        elif isinstance(node, ast.AugAssign):
            target = node.target
            name = _subscript_base(target)
            if name:
                writes.append(
                    (name, "augmented store", target.lineno, target.col_offset)
                )
        elif isinstance(node, ast.Call):
            f = node.func
            site = (node.lineno, node.col_offset)
            if (
                isinstance(f, ast.Attribute)
                and f.attr in fx.MUTATING_METHODS
                and isinstance(f.value, ast.Name)
                and f.value.id not in imports
            ):
                writes.append((f.value.id, f"in-place .{f.attr}()", *site))
            for kw in node.keywords:
                if kw.arg == "out" and isinstance(kw.value, ast.Name):
                    writes.append((kw.value.id, "out= target", *site))
            if (
                isinstance(f, ast.Attribute)
                and f.attr in _DISPATCH_ATTRS
                and _looks_like_pool(f.value)
                and node.args
                and isinstance(node.args[0], ast.Name)
            ):
                dispatch.append((node.args[0].id, *site))
            elif isinstance(f, ast.Name) and f.id == "Thread":
                dispatch.extend(
                    (kw.value.id, *site)
                    for kw in node.keywords
                    if kw.arg == "target" and isinstance(kw.value, ast.Name)
                )
    return ctor_locals, scratch, dispatch, writes


def _is_resource_call(call: ast.Call) -> str | None:
    raw = fx._dotted_name(call.func)
    if raw is None:
        return None
    leaf = raw.rsplit(".", 1)[-1]
    if leaf in RESOURCE_CTORS:
        return raw
    return None


def _extract_acquisitions(
    own: list[ast.AST],
) -> tuple[tuple[Acquisition, ...], tuple[tuple[str, int, int], ...]]:
    """Resource acquisitions and unbound resource temporaries in a
    function body (``own`` is ``_walk_own(fn)``)."""
    sanctioned: set[int] = set()
    for node in own:
        if isinstance(node, ast.Assign):
            sanctioned.add(id(node.value))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                sanctioned.add(id(item.context_expr))
        elif isinstance(node, ast.Return) and node.value is not None:
            sanctioned.add(id(node.value))
            if isinstance(node.value, ast.Tuple):
                sanctioned.update(id(e) for e in node.value.elts)
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                sanctioned.add(id(node.value))
        elif isinstance(node, ast.Call):
            sanctioned.update(id(a) for a in node.args)
            sanctioned.update(id(kw.value) for kw in node.keywords)

    temps: list[tuple[str, int, int]] = []
    binds: dict[str, tuple[str, int, int]] = {}
    for node in own:
        if isinstance(node, ast.Call):
            raw = _is_resource_call(node)
            if raw and id(node) not in sanctioned:
                temps.append((raw, node.lineno, node.col_offset))
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            raw = _is_resource_call(node.value)
            if raw:
                binds[node.targets[0].id] = (
                    raw, node.lineno, node.col_offset
                )
    if not binds:
        return (), tuple(temps)

    # try/finally structure: spans of try bodies keyed by the finally
    # statements that cover them.
    try_spans: list[tuple[tuple[int, int], list[ast.stmt]]] = []
    for node in own:
        if isinstance(node, ast.Try) and node.finalbody:
            start = node.body[0].lineno
            end = max(
                getattr(s, "end_lineno", s.lineno) for s in node.body
            )
            try_spans.append(((start, end), node.finalbody))

    def close_calls(var: str) -> list[tuple[int, bool, tuple[int, int] | None]]:
        out = []
        for node in own:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in fx.CLOSE_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == var
            ):
                covered = None
                for span, finalbody in try_spans:
                    lo = finalbody[0].lineno
                    hi = max(
                        getattr(s, "end_lineno", s.lineno) for s in finalbody
                    )
                    if lo <= node.lineno <= hi:
                        covered = span
                        break
                out.append((node.lineno, covered is not None, covered))
        return out

    def var_escapes(var: str) -> bool:
        for node in own:
            if isinstance(node, ast.Return) and node.value is not None:
                if any(
                    isinstance(s, ast.Name) and s.id == var
                    for s in ast.walk(node.value)
                ):
                    return True
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                if node.value is not None and any(
                    isinstance(s, ast.Name) and s.id == var
                    for s in ast.walk(node.value)
                ):
                    return True
            elif isinstance(node, ast.Assign):
                if any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in node.targets
                ) and any(
                    isinstance(s, ast.Name) and s.id == var
                    for s in ast.walk(node.value)
                ):
                    return True
        # Passing the resource as a call argument is a *borrow*, not a
        # transfer — the callee's raises flow back through the fixpoint
        # and the acquirer still owns the close.
        return False

    acqs: list[Acquisition] = []
    for var, (ctor, line, col) in binds.items():
        closes = close_calls(var)
        first_close = min((ln for ln, _, _ in closes), default=None)
        finally_spans = tuple(
            span for _, in_finally, span in closes
            if in_finally and span is not None
        )
        risks: list[tuple[str, int, int]] = []
        for node in own:
            node_line = getattr(node, "lineno", 0)
            if node_line <= line:
                continue
            if first_close is not None and node_line >= first_close:
                continue
            if isinstance(node, ast.Raise):
                risks.append(("raise", node_line, node.col_offset))
            elif isinstance(node, ast.Call):
                raw = fx._dotted_name(node.func)
                if raw is None or raw.rsplit(".", 1)[-1] in fx.CLOSE_METHODS:
                    continue
                risks.append((raw, node_line, node.col_offset))
        acqs.append(
            Acquisition(
                var=var,
                ctor=ctor,
                line=line,
                col=col,
                closed=bool(closes),
                escapes=var_escapes(var),
                finally_spans=finally_spans,
                close_lines=tuple(ln for ln, _, _ in closes),
                risks=tuple(risks),
            )
        )
    return tuple(acqs), tuple(temps)


def extract_module(ctx: ModuleContext) -> ModuleRecord:
    """Phase-1 extraction of one parsed module (pure function of the
    context: its source, path and hot-path flag)."""
    module = module_name_for(Path(ctx.path))
    imports = _import_table(ctx.index, module)
    import_names = frozenset(imports)
    ws_method_ids = fx.workspace_methods(ctx)
    hot = ctx.hot_path

    classes: list[ClassInfo] = []
    functions: list[FunctionInfo] = []

    def visit(body: Iterable[ast.stmt], prefix: tuple[str, ...],
              cls: str | None, nested: bool = False) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                cq = ".".join((module, *prefix, node.name))
                methods = tuple(
                    (s.name, f"{cq}.{s.name}")
                    for s in node.body
                    if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
                bases = tuple(
                    b for b in (fx._dotted_name(x) for x in node.bases) if b
                )
                classes.append(
                    ClassInfo(
                        name=node.name,
                        qname=cq,
                        module=module,
                        bases=bases,
                        methods=methods,
                    )
                )
                visit(node.body, (*prefix, node.name), node.name, nested)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = ".".join((module, *prefix, node.name))
                own = fx._walk_own(node)
                locals_ = fx._local_names(node, own)
                summary = fx._function_effects(
                    node,
                    own,
                    locals_,
                    module_imports=import_names,
                    self_is_workspace=id(node) in ws_method_ids,
                )
                ctor_locals, scratch, dispatch, writes = _scan_body(
                    own, import_names
                )
                types = dict(_annotation_types(node))
                for var, raw in ctor_locals.items():
                    types.setdefault(var, raw)
                acqs, temps = _extract_acquisitions(own)
                functions.append(
                    FunctionInfo(
                        qname=qname,
                        module=module,
                        path=ctx.path,
                        name=node.name,
                        cls=cls,
                        line=node.lineno,
                        end_line=getattr(node, "end_lineno", node.lineno),
                        is_public=not nested and all(
                            not part.startswith("_")
                            for part in qname.split(".")
                        ),
                        hot=hot,
                        summary=summary,
                        locals=frozenset(locals_),
                        scratch=frozenset(scratch),
                        types=tuple(sorted(types.items())),
                        acquisitions=acqs,
                        temp_ctors=temps,
                        dispatch_targets=tuple(dispatch),
                        array_writes=tuple(writes),
                    )
                )
                visit(node.body, (*prefix, node.name), None, True)
            else:
                # A def under if/for/while/with/try/match binds in the
                # enclosing scope.
                for block in ("body", "orelse", "finalbody"):
                    visit(getattr(node, block, ()), prefix, cls, nested)
                for sub in (*getattr(node, "handlers", ()),
                            *getattr(node, "cases", ())):
                    visit(sub.body, prefix, cls, nested)

    visit(ctx.tree.body, (), None)
    return ModuleRecord(
        module=module,
        path=ctx.path,
        hot=hot,
        imports=tuple(sorted(imports.items())),
        classes=tuple(classes),
        functions=tuple(functions),
    )


# -- summary export -------------------------------------------------------


def _summary_to_dict(s: fx.FunctionEffects) -> dict:
    return {
        "name": s.name,
        "params": list(s.params),
        "writes": sorted(s.writes),
        "calls": [
            [c.callee, list(c.args), [list(kv) for kv in c.kwargs],
             c.line, c.col, c.maybe]
            for c in s.calls
        ],
        "line": s.line,
        "raises": s.raises,
        "ws_params": sorted(s.ws_params),
        "ws_writes": sorted(s.ws_writes),
        "returns_ws": s.returns_ws,
        "returns_calls": list(s.returns_calls),
        "closes": sorted(s.closes),
        "resets": sorted(s.resets),
    }


#: In-process extraction cache shared by every Project built in one
#: interpreter (the lint self-tests build the same package repeatedly).
_MEMORY_CACHE: dict[str, ModuleRecord] = {}


def module_record(ctx: ModuleContext) -> ModuleRecord:
    """:func:`extract_module`, memoized by the source's SHA-256.

    A cached record is reused only for the same path and hot-path flag:
    both shape the record, and neither is part of the content hash.
    """
    sha = hashlib.sha256(ctx.source.encode("utf-8")).hexdigest()
    rec = _MEMORY_CACHE.get(sha)
    if rec is None or (rec.path, rec.hot) != (ctx.path, ctx.hot_path):
        rec = _MEMORY_CACHE[sha] = extract_module(ctx)
    return rec


# -- phase 2: resolution + fixpoint ---------------------------------------


class Project:
    """A resolved whole-program view: functions, edges, fixpoint facts."""

    def __init__(self, records: Sequence[ModuleRecord]) -> None:
        self.modules: dict[str, ModuleRecord] = {}
        for rec in records:
            prior = self.modules.get(rec.module)
            if prior is not None and prior.path != rec.path:
                # Same stem outside a package (two fixture files named
                # alike): qualify by path stem collision index.
                alias = f"{rec.module}#{len(self.modules)}"
                rec = replace(rec, module=alias)
            self.modules[rec.module] = rec
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self._classes_by_bare: dict[str, list[str]] = {}
        for rec in self.modules.values():
            for info in rec.functions:
                self.functions[info.qname] = info
            for ci in rec.classes:
                self.classes[ci.qname] = ci
                self._classes_by_bare.setdefault(ci.name, []).append(ci.qname)
        self.edges: list[CallEdge] = []
        self.workers: dict[str, list[str]] = {}
        self._resolve_edges()
        self._edges_by_caller: dict[str, list[CallEdge]] = {}
        for edge in self.edges:
            self._edges_by_caller.setdefault(edge.caller, []).append(edge)
        self.summaries: dict[str, fx.FunctionEffects] = {}
        self.rounds = 0
        self._fixpoint()

    # -- resolution --

    def _resolve_class_name(self, raw: str, module: str) -> str | None:
        rec = self.modules.get(module)
        leaf = raw.rsplit(".", 1)[-1]
        if rec is not None:
            imports = dict(rec.imports)
            if raw in imports and imports[raw] in self.classes:
                return imports[raw]
            candidate = f"{module}.{raw}"
            if candidate in self.classes:
                return candidate
        qnames = self._classes_by_bare.get(leaf, [])
        if len(qnames) == 1:
            return qnames[0]
        return None

    def _lookup_method(
        self, class_qname: str, attr: str, depth: int = 0
    ) -> str | None:
        if depth > 8:
            return None
        ci = self.classes.get(class_qname)
        if ci is None:
            return None
        found = ci.method(attr)
        if found is not None:
            return found
        for base_raw in ci.bases:
            base_q = self._resolve_class_name(base_raw, ci.module)
            if base_q is not None and base_q != class_qname:
                found = self._lookup_method(base_q, attr, depth + 1)
                if found is not None:
                    return found
        return None

    def _receiver_class(self, info: FunctionInfo, var: str) -> str | None:
        if var == "self" and info.cls is not None:
            return f"{info.module}.{info.cls}"
        types = dict(info.types)
        raw = types.get(var)
        if raw is not None:
            resolved = self._resolve_class_name(raw, info.module)
            if resolved is not None:
                return resolved
        conv = _RECEIVER_CONVENTIONS.get(var)
        if conv is not None:
            qnames = self._classes_by_bare.get(conv, [])
            if len(qnames) == 1:
                return qnames[0]
        return None

    def _resolve_plain(self, info: FunctionInfo, name: str) -> str | None:
        # Innermost enclosing scope first: nested defs, then siblings up
        # the qname chain, then module level.
        parts = info.qname.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join((*parts[:cut], name))
            if candidate in self.functions:
                return candidate
        rec = self.modules.get(info.module)
        if rec is not None:
            imports = dict(rec.imports)
            target = imports.get(name)
            if target is not None:
                if target in self.functions:
                    return target
                if target in self.classes:
                    init = self._lookup_method(target, "__init__")
                    return init
        cls_q = self._resolve_class_name(name, info.module)
        if cls_q is not None:
            return self._lookup_method(cls_q, "__init__")
        return None

    def _resolve_call(
        self, info: FunctionInfo, raw: str
    ) -> tuple[str | None, str | None]:
        """``(callee_qname, receiver_var)`` for one call spelling."""
        if "." not in raw:
            return self._resolve_plain(info, raw), None
        base, attr = raw.rsplit(".", 1)
        if "." in base:
            # a.b.c(...): resolvable only when `a.b` spells a module.
            root = base.split(".", 1)[0]
            rec = self.modules.get(info.module)
            imports = dict(rec.imports) if rec is not None else {}
            prefix = imports.get(root)
            if prefix is not None:
                resolved_mod = base.replace(root, prefix, 1)
                candidate = f"{resolved_mod}.{attr}"
                if candidate in self.functions:
                    return candidate, None
            return None, None
        rec = self.modules.get(info.module)
        imports = dict(rec.imports) if rec is not None else {}
        target = imports.get(base)
        if target is not None and target in self.modules:
            candidate = f"{target}.{attr}"
            if candidate in self.functions:
                return candidate, None
        if target is not None:
            candidate = f"{target}.{attr}"
            if candidate in self.functions:
                return candidate, None
            if target in self.classes:
                method = self._lookup_method(target, attr)
                if method is not None:
                    return method, base
        cls_q = self._receiver_class(info, base)
        if cls_q is not None:
            method = self._lookup_method(cls_q, attr)
            if method is not None:
                return method, base
        return None, None

    def _resolve_edges(self) -> None:
        for info in self.functions.values():
            for call in info.summary.calls:
                callee, receiver = self._resolve_call(info, call.callee)
                self.edges.append(
                    CallEdge(
                        caller=info.qname,
                        callee=callee,
                        raw=call.callee,
                        line=call.line,
                        col=call.col,
                        receiver=receiver,
                        args=call.args,
                        kwargs=call.kwargs,
                        maybe=call.maybe,
                    )
                )
            for worker_raw, line, col in info.dispatch_targets:
                worker_q = self._resolve_plain(info, worker_raw)
                if worker_q is not None:
                    self.workers.setdefault(worker_q, []).append(info.qname)
                self.edges.append(
                    CallEdge(
                        caller=info.qname,
                        callee=worker_q,
                        raw=worker_raw,
                        line=line,
                        col=col,
                        receiver=None,
                        args=(),
                        kwargs=(),
                        dispatch=True,
                    )
                )

    # -- fixpoint --

    def _fixpoint(self) -> None:
        base = {q: info.summary for q, info in self.functions.items()}
        state = {
            q: {
                "writes": set(s.writes),
                "raises": s.raises,
                "ws_writes": set(s.ws_writes),
                "returns_ws": s.returns_ws,
                "closes": set(s.closes),
                "resets": set(s.resets),
            }
            for q, s in base.items()
        }
        callers_of: dict[str, set[str]] = {}
        for edge in self.edges:
            if edge.callee is not None:
                callers_of.setdefault(edge.callee, set()).add(edge.caller)
        worklist: deque[str] = deque(self.functions)
        queued = set(worklist)
        cap = _MAX_ROUNDS_PER_FUNCTION * max(1, len(self.functions))
        rounds = 0
        while worklist and rounds < cap:
            rounds += 1
            q = worklist.popleft()
            queued.discard(q)
            info = self.functions[q]
            s = state[q]
            bs = base[q]
            changed = False
            for edge in self._edges_by_caller.get(q, ()):
                if edge.callee is None:
                    continue
                callee_state = state[edge.callee]
                callee_base = base[edge.callee]
                if callee_state["raises"] and not s["raises"]:
                    # A dispatched worker's exception surfaces when the
                    # pool result is consumed, so dispatch edges carry
                    # the raises fact too.
                    s["raises"] = True
                    changed = True
                if edge.dispatch:
                    continue
                bindings = edge_bindings(edge, callee_base.params)
                ws_bound = False
                for param, arg in bindings:
                    if param in callee_state["writes"] and arg not in s["writes"]:
                        s["writes"].add(arg)
                        changed = True
                    # A callee that closes or resets its parameter does
                    # so to the caller's parameter bound there; a close
                    # counts only from a call made on every path.
                    if arg in bs.params:
                        if (
                            param in callee_state["resets"]
                            and arg not in s["resets"]
                        ):
                            s["resets"].add(arg)
                            changed = True
                        if (
                            not edge.maybe
                            and param in callee_state["closes"]
                            and arg not in s["closes"]
                        ):
                            s["closes"].add(arg)
                            changed = True
                    if param in callee_base.ws_params and (
                        arg in bs.ws_params or arg in fx.WS_PARAM_NAMES
                    ):
                        ws_bound = True
                if ws_bound and callee_state["ws_writes"]:
                    before = len(s["ws_writes"])
                    s["ws_writes"].update(callee_state["ws_writes"])
                    if len(s["ws_writes"]) != before:
                        changed = True
                if (
                    not s["returns_ws"]
                    and callee_state["returns_ws"]
                    and edge.raw in bs.returns_calls
                    and ws_bound
                ):
                    s["returns_ws"] = True
                    changed = True
            if changed:
                # Sorted, so the round count does not depend on set
                # order (and so on PYTHONHASHSEED).
                for caller in sorted(callers_of.get(q, ())):
                    if caller not in queued:
                        worklist.append(caller)
                        queued.add(caller)
        self.rounds = rounds
        self.summaries = {
            q: replace(
                base[q],
                writes=frozenset(state[q]["writes"]),
                raises=state[q]["raises"],
                ws_writes=frozenset(state[q]["ws_writes"]),
                returns_ws=state[q]["returns_ws"],
                closes=frozenset(state[q]["closes"]),
                resets=frozenset(state[q]["resets"]),
            )
            for q in self.functions
        }

    # -- queries --

    def who_writes(self, target: str) -> list[str]:
        """Functions whose fixpoint summary writes ``target``.

        ``workspace.<attr>`` matches the canonical dotted workspace
        locations; a plain name matches parameter/free-variable writes.
        """
        if target.startswith("workspace."):
            return sorted(
                q for q, s in self.summaries.items()
                if target in s.ws_writes
            )
        return sorted(
            q for q, s in self.summaries.items() if target in s.writes
        )

    def callers_of(self, qname: str) -> set[str]:
        """Transitive callers of ``qname`` (reverse reachability)."""
        if qname not in self.functions:
            raise CallGraphError(f"unknown function {qname!r}")
        reverse: dict[str, set[str]] = {}
        for edge in self.edges:
            if edge.callee is not None:
                reverse.setdefault(edge.callee, set()).add(edge.caller)
        seen: set[str] = set()
        stack = [qname]
        while stack:
            cur = stack.pop()
            for caller in reverse.get(cur, ()):
                if caller not in seen:
                    seen.add(caller)
                    stack.append(caller)
        return seen

    def cycles(self) -> list[list[str]]:
        """Non-trivial strongly-connected components (Tarjan), plus
        self-loops, over resolved call edges."""
        adjacency: dict[str, list[str]] = {}
        for edge in self.edges:
            if edge.callee is not None:
                adjacency.setdefault(edge.caller, []).append(edge.callee)
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = [0]
        out: list[list[str]] = []

        def strongconnect(v: str) -> None:
            # Iterative Tarjan: recursion depth equals call-chain depth,
            # which an adversarial fixture could overflow.
            work = [(v, 0)]
            while work:
                node, pi = work[-1]
                if pi == 0:
                    index[node] = low[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                neighbours = adjacency.get(node, [])
                for i in range(pi, len(neighbours)):
                    w = neighbours[i]
                    if w not in index:
                        work[-1] = (node, i + 1)
                        work.append((w, 0))
                        recurse = True
                        break
                    if w in on_stack:
                        low[node] = min(low[node], index[w])
                if recurse:
                    continue
                if low[node] == index[node]:
                    comp: list[str] = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == node:
                            break
                    if len(comp) > 1 or any(
                        e.callee == node
                        for e in self._edges_by_caller.get(node, ())
                    ):
                        out.append(sorted(comp))
                work.pop()
                if work:
                    parent, _ = work[-1]
                    low[parent] = min(low[parent], low[node])

        for v in self.functions:
            if v not in index:
                strongconnect(v)
        return out

    def stats(self) -> dict:
        resolved = sum(1 for e in self.edges if e.callee is not None)
        return {
            "modules": len(self.modules),
            "functions": len(self.functions),
            "edges": len(self.edges),
            "resolved_edges": resolved,
            "workers": len(self.workers),
            "fixpoint_rounds": self.rounds,
        }

    # -- exports --

    def to_dot(self) -> str:
        """GraphViz digraph: one node per function, clustered by module;
        hot-path nodes are shaded, dispatch edges dashed."""
        lines = ["digraph callgraph {", '  rankdir="LR";',
                 '  node [shape=box, fontsize=9];']
        for mi, (mod, rec) in enumerate(sorted(self.modules.items())):
            lines.append(f'  subgraph "cluster_{mi}" {{')
            lines.append(f'    label="{mod}";')
            for info in rec.functions:
                style = ', style=filled, fillcolor="lightsalmon"' \
                    if info.hot else ""
                lines.append(
                    f'    "{info.qname}" [label="{info.name}"{style}];'
                )
            lines.append("  }")
        for edge in self.edges:
            if edge.callee is None:
                continue
            style = ' [style=dashed, label="dispatch"]' if edge.dispatch else ""
            lines.append(f'  "{edge.caller}" -> "{edge.callee}"{style};')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self, *, summaries: bool = False) -> str:
        payload: dict = {
            "schema": "repro.analysis.callgraph/1",
            "stats": self.stats(),
            "functions": sorted(self.functions),
            "edges": [
                {
                    "caller": e.caller,
                    "callee": e.callee,
                    "raw": e.raw,
                    "line": e.line,
                    "dispatch": e.dispatch,
                }
                for e in self.edges
            ],
        }
        if summaries:
            payload["summaries"] = {
                q: _summary_to_dict(s)
                for q, s in sorted(self.summaries.items())
            }
        return json.dumps(payload, indent=2, sort_keys=False)

    def format_summaries(self) -> str:
        """Human-readable fixpoint summaries, one function per line."""
        return fx.format_effects(
            {q: self.summaries[q] for q in sorted(self.summaries)}
        )


def project_from_sources(
    pairs: Iterable[tuple[str | Path, str]]
) -> Project:
    """Build a project from in-memory ``(path, source)`` pairs.

    Unparsable sources raise :class:`CallGraphError`; this entry point
    is for tests and single-file analysis where the caller already
    validated the source.
    """
    try:
        contexts = [parse_module(src, str(p)) for p, src in pairs]
    except LintError as exc:
        raise CallGraphError(str(exc)) from exc
    return Project([module_record(ctx) for ctx in contexts])


def build_project(files: Iterable[str | Path]) -> Project:
    """Build a whole-program project from files on disk.

    Files that cannot be read, decoded or parsed are skipped — the lint
    driver reports them separately as structured diagnostics; the graph
    is built over everything that parses.  Extraction records come from
    the in-process memory cache on content-hash hits.
    """
    records: list[ModuleRecord] = []
    for entry in files:
        try:
            module = read_module(Path(entry))
        except LintError:
            continue
        if isinstance(module, ModuleContext):
            records.append(module_record(module))
    if not records:
        raise CallGraphError("no parsable Python inputs for the call graph")
    return Project(records)
