"""Per-function read/write/escape/raise effect summaries.

For every function defined in a module (including methods and nested
closures) this computes a :class:`FunctionEffects` record:

* ``reads``    — parameter / free-variable names whose *contents* the
  function reads (subscript loads, use as a call argument, arithmetic);
* ``writes``   — parameter / free-variable names the function mutates
  (subscript or attribute stores, augmented subscript assignment,
  in-place NumPy methods like ``fill``/``sort``, ``out=`` keyword
  targets);
* ``escapes``  — parameter / free-variable names the function returns
  or stores onto an object attribute (the value outlives the call);
* ``raises``   — whether the body contains an explicit ``raise``;
* ``ws_writes`` — dotted workspace locations the function writes
  through a workspace-typed receiver (``workspace.parent`` for a
  ``ws.parent[rows] = v`` store, including ``self.parent`` inside
  :class:`~repro.bfs.workspace.BFSWorkspace` methods);
* ``closes``   — parameters the function closes (``p.close()`` /
  ``p.shutdown()``) on every path: a close under an ``if``, inside a
  loop or in an ``except`` handler does not count (RPR023);
* ``resets``   — parameters that get ``begin()`` or are handed to a
  traversal as ``workspace=``/``ws=`` on some path (RPR024);
* ``calls``    — call sites (plain names *and* dotted attribute
  spellings like ``ws.begin``) with the variable names bound to each
  argument position, so effects can be propagated through a call graph.

These are *direct* facts: :mod:`repro.analysis.callgraph` resolves the
call sites against the whole program and propagates the summaries to a
fixpoint, through arbitrary call depth and across modules.  Unresolved
callees (imports outside the project, attribute calls the call graph
cannot type) are assumed effect-free for their arguments —
deliberately optimistic, because pessimism would drown the worker-race
rules of :mod:`repro.analysis.program` in false positives.

Plain rebinding of a *local* name is not an effect; only names bound
outside the function (parameters and free variables) can carry effects
visible to a caller.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

__all__ = [
    "CallSite",
    "FunctionEffects",
    "function_effects",
    "module_import_names",
    "format_effects",
    "WS_PARAM_NAMES",
    "WS_FACTORY_METHODS",
    "CLOSE_METHODS",
]

#: ndarray methods that mutate the receiver in place.
MUTATING_METHODS = frozenset(
    {"fill", "sort", "resize", "put", "partition", "setfield", "byteswap"}
)

#: Parameter names conventionally bound to a BFSWorkspace (the dataflow
#: tier seeds the same convention; see repro.analysis.dataflow).
WS_PARAM_NAMES = frozenset({"ws", "workspace"})

#: BFSWorkspace methods whose return value aliases workspace-owned
#: storage (the alias-until-detach contract RPR011/RPR016 police).
WS_FACTORY_METHODS = frozenset(
    {"buffer", "begin", "iota", "unvisited_ids", "load_frontier"}
)

#: Methods that release a ``ParallelBFS`` engine or a thread pool.
CLOSE_METHODS = frozenset({"close", "shutdown"})


@dataclass(frozen=True)
class CallSite:
    """One ``callee(arg0, arg1, ..., kw=name)`` site inside a function.

    ``callee`` is the source spelling: a bare name for ``g(...)`` or a
    dotted path for ``ws.begin(...)`` / ``mod.helper(...)`` (attribute
    chains rooted at anything other than a plain name are not
    recorded).  ``args`` holds the *variable name* bound to each
    positional slot (``None`` when the argument is a computed
    expression), ``kwargs`` maps keyword names to variable names.
    ``maybe`` marks a call made only on some paths (under an ``if``,
    inside a loop or in an ``except`` handler).
    """

    callee: str
    args: tuple[str | None, ...]
    kwargs: tuple[tuple[str, str], ...]
    line: int
    col: int
    maybe: bool = False


@dataclass(frozen=True)
class FunctionEffects:
    """Read/write/escape/raise summary for one function definition."""

    name: str
    params: tuple[str, ...]
    reads: frozenset[str]
    writes: frozenset[str]
    escapes: frozenset[str]
    calls: tuple[CallSite, ...]
    line: int = 0
    raises: bool = False
    ws_params: frozenset[str] = frozenset()
    ws_writes: frozenset[str] = frozenset()
    returns_ws: bool = False
    returns_calls: tuple[str, ...] = ()
    closes: frozenset[str] = frozenset()
    resets: frozenset[str] = frozenset()

    def writes_param(self, param: str) -> bool:
        """Whether the summary records a mutation of ``param``."""
        return param in self.writes


def _terminal_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return _terminal_name(node.value)
    if isinstance(node, ast.Subscript):
        return _terminal_name(node.value)
    return None


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a plain name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _param_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    a = fn.args
    names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
    if a.vararg:
        names.append(a.vararg.arg)
    if a.kwarg:
        names.append(a.kwarg.arg)
    return tuple(names)


def _annotation_name(node: ast.expr | None) -> str | None:
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.rsplit(".", 1)[-1]
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _workspace_params(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, *, self_is_workspace: bool
) -> frozenset[str]:
    """Parameters bound to a BFSWorkspace, by name convention or
    annotation (plus ``self`` inside BFSWorkspace methods)."""
    ws: set[str] = set()
    a = fn.args
    for p in (*a.posonlyargs, *a.args, *a.kwonlyargs):
        if p.arg in WS_PARAM_NAMES:
            ws.add(p.arg)
        elif _annotation_name(p.annotation) == "BFSWorkspace":
            ws.add(p.arg)
    if self_is_workspace:
        ws.add("self")
    return frozenset(ws)


def _local_names(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, own: list[ast.AST]
) -> set[str]:
    """Names bound inside ``fn`` (excluding nested function bodies);
    ``own`` is ``_walk_own(fn)``."""
    locals_: set[str] = set(_param_names(fn))
    for node in own:
        if isinstance(node, ast.Assign):
            for tgt in node.targets:
                locals_.update(_binding_names(tgt))
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if isinstance(node.target, ast.Name):
                locals_.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            locals_.update(_binding_names(node.target))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    locals_.update(_binding_names(item.optional_vars))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not fn:
                locals_.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                locals_.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            locals_.add(node.name)
        elif isinstance(node, ast.Global) or isinstance(node, ast.Nonlocal):
            locals_.difference_update(node.names)
    return locals_


def module_import_names(tree: ast.Module) -> frozenset[str]:
    """Names bound by top-level imports (``np``, ``ast``, ...).

    ``np.sort(x)`` is the functional, copying sort — a mutating-method
    receiver that resolves to an imported module is never an array
    write, so these names are excluded from effect tracking.
    """
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return frozenset(names)


def _binding_names(target: ast.expr) -> set[str]:
    out: set[str] = set()
    for sub in ast.walk(target):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, (ast.Store,)):
            out.add(sub.id)
    return out


def _walk_own(fn: ast.AST) -> list[ast.AST]:
    """Walk ``fn`` without descending into nested function definitions.

    Nested ``def`` nodes themselves are yielded (they bind a local
    name) but their bodies are not — a closure's effects are its own
    summary, not its parent's.
    """
    out: list[ast.AST] = [fn]
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return out


def _definite_calls(body: list[ast.stmt]) -> set[int]:
    """ids of the calls a statement list makes on every path through it.

    Calls under an ``if``, inside a loop body or in an ``except``
    handler are left out; ``try`` bodies, ``finally`` blocks and
    ``with`` bodies run on every path.
    """
    out: set[int] = set()
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        if isinstance(stmt, ast.Try):
            for block in (stmt.body, stmt.orelse, stmt.finalbody):
                out |= _definite_calls(block)
            continue
        heads: list[ast.AST] = [stmt]
        if isinstance(stmt, (ast.If, ast.While)):
            heads = [stmt.test]
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            heads = [stmt.iter]
        elif isinstance(stmt, ast.Match):
            heads = [stmt.subject]
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            heads = [item.context_expr for item in stmt.items]
            out |= _definite_calls(stmt.body)
        out.update(
            id(node) for head in heads for node in ast.walk(head)
            if isinstance(node, ast.Call)
        )
    return out


def _ws_location(node: ast.expr, ws_names: frozenset[str]) -> str | None:
    """``workspace.<attr>`` for an lvalue rooted at a workspace name.

    ``ws.parent[rows]`` and ``ws.parent`` both normalize to
    ``workspace.parent`` regardless of the receiver's spelling, so
    whole-program queries like ``--who-writes workspace.parent`` see
    one canonical location.
    """
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ws_names
    ):
        return f"workspace.{node.attr}"
    return None


def function_effects(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    *,
    module_imports: frozenset[str] = frozenset(),
    self_is_workspace: bool = False,
) -> FunctionEffects:
    """Direct (unpropagated) effects of one function definition.

    ``module_imports`` names resolve to modules, not arrays; they are
    never recorded as mutating-method write targets.
    ``self_is_workspace`` marks methods of the workspace class itself,
    so their ``self.parent`` stores surface as ``workspace.parent``.
    """
    own = _walk_own(fn)
    return _function_effects(
        fn,
        own,
        _local_names(fn, own),
        module_imports=module_imports,
        self_is_workspace=self_is_workspace,
    )


def _function_effects(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    own: list[ast.AST],
    locals_: set[str],
    *,
    module_imports: frozenset[str],
    self_is_workspace: bool,
) -> FunctionEffects:
    """:func:`function_effects` over a body already walked: ``own`` is
    ``_walk_own(fn)`` and ``locals_`` is ``_local_names(fn, own)``."""
    params = _param_names(fn)
    nonlocal_names = set(params)  # params carry effects too
    ws_params = _workspace_params(fn, self_is_workspace=self_is_workspace)
    reads: set[str] = set()
    writes: set[str] = set()
    escapes: set[str] = set()
    ws_writes: set[str] = set()
    closes: set[str] = set()
    resets: set[str] = set()
    calls: list[CallSite] = []
    raises = False
    definite = _definite_calls(fn.body)

    def tracked(name: str | None) -> str | None:
        """A name whose effects a caller can observe: a parameter or a
        free variable (not a plain local)."""
        if name is None or name in module_imports:
            return None
        if name in nonlocal_names or name not in locals_:
            return name
        return None

    # Pass 1: workspace-derived locals, needed before returns can be
    # classified (walk order is not source order).
    ws_derived: set[str] = set(ws_params)
    for node in own:
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if isinstance(value, ast.Call):
            raw = _dotted_name(value.func)
            receiver = raw.rsplit(".", 1) if raw and "." in raw else None
            if (
                receiver is not None
                and receiver[0] in ws_params
                and receiver[1] in WS_FACTORY_METHODS
            ):
                for tgt in node.targets:
                    ws_derived.update(_binding_names(tgt))
        elif (
            isinstance(value, ast.Subscript)
            and isinstance(value.slice, ast.Slice)
            and isinstance(value.value, ast.Name)
            and value.value.id in ws_derived
        ):
            # A plain slice is a view: `buf[:k]` still aliases scratch.
            for tgt in node.targets:
                for name in _binding_names(tgt):
                    ws_derived.add(name)

    returns_ws = False
    returns_calls: list[str] = []

    def classify_return(value: ast.expr) -> None:
        nonlocal returns_ws
        exprs = value.elts if isinstance(value, ast.Tuple) else [value]
        for expr in exprs:
            if isinstance(expr, ast.Name) and expr.id in ws_derived:
                returns_ws = True
            elif isinstance(expr, ast.Call):
                raw = _dotted_name(expr.func)
                if raw:
                    returns_calls.append(raw)
                    receiver = raw.rsplit(".", 1) if "." in raw else None
                    if (
                        receiver is not None
                        and receiver[0] in ws_params
                        and receiver[1] in WS_FACTORY_METHODS
                    ):
                        returns_ws = True

    for node in own:
        if isinstance(node, ast.Assign):
            for tgt in node.targets:
                loc = _ws_location(tgt, ws_params)
                if loc:
                    ws_writes.add(loc)
                _record_store(tgt, tracked, writes)
        elif isinstance(node, ast.AugAssign):
            loc = _ws_location(node.target, ws_params)
            if loc:
                ws_writes.add(loc)
            _record_store(node.target, tracked, writes)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            _record_store(node.target, tracked, writes)
        elif isinstance(node, ast.Call):
            _record_call_writes(node, tracked, writes, ws_params, ws_writes)
            maybe = id(node) not in definite
            _record_call_site(node, calls, maybe=maybe)
            _record_lifecycle(node, params, closes, resets, maybe=maybe)
        elif isinstance(node, ast.Raise):
            raises = True
        elif isinstance(node, ast.Return) and node.value is not None:
            classify_return(node.value)
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Name):
                    name = tracked(sub.id)
                    if name:
                        escapes.add(name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = tracked(node.id)
            if name:
                reads.add(name)
    return FunctionEffects(
        name=fn.name,
        params=params,
        reads=frozenset(reads),
        writes=frozenset(writes),
        escapes=frozenset(escapes),
        calls=tuple(calls),
        line=fn.lineno,
        raises=raises,
        ws_params=ws_params,
        ws_writes=frozenset(ws_writes),
        returns_ws=returns_ws,
        returns_calls=tuple(returns_calls),
        closes=frozenset(closes),
        resets=frozenset(resets),
    )


def _record_lifecycle(
    node: ast.Call,
    params: tuple[str, ...],
    closes: set[str],
    resets: set[str],
    *,
    maybe: bool,
) -> None:
    # p.close() on every path closes p; p.begin() or workspace=p on
    # any path resets it.
    fn = node.func
    if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
        recv = fn.value.id
        if recv in params and fn.attr in CLOSE_METHODS and not maybe:
            closes.add(recv)
        elif recv in params and fn.attr == "begin":
            resets.add(recv)
    for kw in node.keywords:
        if (
            kw.arg in WS_PARAM_NAMES
            and isinstance(kw.value, ast.Name)
            and kw.value.id in params
        ):
            resets.add(kw.value.id)


def _record_store(tgt: ast.expr, tracked, writes: set[str]) -> None:
    # x[...] = v  /  x.attr = v  mutate x; plain `x = v` rebinds a local.
    if isinstance(tgt, (ast.Subscript, ast.Attribute)):
        name = tracked(_terminal_name(tgt))
        if name:
            writes.add(name)
    elif isinstance(tgt, (ast.Tuple, ast.List)):
        for elt in tgt.elts:
            _record_store(elt, tracked, writes)


def _record_call_writes(
    node: ast.Call,
    tracked,
    writes: set[str],
    ws_params: frozenset[str],
    ws_writes: set[str],
) -> None:
    fn = node.func
    # x.fill(v) and friends mutate x in place.
    if isinstance(fn, ast.Attribute) and fn.attr in MUTATING_METHODS:
        name = tracked(_terminal_name(fn.value))
        if name:
            writes.add(name)
        loc = _ws_location(fn.value, ws_params)
        if loc:
            ws_writes.add(loc)
    # np.something(..., out=x) writes x.
    for kw in node.keywords:
        if kw.arg == "out":
            if isinstance(kw.value, ast.Name):
                name = tracked(kw.value.id)
                if name:
                    writes.add(name)
            loc = _ws_location(kw.value, ws_params)
            if loc:
                ws_writes.add(loc)


def _record_call_site(
    node: ast.Call, calls: list[CallSite], *, maybe: bool
) -> None:
    # Record both plain-name calls (resolvable within the module) and
    # dotted attribute calls (resolvable by the whole-program graph).
    raw = _dotted_name(node.func)
    if raw is None:
        return
    args = tuple(
        a.id if isinstance(a, ast.Name) else None for a in node.args
    )
    kwargs = tuple(
        (kw.arg, kw.value.id)
        for kw in node.keywords
        if kw.arg is not None and isinstance(kw.value, ast.Name)
    )
    calls.append(
        CallSite(
            callee=raw,
            args=args,
            kwargs=kwargs,
            line=node.lineno,
            col=node.col_offset,
            maybe=maybe,
        )
    )


def _workspace_classes(tree: ast.Module) -> set[int]:
    """ids of method nodes whose ``self`` is a workspace instance."""
    method_ids: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and "Workspace" in node.name:
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    method_ids.add(id(stmt))
    return method_ids


def format_effects(effects: dict[str, FunctionEffects]) -> str:
    """Human-readable dump, one function per line (stable order)."""
    rows = []
    for name in sorted(effects):
        fx = effects[name]
        flags = " raises" if fx.raises else ""
        optional = "".join(
            f" {label}={{{', '.join(sorted(names))}}}"
            for label, names in (
                ("ws_writes", fx.ws_writes),
                ("closes", fx.closes),
                ("resets", fx.resets),
            )
            if names
        )
        rows.append(
            f"{name}({', '.join(fx.params)})"
            f" reads={{{', '.join(sorted(fx.reads))}}}"
            f" writes={{{', '.join(sorted(fx.writes))}}}"
            f" escapes={{{', '.join(sorted(fx.escapes))}}}"
            f"{optional}{flags}"
        )
    return "\n".join(rows)
