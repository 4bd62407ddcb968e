"""Per-function write/raise effect summaries.

For every function defined in a module (including methods and nested
closures) this computes a :class:`FunctionEffects` record:

* ``writes``   — parameter / free-variable names the function mutates
  (subscript or attribute stores, augmented subscript assignment,
  in-place NumPy methods like ``fill``/``sort``, ``out=`` keyword
  targets);
* ``raises``   — whether the body contains an explicit ``raise``;
* ``ws_writes`` — dotted workspace locations the function writes
  through a workspace-typed receiver (``workspace.parent`` for a
  ``ws.parent[rows] = v`` store, including ``self.parent`` inside
  :class:`~repro.bfs.workspace.BFSWorkspace` methods);
* ``calls``    — call sites (plain names *and* dotted attribute
  spellings like ``ws.begin``) with the variable names bound to each
  argument position, so effects can be propagated through a call graph.

These are *direct* facts: :mod:`repro.analysis.callgraph` resolves the
call sites against the whole program and propagates the summaries to a
fixpoint, through arbitrary call depth and across modules.  Unresolved
callees (imports outside the project, attribute calls the call graph
cannot type) are assumed effect-free for their arguments and
non-raising — deliberately optimistic, because pessimism would drown
the whole-program rules of :mod:`repro.analysis.program` in false
positives.

Plain rebinding of a *local* name is not an effect; only names bound
outside the function (parameters and free variables) can carry effects
visible to a caller.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.analysis.lint import ModuleContext

__all__ = [
    "CallSite",
    "FunctionEffects",
    "function_effects",
    "workspace_methods",
    "format_effects",
    "MUTATING_METHODS",
    "WORKSPACE_CLASS",
    "WS_PARAM_NAMES",
    "CLOSE_METHODS",
]

#: ndarray methods that mutate the receiver in place (the effect
#: summaries, the dataflow interpreter and RPR005 share this set).
MUTATING_METHODS = frozenset(
    {"fill", "sort", "resize", "put", "partition", "setfield", "byteswap"}
)

#: The workspace class: ``self`` in its methods is a workspace, and so
#: is a parameter annotated with it.
WORKSPACE_CLASS = "BFSWorkspace"

#: Parameter names conventionally bound to a BFSWorkspace.
WS_PARAM_NAMES = frozenset({"ws", "workspace"})

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
    """

    callee: str
    args: tuple[str | None, ...]
    kwargs: tuple[tuple[str, str], ...]
    line: int
    col: int


@dataclass(frozen=True)
class FunctionEffects:
    """Write/raise summary for one function definition."""

    name: str
    params: tuple[str, ...]
    writes: frozenset[str]
    calls: tuple[CallSite, ...]
    line: int = 0
    raises: bool = False
    ws_params: frozenset[str] = frozenset()
    ws_writes: frozenset[str] = frozenset()

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
    annotation (plus ``self`` inside BFSWorkspace methods).  Both the
    effect summaries and the dataflow interpreter seed from this."""
    ws: set[str] = set()
    a = fn.args
    for p in (*a.posonlyargs, *a.args, *a.kwonlyargs):
        if p.arg in WS_PARAM_NAMES:
            ws.add(p.arg)
        elif _annotation_name(p.annotation) == WORKSPACE_CLASS:
            ws.add(p.arg)
    if self_is_workspace:
        ws.add("self")
    return frozenset(ws)


def workspace_methods(ctx: ModuleContext) -> frozenset[int]:
    """ids of the method nodes in ``ctx`` whose ``self`` is a workspace
    (the methods of :data:`WORKSPACE_CLASS`), read off the module's
    node index by the call-graph extraction and the dataflow driver."""
    return frozenset(
        id(stmt)
        for cls in ctx.nodes(ast.ClassDef)
        if cls.name == WORKSPACE_CLASS
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    )


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
    writes: set[str] = set()
    ws_writes: set[str] = set()
    calls: list[CallSite] = []
    raises = False

    def tracked(name: str | None) -> str | None:
        """A name whose effects a caller can observe: a parameter or a
        free variable (not a plain local)."""
        if name is None or name in module_imports:
            return None
        if name in nonlocal_names or name not in locals_:
            return name
        return None

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
            _record_call_site(node, calls)
        elif isinstance(node, ast.Raise):
            raises = True
    return FunctionEffects(
        name=fn.name,
        params=params,
        writes=frozenset(writes),
        calls=tuple(calls),
        line=fn.lineno,
        raises=raises,
        ws_params=ws_params,
        ws_writes=frozenset(ws_writes),
    )


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


def _record_call_site(node: ast.Call, calls: list[CallSite]) -> None:
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
        )
    )


def format_effects(effects: dict[str, FunctionEffects]) -> str:
    """Human-readable dump, one newline-terminated line per function
    (stable order)."""
    rows = []
    for name in sorted(effects):
        fx = effects[name]
        flags = " raises" if fx.raises else ""
        optional = (
            f" ws_writes={{{', '.join(sorted(fx.ws_writes))}}}"
            if fx.ws_writes else ""
        )
        rows.append(
            f"{name}({', '.join(fx.params)})"
            f" writes={{{', '.join(sorted(fx.writes))}}}"
            f"{optional}{flags}\n"
        )
    return "".join(rows)
