"""Abstract interpretation for the deep lint rules.

This module implements a small abstract interpreter over Python AST
with a NumPy-aware value domain, and registers five deep rules on top
of it:

========  ==============================================================
RPR010    silent dtype narrowing / mixed-dtype index math on the kernel
          hot path: ``x.astype(np.int32)`` (or ``dtype=`` construction,
          or a store into a known-int32 array) where the abstract dtype
          of ``x`` is *known* to be 64-bit, and ``uint64 (op) int64``
          array arithmetic, which NumPy resolves by promoting to
          float64
RPR011    write to a workspace-aliased array (``parent``, ``level``,
          claim slots, scratch buffers, ``workspace.begin()``) while a
          live :class:`~repro.bfs.result.BFSResult` still aliases it —
          results alias workspace storage until ``detach()``
RPR012    a ``workspace.buffer(...)`` scratch array that is written but
          never read in its function — a dead store burning memory
          bandwidth on the hot path
RPR023    ``run()`` on a ``ParallelBFS`` engine that is closed on every
          path: by ``close()``/``shutdown()``, by leaving its ``with``
          block, or by a callee that closes the bound argument
RPR024    a workspace re-lent (``workspace=``/``ws=``, ``begin()``, or a
          callee that may reset it) while an earlier traversal's result
          still aliases its arrays and is read later, returned, or
          stored in a container or attribute
========  ==============================================================

The value domain tracks, per local variable:

* an abstract **dtype** (``int32``/``int64``/``uint64``/``bool``/
  ``float32``/``float64`` or unknown) propagated through assignments,
  slicing, ``astype``, views, and arithmetic with NumPy's promotion
  rules;
* a **kind** (array / scalar / workspace / result / tuple / unknown) —
  the rank-0 vs rank-1 shape distinction the narrowing rules need;
* an **alias set** of symbolic workspace locations
  (``ws.parent``, ``ws.level``, ``ws.claim``, ``ws.iota``,
  ``ws.buffer:<name>``), seeded from :class:`BFSWorkspace` API calls
  and preserved through basic-slice views, dropped by copies;
* for an ``engine`` (``ParallelBFS``) or ``workspace`` value, the
  constructor call (or parameter) it came from, so aliases share one
  identity, and for an engine whether it is **closed**, which branch
  joins keep only when every path closed it.

The lifecycle rules (RPR023, RPR024) are interprocedural: a call's
callee facts — the parameters it ``closes`` on every path and the
parameters it ``resets`` — come from the whole-program fixpoint of
:mod:`repro.analysis.callgraph` (a one-file project when the lint run
has none).  A workspace re-lend counts as RPR011's write to
``ws.parent``/``ws.level``; RPR024 reports it when a result bound from
an earlier traversal of the same workspace is still read on a later
line or has escaped.

The interpreter is deliberately approximate: branches are joined
point-wise, loop bodies are interpreted once, ``except`` handlers do
not flow on, and anything it cannot prove is *unknown* — every rule
here only fires on facts the lattice actually established, so unknown
never produces a finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterator

from repro.analysis.callgraph import CallEdge, edge_bindings
from repro.analysis.effects import (
    CLOSE_METHODS,
    MUTATING_METHODS,
    WS_PARAM_NAMES,
    FunctionEffects,
    _dotted_name,
    _workspace_params,
    workspace_methods,
)
from repro.analysis.lint import ModuleContext, rule
from repro.analysis.program import _project_for

__all__ = [
    "AbstractValue",
    "DataflowReport",
    "analyze",
    "promote",
    "UNKNOWN",
    "check_dataflow_narrowing",
    "check_alias_writes",
    "check_dead_scratch_stores",
    "check_closed_engine_use",
    "check_relent_workspace",
]

# -- dtype lattice --------------------------------------------------------

_SIGNED = ("int8", "int16", "int32", "int64")
_UNSIGNED = ("uint8", "uint16", "uint32", "uint64")
_FLOATS = ("float32", "float64")
_INT_WIDTH = {d: int(d.lstrip("uint")) for d in (*_SIGNED, *_UNSIGNED)}

#: AST spellings of a dtype (``np.int32``, ``'i4'``, ``'<i4'`` ...)
#: mapped to the canonical lattice name.
_DTYPE_TOKENS = {
    "int8": "int8", "int16": "int16",
    "int32": "int32", "i4": "int32", "<i4": "int32", "intc": "int32",
    "int64": "int64", "i8": "int64", "<i8": "int64", "intp": "int64",
    "int_": "int64", "longlong": "int64",
    "uint32": "uint32", "u4": "uint32", "<u4": "uint32",
    "uint64": "uint64", "u8": "uint64", "<u8": "uint64",
    "bool": "bool", "bool_": "bool", "?": "bool",
    "float32": "float32", "f4": "float32",
    "float64": "float64", "f8": "float64", "double": "float64",
}

#: Attribute names with a conventional dtype in this codebase (the CSR
#: contract: offsets/degrees int64, targets int32).
_ATTR_DTYPES = {
    "offsets": "int64",
    "degrees": "int64",
    "targets": "int32",
}


def promote(a: str | None, b: str | None) -> str | None:
    """NumPy-style dtype promotion on the lattice (None = unknown)."""
    if a is None or b is None:
        return None
    if a == b:
        return a
    if a == "bool":
        return b
    if b == "bool":
        return a
    if a in _FLOATS or b in _FLOATS:
        if a == "float64" or b == "float64":
            return "float64"
        other = b if a == "float32" else a
        if other in _INT_WIDTH and _INT_WIDTH[other] >= 32:
            return "float64"
        return "float32"
    a_signed, b_signed = a in _SIGNED, b in _SIGNED
    if a_signed == b_signed:
        return a if _INT_WIDTH[a] >= _INT_WIDTH[b] else b
    # mixed signed/unsigned: uint64 forces float64 (no common integer)
    unsigned = a if a in _UNSIGNED else b
    signed = b if a in _UNSIGNED else a
    if unsigned == "uint64":
        return "float64"
    width = max(_INT_WIDTH[signed], 2 * _INT_WIDTH[unsigned])
    return f"int{min(width, 64)}"


def _is_64bit_int(dtype: str | None) -> bool:
    return dtype in ("int64", "uint64")


def _is_narrow_int(dtype: str | None) -> bool:
    return dtype in ("int8", "int16", "int32", "uint8", "uint16", "uint32")


# -- abstract values ------------------------------------------------------


@dataclass(frozen=True)
class AbstractValue:
    """One point in the value lattice.

    ``kind`` is one of ``'array'``, ``'scalar'``, ``'workspace'``,
    ``'engine'``, ``'result'``, ``'tuple'`` or ``None`` (unknown).
    ``rid`` links a result value back to its creation record for
    ``detach()`` tracking, and gives an engine or workspace value its
    identity.  ``closed`` marks an engine closed on every path.
    """

    dtype: str | None = None
    kind: str | None = None
    aliases: frozenset[str] = frozenset()
    elts: tuple = ()
    rid: int = -1
    closed: bool = False


UNKNOWN = AbstractValue()


def _join_values(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    if a is b:
        return a
    return AbstractValue(
        dtype=a.dtype if a.dtype == b.dtype else None,
        kind=a.kind if a.kind == b.kind else None,
        aliases=a.aliases | b.aliases,
        rid=a.rid if a.rid == b.rid else -1,
        closed=a.closed and b.closed,
    )


def _join_envs(a: dict, b: dict) -> dict:
    out = {}
    for name in set(a) | set(b):
        va, vb = a.get(name, UNKNOWN), b.get(name, UNKNOWN)
        out[name] = _join_values(va, vb)
    return out


@dataclass
class DataflowReport:
    """Findings from one module's interpretation, bucketed by rule."""

    narrowing: list[tuple[int, int, str]] = field(default_factory=list)
    alias_writes: list[tuple[int, int, str]] = field(default_factory=list)
    dead_stores: list[tuple[int, int, str]] = field(default_factory=list)
    closed_use: list[tuple[int, int, str]] = field(default_factory=list)
    relent: list[tuple[int, int, str]] = field(default_factory=list)


# -- the interpreter ------------------------------------------------------

#: Container methods that store their argument (a result escapes).
_STORE_METHODS = {"append", "add", "extend", "insert", "put",
                  "setdefault", "update"}
#: What a workspace re-lend writes (RPR011's view of ``begin()``).
_WS_MAPS = AbstractValue(
    dtype="int64", kind="array", aliases=frozenset({"ws.parent", "ws.level"})
)
#: np namespace calls whose result keeps the first argument's dtype.
_PASSTHROUGH_FNS = {
    "sort", "unique", "ravel", "ascontiguousarray", "concatenate",
    "hstack", "copy", "take", "repeat", "tile", "roll", "flip",
    "compress", "minimum", "maximum", "clip", "abs", "negative",
    "cumsum", "append",
}
#: np calls returning int64 index arrays.
_INDEX_FNS = {"flatnonzero", "nonzero", "argsort", "argwhere", "searchsorted",
              "argmin", "argmax", "lexsort"}
_BOOL_FNS = {"less", "greater", "less_equal", "greater_equal", "equal",
             "not_equal", "isin", "logical_and", "logical_or", "logical_not",
             "isfinite", "isnan"}


class _FunctionInterpreter:
    """Interprets one function body (or the module top level)."""

    def __init__(
        self,
        ctx: ModuleContext,
        report: DataflowReport,
        *,
        self_is_workspace: bool = False,
    ) -> None:
        self.ctx = ctx
        self.report = report
        self.env: dict[str, AbstractValue] = {}
        self.self_is_workspace = self_is_workspace
        # Live BFSResult records: {"aliases", "detached", "line"}
        self.results: list[dict] = []
        # Scratch-buffer registry: var -> {"buffer", "line", "col",
        # "writes", "reads"}
        self.buffers: dict[str, dict] = {}
        # Traversal results bound to a name, per workspace identity:
        # {"ws", "var", "line", "escaped", "done"}
        self.lent: list[dict] = []
        # (call, name) of the assignment being evaluated, so a
        # traversal knows the name its result binds to.
        self._bind: tuple[ast.expr, str] | None = None
        self.fn: ast.FunctionDef | ast.AsyncFunctionDef | None = None
        self._scope: list[ast.AST] = []
        self._uses: dict[str, list[int]] | None = None
        self._calls: dict | None = None

    # -- entry points ----------------------------------------------------

    def run_function(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.fn = fn
        self._scope = [fn]
        self._seed_params(fn)
        self.exec_body(fn.body)
        self._finish_dead_stores()

    def run_module_body(self, body: list[ast.stmt]) -> None:
        stmts = [
            s for s in body
            if not isinstance(
                s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ]
        self._scope = stmts
        self.exec_body(stmts)
        self._finish_dead_stores()

    def _seed_params(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        ws_params = _workspace_params(
            fn, self_is_workspace=self.self_is_workspace
        )
        a = fn.args
        for p in (*a.posonlyargs, *a.args, *a.kwonlyargs):
            if p.arg in ws_params:
                self.env[p.arg] = AbstractValue(kind="workspace", rid=id(p))
            elif p.arg in ("parent", "level", "cand_parent", "frontier",
                           "unvisited"):
                # documented convention: the BFS parent/level maps and
                # the frontier/unvisited queues are int64 arrays
                # wherever they appear as parameters
                self.env[p.arg] = AbstractValue(dtype="int64", kind="array")

    # -- statements ------------------------------------------------------

    def exec_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
                self._bind = (stmt.value, stmt.targets[0].id)
            value = self.eval(stmt.value)
            for tgt in stmt.targets:
                self.bind(tgt, value, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                if isinstance(stmt.target, ast.Name):
                    self._bind = (stmt.value, stmt.target.id)
                self.bind(stmt.target, self.eval(stmt.value), stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            value = self.eval(stmt.value)
            if isinstance(stmt.target, ast.Subscript):
                base = self.eval(stmt.target.value)  # read-modify-write
                self.eval(stmt.target.slice)
                self.record_write(stmt.target, base, value)
            elif isinstance(stmt.target, ast.Name):
                cur = self.env.get(stmt.target.id, UNKNOWN)
                self._read_name(stmt.target.id)
                self._check_mixed(cur, value, stmt)
                self.env[stmt.target.id] = replace(
                    cur, dtype=promote(cur.dtype, value.dtype)
                )
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.eval(stmt.value)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            before = dict(self.env)
            self.exec_body(stmt.body)
            after_then = self.env
            self.env = dict(before)
            self.exec_body(stmt.orelse)
            self.env = _join_envs(after_then, self.env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_val = self.eval(stmt.iter)
            elem = UNKNOWN
            if iter_val.kind == "array":
                elem = AbstractValue(dtype=iter_val.dtype, kind="scalar")
            before = dict(self.env)
            self.bind(stmt.target, elem, stmt.iter)
            self.exec_body(stmt.body)
            self.exec_body(stmt.orelse)
            self.env = _join_envs(before, self.env)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            before = dict(self.env)
            self.exec_body(stmt.body)
            self.exec_body(stmt.orelse)
            self.env = _join_envs(before, self.env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            managed = []
            for item in stmt.items:
                val = self.eval(item.context_expr)
                managed.append(val)
                if item.optional_vars is not None:
                    self.bind(item.optional_vars, val, item.context_expr)
            self.exec_body(stmt.body)
            for val in managed:
                if val.kind == "engine":
                    self._close(val.rid)  # leaving the block closes it
        elif isinstance(stmt, ast.Try):
            self.exec_body(stmt.body)
            before = dict(self.env)
            for handler in stmt.handlers:
                self.env = dict(before)
                self.exec_body(handler.body)
            self.env = before
            self.exec_body(stmt.orelse)
            self.exec_body(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Delete)):
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    self._read_name(sub.id)
        # nested defs / classes: interpreted separately by analyze()

    # -- binding and writes ----------------------------------------------

    def bind(self, tgt: ast.expr, value: AbstractValue,
             src: ast.expr | None) -> None:
        if isinstance(tgt, ast.Name):
            # rebinding a scratch var closes out its dead-store record
            if tgt.id in self.buffers and value.kind != "array":
                self.buffers.pop(tgt.id, None)
            self.env[tgt.id] = value
            if src is not None:
                buf = self._buffer_origin(src)
                if buf is not None:
                    self.buffers[tgt.id] = {
                        "buffer": buf,
                        "line": tgt.lineno,
                        "col": tgt.col_offset,
                        "writes": 0,
                        "write_line": None,
                        "reads": 0,
                    }
        elif isinstance(tgt, (ast.Tuple, ast.List)):
            elts = value.elts if value.kind == "tuple" else ()
            for i, elt in enumerate(tgt.elts):
                sub_val = elts[i] if i < len(elts) else UNKNOWN
                sub_src = None
                if isinstance(src, (ast.Tuple, ast.List)) and i < len(src.elts):
                    sub_src = src.elts[i]
                self.bind(elt, sub_val, sub_src)
        elif isinstance(tgt, ast.Subscript):
            base = self._eval_store_base(tgt.value)
            self.eval(tgt.slice)
            self.record_write(tgt, base, value)
            self._escape(src)
        elif isinstance(tgt, ast.Attribute):
            self.eval(tgt.value)
            self._escape(src)

    def _eval_store_base(self, node: ast.expr) -> AbstractValue:
        """Evaluate the base of a pure store target without recording a
        read — ``buf[:k] = x`` does not read ``buf``'s contents."""
        if isinstance(node, ast.Name):
            return self.env.get(node.id, UNKNOWN)
        return self.eval(node)

    def _buffer_origin(self, src: ast.expr) -> str | None:
        """``workspace.buffer('name', ...)`` call → the buffer name."""
        if not (isinstance(src, ast.Call)
                and isinstance(src.func, ast.Attribute)
                and src.func.attr == "buffer"):
            return None
        base = self.eval(src.func.value)
        if base.kind != "workspace":
            return None
        if src.args and isinstance(src.args[0], ast.Constant):
            return str(src.args[0].value)
        return "<dynamic>"

    def record_write(
        self,
        node: ast.AST,
        target: AbstractValue,
        value: AbstractValue,
        *,
        target_name: str | None = None,
    ) -> None:
        """A store into ``target`` (subscript/fill/out=); run the
        narrowing, alias-liveness, and dead-store bookkeeping."""
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        # RPR010: 64-bit array stored into a known narrow-int array.
        if (
            self.ctx.hot_path
            and target.kind == "array"
            and _is_narrow_int(target.dtype)
            and value.kind == "array"
            and _is_64bit_int(value.dtype)
        ):
            self.report.narrowing.append((
                line, col,
                f"storing a {value.dtype} array into a {target.dtype} "
                "array silently narrows 64-bit indices on the hot path",
            ))
        # RPR011: write to storage a live result still aliases.
        if target.aliases:
            for rec in self.results:
                if rec["detached"]:
                    continue
                shared = target.aliases & rec["aliases"]
                if shared:
                    where = ", ".join(sorted(shared))
                    self.report.alias_writes.append((
                        line, col,
                        f"write to workspace storage ({where}) still "
                        "aliased by the BFSResult constructed at line "
                        f"{rec['line']}; call .detach() first",
                    ))
                    break
        # RPR012 bookkeeping: writes into a registered scratch buffer.
        name = target_name
        if name is None and isinstance(node, ast.Subscript):
            inner = node.value
            while isinstance(inner, ast.Subscript):
                inner = inner.value
            if isinstance(inner, ast.Name):
                name = inner.id
        if name is not None and name in self.buffers:
            entry = self.buffers[name]
            entry["writes"] += 1
            if entry["write_line"] is None:
                entry["write_line"] = (line, col)

    def _read_name(self, name: str) -> None:
        if name in self.buffers:
            self.buffers[name]["reads"] += 1

    # -- lifecycle (RPR023, RPR024) --------------------------------------

    def _close(self, rid: int) -> None:
        """Mark every alias of engine ``rid`` closed."""
        self.env = {
            name: replace(v, closed=True)
            if v.kind == "engine" and v.rid == rid else v
            for name, v in self.env.items()
        }

    def _escape(self, *nodes: ast.expr | None) -> None:
        """A result named in ``nodes`` is stored in a container or an
        attribute: it outlives any later read this function makes."""
        names = {
            n.id for node in nodes if node is not None
            for n in ast.walk(node) if isinstance(n, ast.Name)
        }
        for rec in self.lent:
            if rec["var"] in names:
                rec["escaped"] = True

    def _read_after(self, name: str, line: int) -> bool:
        if self._uses is None:
            self._uses = {}
            for root in self._scope:
                for n in ast.walk(root):
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                        self._uses.setdefault(n.id, []).append(n.lineno)
        return any(u > line for u in self._uses.get(name, ()))

    def _relend(
        self,
        node: ast.Call,
        ws_name: str,
        rid: int,
        via: str | None,
        bind: str | None,
    ) -> None:
        """Workspace ``rid`` is reset at ``node``: RPR011's write to its
        maps, and RPR024 for an earlier result that is still live.
        ``bind`` names the variable the call's own result binds to."""
        self.record_write(node, _WS_MAPS, UNKNOWN)
        if rid == -1:
            return  # a join of two workspaces: identity unknown
        for rec in self.lent:
            if rec["done"] or rec["ws"] != rid:
                continue
            rec["done"] = True
            if rec["var"] == bind and not rec["escaped"]:
                continue  # the rebinding kills the stale result first
            if rec["escaped"]:
                how = "escaped into a container/attribute"
            elif self._read_after(rec["var"], node.lineno):
                how = "is still read afterwards"
            else:
                continue
            suffix = f" (via `{via}(...)`)" if via else ""
            self.report.relent.append((
                node.lineno, node.col_offset,
                f"traversal reuses workspace `{ws_name}`{suffix} while "
                f"result `{rec['var']}` (bound at line {rec['line']}) "
                f"still aliases its arrays and {how}; call "
                f"`{rec['var']}.detach()` (or .copy()) before re-running "
                "— the reused workspace silently rewrites the live result",
            ))

    def _callee(
        self, node: ast.Call
    ) -> tuple[CallEdge, FunctionEffects] | None:
        """The resolved callee edge of ``node`` and the callee's
        fixpoint summary (``None`` when unresolved)."""
        if self.fn is None:
            return None
        if self._calls is None:
            self._calls = _resolved_calls(self.ctx, self.fn)
        return self._calls.get((_dotted_name(node.func), node.lineno))

    def _lifecycle(self, node: ast.Call) -> None:
        """The workspaces ``node`` re-lends and the engines its callee
        closes; a bound traversal result starts aliasing the workspace."""
        fn = node.func
        args = [*node.args, *(kw.value for kw in node.keywords)]
        if isinstance(fn, ast.Attribute):
            args.append(fn.value)
        if not any(
            isinstance(a, ast.Name)
            and self.env.get(a.id, UNKNOWN).kind in ("engine", "workspace")
            for a in args
        ):
            return
        relent: dict[int, tuple[str, str | None]] = {}
        begin = (
            isinstance(fn, ast.Attribute) and fn.attr == "begin"
            and isinstance(fn.value, ast.Name)
            and self.env.get(fn.value.id, UNKNOWN).kind == "workspace"
        )
        if begin:
            relent[self.env[fn.value.id].rid] = (fn.value.id, None)
        for kw in node.keywords:
            if kw.arg in WS_PARAM_NAMES and isinstance(kw.value, ast.Name):
                value = self.env.get(kw.value.id, UNKNOWN)
                if value.kind == "workspace":
                    relent[value.rid] = (kw.value.id, None)
        resolved = self._callee(node)
        if resolved is not None:
            edge, summary = resolved
            for param, arg in edge_bindings(edge, summary.params):
                value = self.env.get(arg, UNKNOWN)
                if value.kind == "workspace" and param in summary.resets:
                    relent.setdefault(value.rid, (arg, edge.raw))
                elif value.kind == "engine" and param in summary.closes:
                    self._close(value.rid)
        bind = self._bind[1] if self._bind and self._bind[0] is node else None
        for rid, (ws_name, via) in relent.items():
            self._relend(node, ws_name, rid, via, bind)
            if bind is not None and rid != -1 and not begin:
                self.lent.append({
                    "ws": rid, "var": bind, "line": node.lineno,
                    "escaped": False, "done": False,
                })

    def _finish_dead_stores(self) -> None:
        for name, entry in self.buffers.items():
            if entry["writes"] > 0 and entry["reads"] == 0:
                line, col = entry["write_line"]
                self.report.dead_stores.append((
                    line, col,
                    f"scratch buffer `{name}` "
                    f"(workspace.buffer({entry['buffer']!r})) is written "
                    "but never read — dead store on the hot path",
                ))

    def _check_mixed(
        self, left: AbstractValue, right: AbstractValue, node: ast.AST
    ) -> None:
        """RPR010 (mixed): uint64 × signed-int array arithmetic — NumPy
        resolves it to float64, corrupting index math."""
        if not self.ctx.hot_path:
            return
        if left.kind != "array" or right.kind != "array":
            return
        dtypes = {left.dtype, right.dtype}
        if "uint64" in dtypes and dtypes & set(_SIGNED):
            signed = next(d for d in dtypes if d in _SIGNED)
            self.report.narrowing.append((
                getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0),
                f"mixed uint64/{signed} array arithmetic promotes to "
                "float64; cast one side explicitly",
            ))

    # -- expressions -----------------------------------------------------

    def eval(self, node: ast.expr) -> AbstractValue:
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                self._read_name(node.id)
            return self.env.get(node.id, UNKNOWN)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return AbstractValue(dtype="bool", kind="scalar")
            if isinstance(node.value, int):
                return AbstractValue(dtype=None, kind="pyint")
            return UNKNOWN
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node)
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left)
            right = self.eval(node.right)
            self._check_mixed(left, right, node)
            kind = "array" if "array" in (left.kind, right.kind) else "scalar"
            dtype = promote(left.dtype, right.dtype)
            if dtype is None:
                # NEP 50: a Python int is weakly typed — the array
                # operand's dtype wins
                if left.kind == "pyint":
                    dtype = right.dtype
                elif right.kind == "pyint":
                    dtype = left.dtype
            return AbstractValue(dtype=dtype, kind=kind)
        if isinstance(node, ast.UnaryOp):
            operand = self.eval(node.operand)
            if isinstance(node.op, ast.Not):
                return AbstractValue(dtype="bool", kind=operand.kind)
            return operand
        if isinstance(node, ast.Compare):
            left = self.eval(node.left)
            kinds = {left.kind}
            for comp in node.comparators:
                kinds.add(self.eval(comp).kind)
            kind = "array" if "array" in kinds else "scalar"
            return AbstractValue(dtype="bool", kind=kind)
        if isinstance(node, ast.BoolOp):
            vals = [self.eval(v) for v in node.values]
            out = vals[0]
            for v in vals[1:]:
                out = _join_values(out, v)
            return out
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return _join_values(self.eval(node.body), self.eval(node.orelse))
        if isinstance(node, (ast.Tuple, ast.List)):
            elts = tuple(self.eval(e) for e in node.elts)
            return AbstractValue(kind="tuple", elts=elts)
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            for gen in node.generators:
                self.eval(gen.iter)
            return UNKNOWN
        if isinstance(node, ast.JoinedStr):
            for part in node.values:
                if isinstance(part, ast.FormattedValue):
                    self.eval(part.value)
            return UNKNOWN
        if isinstance(node, ast.Dict):
            for k, v in zip(node.keys, node.values):
                if k is not None:
                    self.eval(k)
                self.eval(v)
            return UNKNOWN
        if isinstance(node, ast.Lambda):
            return UNKNOWN
        return UNKNOWN

    def _eval_attribute(self, node: ast.Attribute) -> AbstractValue:
        base = self.eval(node.value)
        attr = node.attr
        if base.kind == "workspace" and attr in ("parent", "level"):
            return AbstractValue(
                dtype="int64", kind="array",
                aliases=frozenset({f"ws.{attr}"}),
            )
        if base.kind == "result" and attr in ("parent", "level"):
            rec = (
                self.results[base.rid]
                if 0 <= base.rid < len(self.results) else None
            )
            aliases = frozenset(rec["aliases"]) if rec else frozenset()
            return AbstractValue(dtype="int64", kind="array", aliases=aliases)
        if attr in _ATTR_DTYPES:
            return AbstractValue(dtype=_ATTR_DTYPES[attr], kind="array",
                                 aliases=base.aliases)
        if attr in ("size", "shape", "ndim", "nbytes"):
            return AbstractValue(kind="scalar")
        if attr == "dtype":
            return UNKNOWN
        if attr in ("T", "flat", "real"):
            return replace(base, kind=base.kind)
        return UNKNOWN

    def _eval_subscript(self, node: ast.Subscript) -> AbstractValue:
        base = self.eval(node.value)
        index = self.eval(node.slice)
        if base.kind == "tuple":
            if (isinstance(node.slice, ast.Constant)
                    and isinstance(node.slice.value, int)
                    and 0 <= node.slice.value < len(base.elts)):
                return base.elts[node.slice.value]
            return UNKNOWN
        if base.kind != "array":
            return UNKNOWN
        if isinstance(node.slice, ast.Slice) or (
            isinstance(node.slice, ast.Tuple)
            and all(isinstance(e, ast.Slice) for e in node.slice.elts)
        ):
            # basic slicing returns a view: aliases survive
            return replace(base, kind="array")
        if index.kind == "array":
            # fancy indexing copies: aliases dropped
            return AbstractValue(dtype=base.dtype, kind="array")
        return AbstractValue(dtype=base.dtype, kind="scalar")

    def _dtype_of_node(self, node: ast.expr | None) -> str | None:
        if node is None:
            return None
        if isinstance(node, ast.Attribute):
            return _DTYPE_TOKENS.get(node.attr)
        if isinstance(node, ast.Name):
            return _DTYPE_TOKENS.get(node.id)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return _DTYPE_TOKENS.get(node.value)
        return None

    def _eval_call(self, node: ast.Call) -> AbstractValue:
        fn = node.func
        # keyword handling shared by every branch below: out= is a
        # write target, not a read.
        out_kw = None
        dtype_kw = None
        for kw in node.keywords:
            if kw.arg == "out" and isinstance(kw.value, ast.Name):
                out_kw = kw.value
            elif kw.arg == "dtype":
                dtype_kw = kw.value

        if isinstance(fn, ast.Attribute):
            result = self._eval_method_call(node, fn, dtype_kw)
        else:
            result = self._eval_plain_call(node, fn, dtype_kw)

        if out_kw is not None:
            target = self.env.get(out_kw.id, UNKNOWN)
            self.record_write(node, target, result, target_name=out_kw.id)
        # evaluate remaining keyword expressions for their read effects
        for kw in node.keywords:
            if kw.arg == "out" and isinstance(kw.value, ast.Name):
                continue
            self.eval(kw.value)
        self._lifecycle(node)
        return result

    def _eval_method_call(
        self, node: ast.Call, fn: ast.Attribute, dtype_kw: ast.expr | None
    ) -> AbstractValue:
        attr = fn.attr
        if attr in MUTATING_METHODS:
            # buf.fill(x) writes buf's contents without reading them
            base = self._eval_store_base(fn.value)
        else:
            base = self.eval(fn.value)
        args = [self.eval(a) for a in node.args]
        recv = fn.value.id if isinstance(fn.value, ast.Name) else None

        if attr in _STORE_METHODS:
            self._escape(*(a for a in node.args if isinstance(a, ast.Name)))
        if attr == "ParallelBFS":
            return AbstractValue(kind="engine", rid=id(node))
        if attr == "BFSWorkspace" or (
            attr == "for_graph" and recv == "BFSWorkspace"
        ):
            return AbstractValue(kind="workspace", rid=id(node))
        if base.kind == "engine":
            if attr in CLOSE_METHODS:
                self._close(base.rid)
            elif attr == "run" and base.closed:
                self.report.closed_use.append((
                    node.lineno, node.col_offset,
                    f"`{recv}.run()` violates the parallel-bfs protocol: "
                    "illegal in state(s): closed; allowed next: close",
                ))
            return UNKNOWN
        if base.kind == "workspace":
            return self._eval_workspace_call(node, attr, dtype_kw)

        if attr == "astype":
            target_dtype = self._dtype_of_node(
                node.args[0] if node.args else dtype_kw
            )
            if (
                self.ctx.hot_path
                and base.kind == "array"
                and _is_64bit_int(base.dtype)
                and _is_narrow_int(target_dtype)
            ):
                self.report.narrowing.append((
                    node.lineno, node.col_offset,
                    f"astype narrows a known {base.dtype} array to "
                    f"{target_dtype}; 64-bit indices silently truncate "
                    "past 2^31",
                ))
            return AbstractValue(dtype=target_dtype, kind="array")
        if attr == "detach":
            if base.kind == "result" and 0 <= base.rid < len(self.results):
                self.results[base.rid]["detached"] = True
            for rec in self.lent:
                if rec["var"] == recv:
                    rec["done"] = True
            return base
        if attr in MUTATING_METHODS:
            self.record_write(
                node, base, args[0] if args else UNKNOWN, target_name=recv
            )
            return UNKNOWN
        if attr == "copy":
            return AbstractValue(dtype=base.dtype, kind=base.kind)
        if attr == "view":
            return replace(base, dtype=self._dtype_of_node(
                node.args[0] if node.args else dtype_kw
            ) or base.dtype)
        if attr in ("sum", "max", "min", "item"):
            return AbstractValue(dtype=base.dtype, kind="scalar")
        if attr in ("any", "all"):
            return AbstractValue(dtype="bool", kind="scalar")
        # np.<fn>(...) namespace calls
        return self._eval_np_call(node, attr, args, dtype_kw)

    def _eval_workspace_call(
        self, node: ast.Call, attr: str, dtype_kw: ast.expr | None
    ) -> AbstractValue:
        for a in node.args:
            self.eval(a)
        if attr == "begin":
            # begin() resets parent/level in place: a write event,
            # recorded with the other re-lends by _lifecycle
            return AbstractValue(kind="tuple", elts=(
                AbstractValue(dtype="int64", kind="array",
                              aliases=frozenset({"ws.parent"})),
                AbstractValue(dtype="int64", kind="array",
                              aliases=frozenset({"ws.level"})),
            ))
        if attr == "buffer":
            dtype = self._dtype_of_node(
                node.args[2] if len(node.args) > 2 else dtype_kw
            )
            bufname = "<dynamic>"
            if node.args and isinstance(node.args[0], ast.Constant):
                bufname = str(node.args[0].value)
            return AbstractValue(
                dtype=dtype, kind="array",
                aliases=frozenset({f"ws.buffer:{bufname}"}),
            )
        if attr == "claim_slots":
            return AbstractValue(dtype="int64", kind="array",
                                 aliases=frozenset({"ws.claim"}))
        if attr == "iota":
            return AbstractValue(dtype="int64", kind="array",
                                 aliases=frozenset({"ws.iota"}))
        if attr == "unvisited_ids":
            return AbstractValue(dtype="int64", kind="array",
                                 aliases=frozenset({"ws.unvisited"}))
        return UNKNOWN

    def _eval_np_call(
        self,
        node: ast.Call,
        name: str,
        args: list[AbstractValue],
        dtype_kw: ast.expr | None,
    ) -> AbstractValue:
        explicit = self._dtype_of_node(dtype_kw)
        if name in ("zeros", "empty", "ones", "full", "zeros_like",
                    "empty_like", "full_like", "ones_like", "asarray",
                    "array", "fromiter"):
            pos_dtype = None
            if name in ("zeros", "empty", "ones") and len(node.args) > 1:
                pos_dtype = self._dtype_of_node(node.args[1])
            elif name == "full" and len(node.args) > 2:
                pos_dtype = self._dtype_of_node(node.args[2])
            dtype = explicit or pos_dtype
            source = args[0] if args else UNKNOWN
            if dtype is None and name in ("asarray", "array", "zeros_like",
                                          "empty_like", "full_like",
                                          "ones_like"):
                dtype = source.dtype
            if (
                self.ctx.hot_path
                and _is_narrow_int(explicit)
                and source.kind == "array"
                and _is_64bit_int(source.dtype)
            ):
                self.report.narrowing.append((
                    node.lineno, node.col_offset,
                    f"np.{name}(..., dtype={explicit}) narrows a known "
                    f"{source.dtype} array; 64-bit indices silently "
                    "truncate",
                ))
            aliases = frozenset()
            if name == "asarray" and explicit is None and args:
                aliases = source.aliases  # asarray may return its input
            return AbstractValue(dtype=dtype, kind="array", aliases=aliases)
        if name == "arange":
            return AbstractValue(dtype=explicit or "int64", kind="array")
        if name in _INDEX_FNS:
            return AbstractValue(dtype="int64", kind="array")
        if name in _BOOL_FNS:
            return AbstractValue(dtype="bool", kind="array")
        if name in _PASSTHROUGH_FNS:
            dtype = args[0].dtype if args else None
            return AbstractValue(dtype=explicit or dtype, kind="array")
        if name == "where":
            if len(args) == 3:
                return AbstractValue(
                    dtype=promote(args[1].dtype, args[2].dtype), kind="array"
                )
            return AbstractValue(dtype="int64", kind="array")
        if name in ("bincount", "count_nonzero", "setdiff1d", "union1d",
                    "intersect1d"):
            return AbstractValue(dtype="int64", kind="array")
        return UNKNOWN

    def _eval_plain_call(
        self, node: ast.Call, fn: ast.expr, dtype_kw: ast.expr | None
    ) -> AbstractValue:
        args = [self.eval(a) for a in node.args]
        if isinstance(fn, ast.Name):
            if fn.id == "BFSResult":
                aliases: set[str] = set()
                for kw in node.keywords:
                    if kw.arg in ("parent", "level"):
                        aliases |= self.env.get(
                            kw.value.id, UNKNOWN
                        ).aliases if isinstance(kw.value, ast.Name) else (
                            self.eval(kw.value).aliases
                        )
                for pos in (1, 2):
                    if pos < len(args):
                        aliases |= args[pos].aliases
                rid = len(self.results)
                self.results.append({
                    "aliases": frozenset(aliases),
                    "detached": not aliases,
                    "line": node.lineno,
                })
                return AbstractValue(kind="result", rid=rid)
            if fn.id == "BFSWorkspace":
                return AbstractValue(kind="workspace", rid=id(node))
            if fn.id == "ParallelBFS":
                return AbstractValue(kind="engine", rid=id(node))
            if fn.id == "len":
                return AbstractValue(kind="scalar")
            if fn.id in ("int", "bool", "float"):
                return AbstractValue(kind="scalar")
        return UNKNOWN


# -- module driver --------------------------------------------------------


def _resolved_calls(
    ctx: ModuleContext, fn: ast.FunctionDef | ast.AsyncFunctionDef
) -> dict[tuple[str, int], tuple[CallEdge, FunctionEffects]]:
    """``fn``'s resolved call edges in the lint run's project, keyed by
    callee spelling and line, each with its callee's fixpoint summary."""
    project = _project_for(ctx)
    qname = next(
        (
            info.qname
            for rec in project.modules.values() if rec.path == ctx.path
            for info in rec.functions
            if (info.name, info.line) == (fn.name, fn.lineno)
        ),
        None,
    )
    return {
        (e.raw, e.line): (e, project.summaries[e.callee])
        for e in project._edges_by_caller.get(qname, ())
        if e.callee is not None and not e.dispatch
    }


@lru_cache(maxsize=32)
def analyze(ctx: ModuleContext) -> DataflowReport:
    """Interpret every function in ``ctx`` once; results are cached per
    context so the three deep rules share one interpretation."""
    report = DataflowReport()
    ws_methods = workspace_methods(ctx)
    for fn in ctx.nodes(ast.FunctionDef, ast.AsyncFunctionDef):
        interp = _FunctionInterpreter(
            ctx, report, self_is_workspace=id(fn) in ws_methods
        )
        interp.run_function(fn)
    top = _FunctionInterpreter(ctx, report)
    top.run_module_body(ctx.tree.body)
    return report


# -- rule registrations ---------------------------------------------------


@rule(
    "RPR010",
    "silent dtype narrowing / mixed-dtype index math on the kernel hot "
    "path (dataflow: known 64-bit value narrowed to <=32 bits)",
    hot_path_only=True,
    deep=True,
)
def check_dataflow_narrowing(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    """Dataflow-tracked dtype narrowing (see module docstring)."""
    yield from analyze(ctx).narrowing


@rule(
    "RPR011",
    "write to workspace storage still aliased by a live BFSResult; "
    "results alias the workspace until .detach()",
    deep=True,
    whole_program=True,  # a callee's `resets` facts count as writes
)
def check_alias_writes(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    """Alias-liveness violations (see module docstring)."""
    yield from analyze(ctx).alias_writes


@rule(
    "RPR012",
    "workspace scratch buffer written but never read (dead store)",
    deep=True,
)
def check_dead_scratch_stores(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    """Dead stores to workspace scratch (see module docstring)."""
    yield from analyze(ctx).dead_stores


@rule(
    "RPR023",
    "use of a closed handle (ParallelBFS)",
    deep=True,
    whole_program=True,
)
def check_closed_engine_use(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    """``run()`` on a closed engine (see module docstring)."""
    yield from analyze(ctx).closed_use


@rule(
    "RPR024",
    "workspace re-lent to a traversal while a previous result "
    "still aliases its arrays",
    deep=True,
    whole_program=True,
)
def check_relent_workspace(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    """A workspace reset while a bound result is live (see module
    docstring)."""
    yield from analyze(ctx).relent
