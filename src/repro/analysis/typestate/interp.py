"""The typestate abstract interpreter (RPR022–RPR026 engine).

Per function, an abstract environment maps local variables to the
*set of protocol states* their handle may occupy (the finite powerset
lattice over each machine's states).  The interpreter walks the
function body in order, stepping machines on constructor calls, method
calls, ``with`` entry/exit, and — interprocedurally — on the *protocol
summaries* of resolved callees, with set-union joins at control-flow
merges (``if``/``else``, loops, ``try`` handlers).  It reuses PR 6's
resource-acquisition vocabulary: ``try/finally`` blocks whose
``finally`` closes a handle protect the spanned statements, handles
that escape (returned, stored on an object, captured by a nested def)
stop being tracked, and raise-capable calls are judged against the
call-graph fixpoint ``raises`` facts.

Interprocedural lifting: a *protocol summary* per function records, in
order, the lifecycle events the function performs on each of its
parameters (directly, or transitively through its own resolved
callees).  Summaries iterate to a fixpoint over the project call
graph, so ``shutdown(eng)`` two calls above an ``eng.close()`` still
flips the caller's engine to ``closed`` — violations the one-level
view provably misses (``interprocedural=False`` reproduces that blind
view for the regression tests).

The whole report is computed once per
:class:`~repro.analysis.callgraph.Project` and memoized on the
instance, mirroring :mod:`repro.analysis.program`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.callgraph import (
    CallEdge,
    Project,
    edge_bindings,
)
from repro.analysis.typestate.spec import (
    ProtocolSpec,
    protocol_for_ctor,
)

__all__ = [
    "PEvent",
    "TypestateAnalysis",
    "typestate_report",
    "TYPESTATE_RULES",
]

#: Rule codes this engine produces.
TYPESTATE_RULES = ("RPR022", "RPR023", "RPR024", "RPR025", "RPR026")

#: Pseudo-event a ``workspace=``/``ws=`` keyword argument signifies
#: (the callee traversal resets the workspace).
TRAVERSE_MARK = "__traverse__"

#: Keyword names that hand a workspace to a traversal.
_WORKSPACE_KWARGS = frozenset({"workspace", "ws"})

#: Container methods that store their argument (the handle/result
#: escapes into the container).
_STORE_METHODS = frozenset(
    {"append", "add", "extend", "insert", "put", "setdefault", "update"}
)

#: Cap on summary length / fixpoint rounds (defensive; protocol event
#: chains in real code are short).
_MAX_SUMMARY_EVENTS = 48
_MAX_ROUNDS = 10


@dataclass(frozen=True)
class PEvent:
    """One protocol event in a function's parameter summary."""

    event: str  # method name, or the TRAVERSE_MARK pseudo-event
    maybe: bool  # performed only on some path (branch/loop/handler)
    line: int
    via: str | None = None  # callee chain, for messages


class _Track:
    """Abstract state of one tracked handle (mutable, alias-shared)."""

    __slots__ = (
        "spec", "var", "ctor", "states", "escaped", "ctor_line",
        "ctor_col", "protected", "pending", "risk", "reported",
    )

    def __init__(
        self, spec: ProtocolSpec, var: str, ctor: str,
        line: int, col: int,
    ) -> None:
        self.spec = spec
        self.var = var
        self.ctor = ctor
        self.states: frozenset[str] = frozenset({spec.initial})
        self.escaped = False
        self.ctor_line = line
        self.ctor_col = col
        #: Line spans covered by a finally-close or a ``with`` body.
        self.protected: list[tuple[int, int]] = []
        #: Workspace only: ``(result_var, bind_line, escaped)`` of the
        #: live result aliasing this workspace.
        self.pending: tuple[str, int, bool] | None = None
        #: First unprotected raise-capable statement reached while the
        #: machine could not yet reach an accepting state.
        self.risk: tuple[int, str] | None = None
        #: Dedup key set for reported violations.
        self.reported: set = set()

    def copy(self) -> "_Track":
        out = _Track(
            self.spec, self.var, self.ctor, self.ctor_line, self.ctor_col
        )
        out.states = self.states
        out.escaped = self.escaped
        out.protected = list(self.protected)
        out.pending = self.pending
        out.risk = self.risk
        out.reported = self.reported  # shared: dedupe across branches
        return out

    def is_protected(self, line: int) -> bool:
        return any(lo <= line <= hi for lo, hi in self.protected)


def _clone_env(env: dict) -> dict:
    memo: dict[int, _Track] = {}
    out: dict[str, _Track] = {}
    for var, track in env.items():
        clone = memo.get(id(track))
        if clone is None:
            clone = track.copy()
            memo[id(track)] = clone
        out[var] = clone
    return out


def _join_tracks(a: _Track, b: _Track) -> _Track:
    out = a.copy()
    out.states = a.states | b.states
    out.escaped = a.escaped or b.escaped
    out.protected = list({*a.protected, *b.protected})
    out.pending = a.pending if a.pending is not None else b.pending
    out.risk = a.risk if a.risk is not None else b.risk
    return out


def _join_env(a: dict, b: dict) -> dict:
    out: dict[str, _Track] = {}
    memo: dict[tuple[int, int], _Track] = {}
    for var in {*a, *b}:
        ta, tb = a.get(var), b.get(var)
        if tb is None:
            out[var] = ta
        elif ta is None:
            out[var] = tb
        elif ta is tb:
            out[var] = ta
        else:
            key = (id(ta), id(tb))
            joined = memo.get(key)
            if joined is None:
                joined = _join_tracks(ta, tb)
                memo[key] = joined
            out[var] = joined
    return out


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a plain name (the
    same spelling :mod:`repro.analysis.effects` records)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _iter_calls_postorder(node: ast.AST):
    """Call nodes innermost-first (evaluation order for our purposes)."""
    for child in ast.iter_child_nodes(node):
        yield from _iter_calls_postorder(child)
    if isinstance(node, ast.Call):
        yield node


def _param_names(fn) -> tuple[str, ...]:
    a = fn.args
    names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
    if a.vararg:
        names.append(a.vararg.arg)
    if a.kwarg:
        names.append(a.kwarg.arg)
    return tuple(names)


#: Every method name any machine treats as an event, plus ``detach``
#: (an event on a workspace's *result*).
def _all_event_methods() -> frozenset[str]:
    from repro.analysis.typestate.spec import PROTOCOLS

    out: set[str] = {"detach"}
    for spec in PROTOCOLS.values():
        out |= {m for m, _e in spec.method_events}
    return frozenset(out)


_EVENT_METHODS = _all_event_methods()


class _FunctionPass:
    """One abstract-interpretation pass over one function body."""

    def __init__(
        self,
        analysis: "TypestateAnalysis",
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        qname: str | None,
        path: str,
    ) -> None:
        self.analysis = analysis
        self.fn = fn
        self.qname = qname
        self.path = path
        self.params = _param_names(fn)
        self.param_log: dict[str, list[PEvent]] = {
            p: [] for p in self.params
        }
        self.violations: list[tuple[str, int, int, str, str]] = []
        # name -> sorted Load lines (workspace result liveness).
        self.uses: dict[str, list[int]] = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ):
                self.uses.setdefault(node.id, []).append(node.lineno)
        if qname is not None:
            self.edges = {
                (e.raw, e.line): e
                for e in self.analysis.project._edges_by_caller.get(
                    qname, ()
                )
                if not e.dispatch
            }
        else:
            self.edges = {}

    # -- reporting -----------------------------------------------------------

    def _report(
        self, code: str, line: int, col: int, machine: str, msg: str,
        track: _Track | None = None,
    ) -> None:
        key = (code, line, col, msg)
        if track is not None:
            if key in track.reported:
                return
            track.reported.add(key)
        self.violations.append((code, line, col, machine, msg))

    # -- protocol stepping ---------------------------------------------------

    def _state_hint(self, track: _Track) -> str:
        states = ", ".join(sorted(track.states))
        spec = track.spec
        if spec.name == "channel-exporter":
            if "created" in track.states:
                return (
                    f"the stream is not open yet (state: {states}) — "
                    "frames would flow before hello"
                )
            return (
                f"the stream already said bye (state: {states}) — "
                "frames after the close handshake are dropped"
            )
        return f"illegal in state(s): {states}"

    def _step(
        self,
        track: _Track,
        event: str,
        line: int,
        col: int,
        *,
        maybe: bool = False,
        via: str | None = None,
    ) -> None:
        if track.escaped:
            return
        spec = track.spec
        if spec.name == "bfs-workspace" and event in (
            "begin", "traverse"
        ):
            self._check_workspace_reuse(track, line, col, via=via)
            nxt, _ok = spec.step_set(track.states, event)
            track.states = (
                nxt if not maybe else track.states | nxt
            )
            return
        nxt, ok = spec.step_set(track.states, event)
        if not ok:
            if maybe:
                return  # a some-path event cannot prove a violation
            suffix = f" (via `{via}(...)`)" if via else ""
            allowed = set()
            for state in sorted(track.states):
                allowed.update(spec.allowed(state))
            hint = self._state_hint(track)
            self._report(
                spec.owner_rule or "RPR023", line, col, spec.name,
                f"`{track.var}.{event}()`{suffix} violates the "
                f"{spec.name} protocol: {hint}; allowed next: "
                f"{', '.join(sorted(allowed)) or 'nothing'}",
                track,
            )
            return
        track.states = nxt if not maybe else track.states | nxt

    def _check_workspace_reuse(
        self, track: _Track, line: int, col: int,
        *, rebind: str | None = None, via: str | None = None,
    ) -> None:
        if "lent" not in track.states or track.pending is None:
            return
        res_var, bind_line, escaped = track.pending
        if rebind == res_var and not escaped:
            return  # the rebinding kills the stale result first
        live_use = escaped or any(
            u > line for u in self.uses.get(res_var, ())
        )
        if not live_use:
            track.pending = None
            return
        how = (
            "escaped into a container/attribute"
            if escaped
            else "is still read afterwards"
        )
        suffix = f" (via `{via}(...)`)" if via else ""
        self._report(
            "RPR024", line, col, track.spec.name,
            f"traversal reuses workspace `{track.var}`{suffix} while "
            f"result `{res_var}` (bound at line {bind_line}) still "
            f"aliases its arrays and {how}; call `{res_var}.detach()` "
            "(or .copy()) before re-running — the reused workspace "
            "silently rewrites the live result",
            track,
        )
        track.pending = None

    def _apply_summary(
        self,
        track: _Track,
        events: tuple[PEvent, ...],
        line: int,
        col: int,
        callee: str,
        *,
        maybe: bool,
        bind: str | None,
    ) -> None:
        traversed = False
        for pe in events:
            if pe.event == TRAVERSE_MARK:
                ev: str | None = "traverse"
                traversed = True
            else:
                ev = track.spec.event_for_method(pe.event)
            if ev is None:
                continue
            self._step(
                track, ev, line, col,
                maybe=maybe or pe.maybe, via=callee,
            )
        if (
            traversed
            and track.spec.name == "bfs-workspace"
            and bind is not None
            and not track.escaped
        ):
            track.states = frozenset({"lent"})
            track.pending = (bind, line, False)

    # -- risk (RPR025) -------------------------------------------------------

    def _mark_risk(
        self, env: dict, line: int, why: str,
        skip: _Track | None = None,
    ) -> None:
        seen: set[int] = set()
        for track in env.values():
            if id(track) in seen or track is skip:
                continue
            seen.add(id(track))
            if (
                track.escaped
                or track.risk is not None
                or track.spec.raise_rule is None
                or track.states & track.spec.accepting
                or track.is_protected(line)
            ):
                continue
            track.risk = (line, why)

    def _call_raise_reason(self, call: ast.Call) -> str | None:
        raw = _dotted(call.func)
        if raw is None:
            return None
        edge = self.edges.get((raw, call.lineno))
        if edge is None or edge.callee is None:
            return None
        if self.analysis.interprocedural:
            summary = self.analysis.project.summaries.get(edge.callee)
        else:
            info = self.analysis.project.functions.get(edge.callee)
            summary = info.summary if info is not None else None
        if summary is not None and summary.raises:
            return f"`{raw}(...)` (which can raise)"
        return None

    # -- call handling -------------------------------------------------------

    def _resolve_edge(self, call: ast.Call) -> CallEdge | None:
        raw = _dotted(call.func)
        if raw is None:
            return None
        return self.edges.get((raw, call.lineno))

    def _handle_call(
        self,
        call: ast.Call,
        env: dict,
        maybe: bool,
        bind: str | None = None,
    ) -> None:
        line, col = call.lineno, call.col_offset
        raw = _dotted(call.func)

        # Raise-capable call while a protocol cannot reach acceptance.
        # Judged against the *pre-call* states: if the call raises, we
        # conservatively assume its own transition did not complete
        # (so `exporter.hello()` from the accepting "created" state is
        # not a leak — the canonical handshake stays clean).
        why = self._call_raise_reason(call)
        if why is not None:
            # A protocol event on a handle is never a leak risk for
            # that same handle (close() raising is close's own
            # failure — the code did attempt finalization).
            skip: _Track | None = None
            if isinstance(call.func, ast.Attribute) and isinstance(
                call.func.value, ast.Name
            ):
                t = env.get(call.func.value.id)
                if (
                    t is not None
                    and t.spec.event_for_method(call.func.attr)
                    is not None
                ):
                    skip = t
            self._mark_risk(env, line, why, skip=skip)

        # Constructor of a protocol-governed handle.
        if raw is not None and bind is not None:
            parts = raw.split(".")
            spec = protocol_for_ctor(parts[-1])
            if spec is None and len(parts) >= 2:
                base = protocol_for_ctor(parts[-2])
                if (
                    base is not None
                    and parts[-1] in base.classmethod_ctors
                ):
                    spec = base
            if spec is not None and not spec.frame_kinds:
                env[bind] = _Track(spec, bind, parts[-1], line, col)
                return

        # Direct method event on a tracked handle or a parameter.
        if isinstance(call.func, ast.Attribute) and isinstance(
            call.func.value, ast.Name
        ):
            recv = call.func.value.id
            attr = call.func.attr
            track = env.get(recv)
            if attr == "detach":
                seen: set[int] = set()
                for t in env.values():
                    if id(t) in seen:
                        continue
                    seen.add(id(t))
                    if t.pending is not None and t.pending[0] == recv:
                        self._step(t, "detach", line, col, maybe=maybe)
                        t.pending = None
            if track is not None:
                event = track.spec.event_for_method(attr)
                if event is not None:
                    self._step(track, event, line, col, maybe=maybe)
            elif recv in self.param_log and attr in _EVENT_METHODS:
                self._log_param(recv, attr, maybe, line)
            # A handle stored into a container escapes.
            if attr in _STORE_METHODS:
                for arg in call.args:
                    if isinstance(arg, ast.Name):
                        t = env.get(arg.id)
                        if t is not None:
                            t.escaped = True
                        self._escape_pending(env, arg.id, line)

        # workspace= keyword: the callee traversal resets the handle.
        # It models the whole traversal of that argument, so the
        # callee's own summary is not spliced onto it again below.
        handed: set[str] = set()
        for kw in call.keywords:
            if (
                kw.arg in _WORKSPACE_KWARGS
                and isinstance(kw.value, ast.Name)
            ):
                name = kw.value.id
                track = env.get(name)
                if (
                    track is not None
                    and track.spec.name == "bfs-workspace"
                ):
                    handed.add(name)
                    self._check_workspace_reuse(
                        track, line, col, rebind=bind
                    )
                    track.states = frozenset(
                        {"lent"} if bind is not None else {"active"}
                    )
                    if bind is not None:
                        track.pending = (bind, line, False)
                elif name in self.param_log:
                    handed.add(name)
                    self._log_param(name, TRAVERSE_MARK, maybe, line)

        # Interprocedural: splice the resolved callee's protocol
        # summary onto every bound argument.
        if self.analysis.interprocedural:
            edge = self._resolve_edge(call)
            if edge is not None and edge.callee is not None:
                callee_summary = self.analysis.summaries.get(
                    edge.callee
                )
                if callee_summary:
                    params = self.analysis.param_names_of(edge.callee)
                    for param, arg in edge_bindings(edge, params):
                        events = callee_summary.get(param)
                        if not events or arg in handed:
                            continue
                        track = env.get(arg)
                        if track is not None:
                            self._apply_summary(
                                track, events, line, col,
                                edge.raw, maybe=maybe, bind=bind,
                            )
                        elif arg in self.param_log:
                            self._compose_param(
                                arg, events, maybe, line, edge.raw
                            )

    def _escape_pending(self, env: dict, name: str, line: int) -> None:
        seen: set[int] = set()
        for t in env.values():
            if id(t) in seen:
                continue
            seen.add(id(t))
            if t.pending is not None and t.pending[0] == name:
                t.pending = (t.pending[0], t.pending[1], True)

    def _log_param(
        self, param: str, event: str, maybe: bool, line: int
    ) -> None:
        log = self.param_log[param]
        if len(log) < _MAX_SUMMARY_EVENTS:
            log.append(PEvent(event, maybe, line))

    def _compose_param(
        self,
        param: str,
        events: tuple[PEvent, ...],
        maybe: bool,
        line: int,
        via: str,
    ) -> None:
        log = self.param_log[param]
        for pe in events:
            if len(log) >= _MAX_SUMMARY_EVENTS:
                return
            log.append(
                PEvent(pe.event, maybe or pe.maybe, line, via=via)
            )

    # -- statement walk ------------------------------------------------------

    def run(self) -> None:
        env: dict[str, _Track] = {}
        env = self._exec_block(self.fn.body, env, False)
        self._finish(env)

    def _exec_block(
        self, stmts: list, env: dict, maybe: bool
    ) -> dict:
        for stmt in stmts:
            env = self._exec_stmt(stmt, env, maybe)
        return env

    def _process_expr(
        self, expr: ast.AST | None, env: dict, maybe: bool,
        bind: str | None = None,
    ) -> None:
        if expr is None:
            return
        calls = list(_iter_calls_postorder(expr))
        for call in calls:
            is_outer = call is expr
            self._handle_call(
                call, env, maybe, bind=bind if is_outer else None
            )

    def _exec_stmt(self, stmt, env: dict, maybe: bool) -> dict:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            # A nested scope capturing a handle takes ownership.
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id in env:
                    env[node.id].escaped = True
            return env

        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            return self._exec_assign(stmt, env, maybe)

        if isinstance(stmt, ast.Expr):
            self._process_expr(stmt.value, env, maybe)
            return env

        if isinstance(stmt, ast.Return):
            self._process_expr(stmt.value, env, maybe)
            if stmt.value is not None:
                for node in ast.walk(stmt.value):
                    if isinstance(node, ast.Name):
                        t = env.get(node.id)
                        if t is not None:
                            t.escaped = True
            return env

        if isinstance(stmt, ast.Raise):
            self._process_expr(stmt.exc, env, maybe)
            self._mark_risk(env, stmt.lineno, "an explicit raise")
            return env

        if isinstance(stmt, ast.If):
            self._process_expr(stmt.test, env, maybe)
            env_a = self._exec_block(stmt.body, _clone_env(env), True)
            env_b = self._exec_block(
                stmt.orelse, _clone_env(env), True
            )
            return _join_env(env_a, env_b)

        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._process_expr(stmt.iter, env, maybe)
            env_body = self._exec_block(
                stmt.body, _clone_env(env), True
            )
            env = _join_env(env, env_body)
            return self._exec_block(stmt.orelse, env, maybe)

        if isinstance(stmt, ast.While):
            self._process_expr(stmt.test, env, maybe)
            env_body = self._exec_block(
                stmt.body, _clone_env(env), True
            )
            env = _join_env(env, env_body)
            return self._exec_block(stmt.orelse, env, maybe)

        if isinstance(stmt, ast.Try):
            return self._exec_try(stmt, env, maybe)

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._exec_with(stmt, env, maybe)

        if isinstance(stmt, (ast.Global, ast.Nonlocal)):
            for name in stmt.names:
                t = env.get(name)
                if t is not None:
                    t.escaped = True
            return env

        # Anything else: still process embedded calls conservatively.
        for node in ast.iter_child_nodes(stmt):
            if isinstance(node, ast.expr):
                self._process_expr(node, env, maybe)
        return env

    def _exec_assign(self, stmt, env: dict, maybe: bool) -> dict:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        else:
            targets = [stmt.target]
            value = stmt.value

        bind: str | None = None
        if (
            len(targets) == 1
            and isinstance(targets[0], ast.Name)
            and isinstance(stmt, (ast.Assign, ast.AnnAssign))
        ):
            bind = targets[0].id

        # Aliasing: ``x = tracked`` shares the machine state.
        if (
            bind is not None
            and isinstance(value, ast.Name)
            and value.id in env
        ):
            env[bind] = env[value.id]
            return env

        self._process_expr(value, env, maybe, bind=bind)

        for target in targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                # Stored onto an object: the handle escapes.
                if value is not None:
                    for node in ast.walk(value):
                        if isinstance(node, ast.Name):
                            t = env.get(node.id)
                            if t is not None:
                                t.escaped = True
                            self._escape_pending(
                                env, node.id, target.lineno
                            )
            elif isinstance(target, (ast.Tuple, ast.List)):
                for el in target.elts:
                    if isinstance(el, ast.Name):
                        env.pop(el.id, None)
            elif isinstance(target, ast.Name) and bind is None:
                env.pop(target.id, None)
            elif (
                isinstance(target, ast.Name)
                and bind is not None
                and bind in env
                and not isinstance(value, (ast.Call, ast.Name))
            ):
                # Rebound to something unrelated: stop tracking.
                env.pop(bind, None)
        return env

    def _exec_try(self, stmt: ast.Try, env: dict, maybe: bool) -> dict:
        # A finally that fires a protocol event on a handle protects
        # the try body's raise-capable statements (PR 6's
        # finally-span rule, generalized to protocol machines).
        if stmt.finalbody and stmt.body:
            span = (
                stmt.lineno,
                max(
                    getattr(s, "end_lineno", s.lineno) or s.lineno
                    for s in stmt.body
                ),
            )
            for node in ast.walk(ast.Module(body=stmt.finalbody,
                                            type_ignores=[])):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                ):
                    t = env.get(node.func.value.id)
                    if t is not None and t.spec.event_for_method(
                        node.func.attr
                    ):
                        t.protected.append(span)

        env_body = self._exec_block(stmt.body, env, maybe)
        if stmt.handlers:
            pre = _join_env(env, env_body)
            joined: dict | None = None
            for handler in stmt.handlers:
                env_h = self._exec_block(
                    handler.body, _clone_env(pre), True
                )
                joined = (
                    env_h if joined is None
                    else _join_env(joined, env_h)
                )
            env_body = self._exec_block(stmt.orelse, env_body, maybe)
            env_out = _join_env(env_body, joined or env_body)
        else:
            env_out = self._exec_block(stmt.orelse, env_body, maybe)
        return self._exec_block(stmt.finalbody, env_out, maybe)

    def _exec_with(self, stmt, env: dict, maybe: bool) -> dict:
        managed: list[_Track] = []
        body_span = (
            stmt.lineno,
            getattr(stmt, "end_lineno", stmt.lineno) or stmt.lineno,
        )
        for item in stmt.items:
            ce = item.context_expr
            bind = (
                item.optional_vars.id
                if isinstance(item.optional_vars, ast.Name)
                else None
            )
            self._process_expr(ce, env, maybe, bind=bind)
            track: _Track | None = None
            if bind is not None and bind in env:
                track = env[bind]
            elif isinstance(ce, ast.Name):
                track = env.get(ce.id)
            if track is not None:
                if track.spec.enter_event:
                    self._step(
                        track, track.spec.enter_event,
                        stmt.lineno, stmt.col_offset, maybe=maybe,
                    )
                track.protected.append(body_span)
                managed.append(track)
        env = self._exec_block(stmt.body, env, maybe)
        for track in managed:
            if track.spec.exit_event:
                self._step(
                    track, track.spec.exit_event,
                    body_span[1], 0, maybe=maybe,
                )
        return env

    # -- end of function -----------------------------------------------------

    def _finish(self, env: dict) -> None:
        seen: set[int] = set()
        for track in env.values():
            if id(track) in seen:
                continue
            seen.add(id(track))
            if track.escaped:
                continue
            complete = bool(track.states & track.spec.accepting)
            if not complete and track.spec.name == "channel-exporter":
                self._report(
                    "RPR022", track.ctor_line, track.ctor_col,
                    track.spec.name,
                    f"`{track.var} = {track.ctor}(...)` opens the "
                    "live stream (hello) but no path sends "
                    "metrics_final/bye before the function exits; "
                    "call close() so the final registry merge and "
                    "the close handshake reach the collector",
                    track,
                )
            elif complete and track.risk is not None:
                rline, why = track.risk
                self._report(
                    track.spec.raise_rule or "RPR025",
                    track.ctor_line, track.ctor_col, track.spec.name,
                    f"`{track.var} = {track.ctor}(...)` can be left "
                    f"open: {why} at line {rline} exits before the "
                    f"{track.spec.name} protocol reaches an accepting "
                    "state; move the close/finalize into a finally or "
                    "use `with`",
                    track,
                )


class TypestateAnalysis:
    """Project-wide typestate pass: summaries fixpoint + violations."""

    def __init__(
        self,
        project: Project,
        *,
        extra_sources: dict[str, str] | None = None,
        interprocedural: bool = True,
    ) -> None:
        self.project = project
        self.interprocedural = interprocedural
        #: qname -> {param: (PEvent, ...)} protocol summaries.
        self.summaries: dict[str, dict[str, tuple[PEvent, ...]]] = {}
        self._params: dict[str, tuple[str, ...]] = {}
        # (path, qname, FunctionDef) work list.
        self._functions: list[tuple[str, str | None, ast.AST]] = []
        self._trees: dict[str, ast.Module] = {}
        sources = dict(extra_sources or {})
        for rec in project.modules.values():
            source = sources.get(rec.path)
            if source is None:
                try:
                    source = Path(rec.path).read_text(encoding="utf-8")
                except (OSError, UnicodeDecodeError):
                    continue
            try:
                tree = ast.parse(source, filename=rec.path)
            except SyntaxError:
                continue
            self._trees[rec.path] = tree
            by_key = {
                (info.name, info.line): info.qname
                for info in rec.functions
            }
            by_name: dict[str, list[str]] = {}
            for info in rec.functions:
                by_name.setdefault(info.name, []).append(info.qname)
            for node in ast.walk(tree):
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    qname = by_key.get((node.name, node.lineno))
                    if qname is None:
                        cands = by_name.get(node.name, [])
                        qname = cands[0] if len(cands) == 1 else None
                    if qname is not None:
                        self._params[qname] = _param_names(node)
                    self._functions.append((rec.path, qname, node))

    def param_names_of(self, qname: str) -> tuple[str, ...]:
        """Declared parameter names of ``qname`` (empty when the
        function was not matched to an AST)."""
        return self._params.get(qname, ())

    def _summary_pass(self) -> bool:
        changed = False
        for path, qname, node in self._functions:
            if qname is None:
                continue
            fpass = _FunctionPass(self, node, qname, path)
            fpass.run()
            new = {
                p: tuple(log)
                for p, log in fpass.param_log.items()
                if log
            }
            if new != self.summaries.get(qname, {}):
                self.summaries[qname] = new
                changed = True
        return changed

    def run(self) -> dict[str, dict[str, list[tuple[int, int, str]]]]:
        """Compute the full report: ``code -> path -> triples`` plus
        per-function channel findings for RPR026."""
        if self.interprocedural:
            for _round in range(_MAX_ROUNDS):
                if not self._summary_pass():
                    break
        report: dict[str, dict[str, list[tuple[int, int, str]]]] = {
            code: {} for code in TYPESTATE_RULES
        }
        channel_viols: dict[str, list[tuple[int, int, str]]] = {}
        for path, qname, node in self._functions:
            fpass = _FunctionPass(self, node, qname, path)
            fpass.run()
            for code, line, col, machine, msg in fpass.violations:
                report[code].setdefault(path, []).append(
                    (line, col, msg)
                )
                if machine == "channel-exporter" and qname:
                    channel_viols.setdefault(qname, []).append(
                        (line, col, msg)
                    )
        self._check_spawn_conformance(report, channel_viols)
        for buckets in report.values():
            for triples in buckets.values():
                triples.sort()
        return report

    # -- RPR026: spawned children must drive the channel in order ----------

    def _check_spawn_conformance(
        self,
        report: dict,
        channel_viols: dict[str, list[tuple[int, int, str]]],
    ) -> None:
        if not channel_viols:
            return
        project = self.project
        for rec in project.modules.values():
            tree = self._trees.get(rec.path)
            if tree is None:
                continue
            infos = sorted(rec.functions, key=lambda i: i.line)
            for call in ast.walk(tree):
                if not isinstance(call, ast.Call):
                    continue
                raw = _dotted(call.func)
                if raw is None or raw.split(".")[-1] != "Process":
                    continue
                target = next(
                    (
                        kw.value.id
                        for kw in call.keywords
                        if kw.arg == "target"
                        and isinstance(kw.value, ast.Name)
                    ),
                    None,
                )
                if target is None:
                    continue
                owner = None
                for info in infos:
                    if info.line <= call.lineno <= info.end_line:
                        owner = info
                if owner is None:
                    continue
                callee = project._resolve_plain(owner, target)
                if callee is None:
                    continue
                reach = {callee} | project.reachable_from(callee)
                hits = [
                    (fn, v)
                    for fn in sorted(reach)
                    for v in channel_viols.get(fn, ())
                ]
                if not hits:
                    continue
                fn, (vline, _vcol, vmsg) = hits[0]
                where = project.functions[fn]
                report["RPR026"].setdefault(rec.path, []).append(
                    (
                        call.lineno, call.col_offset,
                        f"spawned child target `{target}` can emit "
                        "frames without a conformant handshake: "
                        f"`{fn.rsplit('.', 1)[-1]}` "
                        f"({where.path}:{vline}) drives its channel "
                        "out of order — a conformant stream is hello "
                        "-> frames -> metrics_final -> bye (tightens "
                        "RPR021: having a channel is not enough, it "
                        "must be driven in order)",
                    )
                )


def typestate_report(
    project: Project,
    *,
    extra_sources: dict[str, str] | None = None,
) -> dict[str, dict[str, list[tuple[int, int, str]]]]:
    """Memoized typestate findings for ``project``
    (``code -> path -> (line, col, message) triples``)."""
    cached = getattr(project, "_typestate_report", None)
    if cached is not None:
        return cached
    analysis = TypestateAnalysis(
        project, extra_sources=extra_sources
    )
    report = analysis.run()
    project._typestate_report = report
    return report
