"""Concrete lint rules (``RPR001`` … ``RPR009``, ``RPR020``).

Each rule encodes an invariant this codebase depends on:

========  ==============================================================
RPR001    no Python-level loop over vertices/edges in hot-path modules
          (``repro.bfs``/``repro.graph``/``repro.hetero``) — the kernels
          must stay vectorized or the paper's performance story is void
RPR002    no ``int64 -> int32`` narrowing of CSR ``offsets`` — offsets
          index the edge array and overflow int32 past 2^31 edges
RPR003    ``time.time()`` is not a benchmark clock — use
          ``time.perf_counter()`` (monotonic, highest resolution)
RPR004    no bare ``assert`` in library code — asserts vanish under
          ``python -O``; raise a :mod:`repro.errors` type instead
RPR005    no mutation of ``CSRGraph.offsets``/``targets`` outside the
          construction module — traversals alias these arrays
RPR006    public modules must declare ``__all__``
RPR007    no fresh graph-sized allocation inside a BFS level kernel
          (``repro/bfs/``) — level kernels must draw scratch from the
          :class:`~repro.bfs.workspace.BFSWorkspace` so warm traversals
          stay allocation-free
RPR008    no ad-hoc ``time.perf_counter()`` outside ``repro/obs/`` —
          timing goes through :func:`repro.obs.clock.now` (one
          swappable clock, so traces/tests can substitute a
          :class:`~repro.obs.clock.ManualClock`)
RPR009    metric names passed to the registry/tracer must be lowercase
          dotted identifiers from the declared catalog
          (:data:`repro.obs.metrics.METRIC_CATALOG`) — ad-hoc names
          fragment the run-history trajectory
RPR020    no ``tracemalloc`` / ``sys.settrace`` / ``sys.setprofile``
          outside ``repro/obs/`` — interpreter-level instrumentation
          distorts the kernels being measured and belongs to the
          profiling tier (:mod:`repro.obs.profile`), whose allocation
          windows are scoped to the runs that ask for them
========  ==============================================================

Rules yield ``(line, col, message)``; the engine applies suppression and
reporting.  See :mod:`repro.analysis.lint`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.effects import MUTATING_METHODS
from repro.analysis.lint import ModuleContext, rule

__all__ = [
    "check_hot_path_loops",
    "check_offset_narrowing",
    "check_wall_clock",
    "check_bare_assert",
    "check_csr_mutation",
    "check_missing_all",
    "check_kernel_allocations",
    "check_adhoc_perf_counter",
    "check_metric_names",
    "check_adhoc_instrumentation",
]

# Names whose iteration in a hot-path module almost certainly means a
# scalar per-vertex/per-edge loop (the frontier, adjacency material).
_VERTEXY_ITER_NAMES = {
    "cq",
    "frontier",
    "neighbours",
    "neighbors",
    "unvisited",
    "vertices",
    "edges",
}
_CSR_ARRAY_ATTRS = {"offsets", "targets"}
_SIZE_NAMES = {"num_vertices", "num_edges", "num_directed_edges",
               "nverts", "nedges", "n_vertices", "n_edges"}


def _terminal_name(node: ast.expr) -> str | None:
    """The identifier a Name/Attribute expression ends in, if any."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _mentions_size(node: ast.expr) -> bool:
    """Whether any sub-expression names a vertex/edge count or a CSR
    array (so ``range()`` over it is a per-vertex/per-edge loop)."""
    for sub in ast.walk(node):
        name = _terminal_name(sub) if isinstance(sub, (ast.Name, ast.Attribute)) else None
        if name in _SIZE_NAMES or name in _CSR_ARRAY_ATTRS:
            return True
    return False


def _is_vertexy_iter(iter_node: ast.expr) -> bool:
    """Heuristic: does this ``for``-loop iterable walk vertices/edges?"""
    if isinstance(iter_node, ast.Call):
        fn = iter_node.func
        if isinstance(fn, ast.Name) and fn.id in ("range", "zip", "enumerate"):
            return any(_mentions_size(a) or _is_vertexy_iter(a)
                       for a in iter_node.args)
        if isinstance(fn, ast.Attribute) and fn.attr in ("neighbors", "edge_list"):
            return True
        return False
    name = _terminal_name(iter_node)
    return name in _VERTEXY_ITER_NAMES or name in _CSR_ARRAY_ATTRS


@rule(
    "RPR001",
    "Python-level loop over vertices/edges in a hot-path module "
    "(bfs/graph/hetero); vectorize with NumPy",
    hot_path_only=True,
)
def check_hot_path_loops(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    """Flag scalar per-vertex/per-edge ``for`` loops (and comprehension
    generators) inside the vectorized-kernel packages."""
    for node in ctx.nodes(ast.For, ast.AsyncFor, ast.ListComp, ast.SetComp,
                          ast.DictComp, ast.GeneratorExp):
        iters: list[tuple[int, int, ast.expr]] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append((node.lineno, node.col_offset, node.iter))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                iters.append((node.lineno, node.col_offset, gen.iter))
        for line, col, iter_node in iters:
            if _is_vertexy_iter(iter_node):
                yield (
                    line,
                    col,
                    "Python-level loop over vertices/edges "
                    f"(`{ast.unparse(iter_node)}`) in a hot-path module; "
                    "use vectorized NumPy kernels",
                )


def _is_int32_dtype(node: ast.expr) -> bool:
    """Whether an expression denotes the int32 dtype (``np.int32``,
    ``numpy.int32``, ``'int32'``, ``'i4'``)."""
    if isinstance(node, ast.Attribute) and node.attr == "int32":
        return True
    if isinstance(node, ast.Constant) and node.value in ("int32", "i4", "<i4"):
        return True
    return False


def _mentions_offsets(node: ast.expr) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Name, ast.Attribute)):
            if _terminal_name(sub) == "offsets":
                return True
    return False


@rule(
    "RPR002",
    "int64 -> int32 narrowing of CSR offsets; offsets index the edge "
    "array and overflow int32 on large graphs",
)
def check_offset_narrowing(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    """Flag ``<expr involving offsets>.astype(np.int32)`` and
    ``np.asarray(offsets…, dtype=np.int32)``-style narrowing."""
    for node in ctx.nodes(ast.Call):
        fn = node.func
        # x.astype(np.int32) where x mentions offsets
        if (
            isinstance(fn, ast.Attribute)
            and fn.attr == "astype"
            and node.args
            and _is_int32_dtype(node.args[0])
            and _mentions_offsets(fn.value)
        ):
            yield (
                node.lineno,
                node.col_offset,
                "narrowing a CSR offsets expression to int32; offsets "
                "must stay int64 (they index up to |E| > 2^31 entries)",
            )
            continue
        # np.asarray(x, dtype=np.int32) / np.array(...) where x mentions offsets
        if (
            isinstance(fn, ast.Attribute)
            and fn.attr in ("asarray", "array", "ascontiguousarray", "zeros_like", "empty_like")
            and node.args
            and _mentions_offsets(node.args[0])
        ):
            for kw in node.keywords:
                if kw.arg == "dtype" and _is_int32_dtype(kw.value):
                    yield (
                        node.lineno,
                        node.col_offset,
                        "constructing an int32 array from a CSR offsets "
                        "expression; offsets must stay int64",
                    )


@rule(
    "RPR003",
    "time.time() used for timing; use time.perf_counter() "
    "(monotonic, not subject to clock adjustments)",
)
def check_wall_clock(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    """Flag ``time.time()`` calls and ``from time import time``."""
    for node in ctx.nodes(ast.ImportFrom, ast.Call):
        if isinstance(node, ast.ImportFrom):
            if node.module == "time" and any(
                alias.name == "time" for alias in node.names
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    "importing time.time; use time.perf_counter for timing",
                )
        elif isinstance(node, ast.Call):
            fn = node.func
            if (
                isinstance(fn, ast.Attribute)
                and fn.attr == "time"
                and isinstance(fn.value, ast.Name)
                and fn.value.id == "time"
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    "time.time() is not a benchmark clock; "
                    "use time.perf_counter()",
                )


@rule(
    "RPR004",
    "bare assert in library code; asserts vanish under `python -O` — "
    "raise a repro.errors type",
)
def check_bare_assert(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    """Flag every ``assert`` statement (library code must raise)."""
    for node in ctx.nodes(ast.Assert):
        yield (
            node.lineno,
            node.col_offset,
            "bare assert in library code; raise a repro.errors "
            "exception (asserts are stripped under python -O)",
        )


@rule(
    "RPR005",
    "mutation of CSRGraph offsets/targets outside graph/csr.py; "
    "traversals alias these arrays",
)
def check_csr_mutation(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    """Flag writes to ``<obj>.offsets`` / ``<obj>.targets`` — element
    assignment, rebinding, augmented assignment, or in-place methods —
    anywhere but the construction module."""
    if ctx.path.replace("\\", "/").endswith("repro/graph/csr.py"):
        return
    for node in ctx.nodes(ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Call):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call):
            fn = node.func
            if (
                isinstance(fn, ast.Attribute)
                and fn.attr in MUTATING_METHODS
                and isinstance(fn.value, ast.Attribute)
                and fn.value.attr in _CSR_ARRAY_ATTRS
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"in-place `{fn.attr}` on CSR `{fn.value.attr}`; "
                    "CSR arrays are frozen outside construction",
                )
            continue
        for tgt in targets:
            # g.offsets[...] = x   or   g.offsets = x
            inner = tgt.value if isinstance(tgt, ast.Subscript) else tgt
            if (
                isinstance(inner, ast.Attribute)
                and inner.attr in _CSR_ARRAY_ATTRS
            ):
                yield (
                    tgt.lineno,
                    tgt.col_offset,
                    f"assignment to CSR `{inner.attr}` outside "
                    "construction; build a new CSRGraph instead",
                )


# Function names that are per-level kernel entry points in repro.bfs —
# the code paths that run once per BFS level and must stay
# allocation-free after workspace warm-up.
_KERNEL_FN_SUFFIXES = ("_step", "_level", "_scan")
_KERNEL_FN_NAMES = {"expand_rows", "gather_segments", "segment_first_true"}
_ALLOC_FNS = {"zeros", "empty", "full", "ones"}


def _is_kernel_function(name: str) -> bool:
    return name in _KERNEL_FN_NAMES or name.endswith(_KERNEL_FN_SUFFIXES)


def _mentions_parent(node: ast.expr) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Name, ast.Attribute)):
            if _terminal_name(sub) == "parent":
                return True
    return False


@rule(
    "RPR007",
    "fresh array allocation or parent-map rescan inside a BFS level "
    "kernel; draw scratch from the BFSWorkspace",
)
def check_kernel_allocations(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    """Flag per-level allocations in the ``repro.bfs`` kernel functions.

    Inside any function named like a level kernel (``*_step``,
    ``*_level``, ``*_scan``, or the shared gather primitives) in a
    ``repro/bfs/`` module, flag:

    * ``np.arange(...)`` — use the workspace iota cache;
    * ``np.zeros/empty/full/ones(k)`` with ``k`` not the constant 0
      (empty-result sentinels are fine) — use a workspace buffer;
    * ``np.nonzero(parent ...)`` / ``np.flatnonzero(parent ...)`` —
      an O(V) rescan of the parent map; use the workspace's
      incremental unvisited list.

    Cold paths (no workspace supplied) carry ``# repro: noqa[RPR007]``.
    """
    path = ctx.path.replace("\\", "/")
    if "repro/bfs/" not in path:
        return
    for fn in ctx.nodes(ast.FunctionDef, ast.AsyncFunctionDef):
        if not _is_kernel_function(fn.name):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = _terminal_name(callee)
            if name == "arange":
                yield (
                    node.lineno,
                    node.col_offset,
                    "np.arange in a level kernel; use the workspace "
                    "iota cache",
                )
            elif name in _ALLOC_FNS and node.args:
                size = node.args[0]
                if isinstance(size, ast.Constant) and size.value == 0:
                    continue  # empty-result sentinel
                yield (
                    node.lineno,
                    node.col_offset,
                    f"np.{name} allocation in a level kernel; use a "
                    "workspace buffer",
                )
            elif name in ("nonzero", "flatnonzero") and node.args and _mentions_parent(
                node.args[0]
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    "O(V) rescan of the parent map in a level kernel; "
                    "use the workspace's incremental unvisited list",
                )


@rule(
    "RPR008",
    "ad-hoc time.perf_counter() outside repro/obs/; use "
    "repro.obs.clock.now (the library's one swappable clock)",
)
def check_adhoc_perf_counter(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    """Flag ``time.perf_counter()`` calls and ``from time import
    perf_counter`` anywhere but the :mod:`repro.obs` package.

    The observability layer routes every timestamp through
    :func:`repro.obs.clock.now` so spans, ``timed_bfs`` and the bench
    harness all read the same clock — and tests can swap in a
    :class:`~repro.obs.clock.ManualClock`.  A scattered
    ``perf_counter()`` call bypasses that substitution point.
    """
    if "repro/obs/" in ctx.path.replace("\\", "/"):
        return
    for node in ctx.nodes(ast.ImportFrom, ast.Call):
        if isinstance(node, ast.ImportFrom):
            if node.module == "time" and any(
                alias.name == "perf_counter" for alias in node.names
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    "importing time.perf_counter outside repro/obs/; "
                    "use repro.obs.clock.now",
                )
        elif isinstance(node, ast.Call):
            fn = node.func
            if (
                isinstance(fn, ast.Attribute)
                and fn.attr == "perf_counter"
                and isinstance(fn.value, ast.Name)
                and fn.value.id == "time"
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    "ad-hoc time.perf_counter() outside repro/obs/; "
                    "use repro.obs.clock.now so the clock stays "
                    "swappable",
                )


# Registry methods (and the tracer shorthands that delegate to them)
# whose first argument names a metric.
_METRIC_METHODS = {"counter", "gauge", "histogram", "count", "gauge_set"}
_METRIC_NAME_PATTERN = r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$"


def _metric_catalog() -> tuple[str, ...]:
    # Imported lazily so the analysis layer has no import-time coupling
    # to the observability package it lints.
    from repro.obs.metrics import METRIC_CATALOG

    return METRIC_CATALOG


@rule(
    "RPR009",
    "metric name is not a lowercase dotted identifier from "
    "repro.obs.metrics.METRIC_CATALOG; declare it there first",
)
def check_metric_names(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    """Flag registry/tracer metric call sites whose *string-literal*
    name argument is malformed or undeclared.

    Checked methods: ``registry.counter/gauge/histogram`` and the
    tracer shorthands ``tracer.count/gauge_set/observe`` (``observe``
    only when the first argument is a string — ``histogram.observe(v)``
    takes a value, not a name).  Names built at runtime are out of
    scope; dynamic call sites carry the catalog discipline by
    convention (or a ``# repro: noqa[RPR009]``).
    """
    import re

    catalog = None  # loaded on first hit; most modules emit no metrics
    for node in ctx.nodes(ast.Call):
        fn = node.func
        if not isinstance(fn, ast.Attribute):
            continue
        if fn.attr not in _METRIC_METHODS and fn.attr != "observe":
            continue
        if not node.args:
            continue
        name_arg = node.args[0]
        if not (isinstance(name_arg, ast.Constant) and isinstance(name_arg.value, str)):
            continue
        name = name_arg.value
        if catalog is None:
            catalog = _metric_catalog()
        if not re.match(_METRIC_NAME_PATTERN, name):
            yield (
                node.lineno,
                node.col_offset,
                f"metric name {name!r} is not a lowercase dotted "
                "identifier (\"ns.sub.name\")",
            )
        elif name not in catalog:
            yield (
                node.lineno,
                node.col_offset,
                f"metric name {name!r} is not in "
                "repro.obs.metrics.METRIC_CATALOG; declare it there "
                "before emitting it",
            )


@rule(
    "RPR006",
    "public module missing __all__; the API contract must be explicit",
)
def check_missing_all(ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
    """Flag public modules (basename not starting with ``_``) that never
    assign ``__all__`` at module level."""
    if ctx.module_basename.startswith("_"):
        return
    for node in ctx.tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == "__all__"
        ):
            return
    yield (1, 0, "public module does not declare __all__")


#: ``sys`` functions that install interpreter-wide hooks: a per-call /
#: per-line callback fires inside every kernel afterwards.
_TRACE_HOOKS = {"settrace", "setprofile"}


@rule(
    "RPR020",
    "tracemalloc / sys.settrace / sys.setprofile outside repro/obs/; "
    "interpreter instrumentation belongs to the profiling tier",
)
def check_adhoc_instrumentation(
    ctx: ModuleContext,
) -> Iterator[tuple[int, int, str]]:
    """Flag interpreter-level instrumentation outside :mod:`repro.obs`.

    ``sys.settrace``/``sys.setprofile`` install a hook the interpreter
    invokes on every call (or line), and a stray ``tracemalloc.start()``
    silently taxes every allocation in the process for as long as it
    stays on.  Both belong *inside* ``repro/obs/``, where the profiling
    tier scopes ``tracemalloc`` to allocation windows and times
    traversals outside them; anywhere else they distort the kernels
    the paper's numbers depend on.
    """
    if "repro/obs/" in ctx.path.replace("\\", "/"):
        return
    for node in ctx.nodes(ast.Import, ast.ImportFrom, ast.Call):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "tracemalloc":
                    yield (
                        node.lineno,
                        node.col_offset,
                        "importing tracemalloc outside repro/obs/; use "
                        "repro.obs.profile.AllocationProfiler windows",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] == "tracemalloc":
                yield (
                    node.lineno,
                    node.col_offset,
                    "importing from tracemalloc outside repro/obs/; use "
                    "repro.obs.profile.AllocationProfiler windows",
                )
            elif node.module == "sys" and any(
                alias.name in _TRACE_HOOKS for alias in node.names
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    "importing sys.settrace/setprofile outside "
                    "repro/obs/; use "
                    "repro.obs.profile.AllocationProfiler windows",
                )
        else:
            fn = node.func
            if not isinstance(fn, ast.Attribute):
                continue
            if (
                isinstance(fn.value, ast.Name)
                and fn.value.id == "sys"
                and fn.attr in _TRACE_HOOKS
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"sys.{fn.attr}() outside repro/obs/ hooks every "
                    "call in the interpreter; use "
                    "repro.obs.profile.AllocationProfiler windows",
                )
            elif (
                isinstance(fn.value, ast.Name)
                and fn.value.id == "tracemalloc"
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"tracemalloc.{fn.attr}() outside repro/obs/ taxes "
                    "every allocation in the process; use "
                    "repro.obs.profile.AllocationProfiler windows",
                )

