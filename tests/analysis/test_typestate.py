"""Lifecycle rules on the dataflow interpreter (RPR023, RPR024).

A pinned table records where each rule fires and where it stays
silent.  Each rule has a golden bad/clean fixture pair, and RPR023
additionally proves the interprocedural lift (the module-local
summaries provably miss it).  The dynamic twins run each bad fixture's
scenario on the real engine and workspace, showing the defect the
static rule reports.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    lint_paths,
    lint_source,
    module_effects,
    project_from_sources,
)
from repro.analysis.callgraph import RESOURCE_CTORS, _RECEIVER_CONVENTIONS
from repro.bfs.parallel import ParallelBFS
from repro.bfs.workspace import BFSWorkspace
from repro.errors import BFSError
from repro.graph.generators import grid2d

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

LIFECYCLE_RULES = ("RPR023", "RPR024")


def _fixture_source(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def _load_fixture_module(name: str):
    """Import a fixture file as a real module (the fixtures directory
    is not a package)."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        f"lifecycle_fixture_{name.removesuffix('.py')}", FIXTURES / name
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lint_fixture(name: str, rule: str):
    return lint_source(
        _fixture_source(name),
        path=f"src/repro/bfs/{name}",
        select=[rule],
        deep=True,
    )


_FORWARDING = """\
from repro.bfs.workspace import BFSWorkspace

__all__ = ["sweep", "pair"]


def run(graph, source, *, workspace=None):
    return inner(graph, source, workspace=workspace)


def inner(graph, source, *, workspace=None):
    return workspace.begin(source)


def sweep(graph, roots):
    ws = BFSWorkspace(graph.num_vertices)
    best = 0
    for root in roots:
        result = run(graph, root, workspace=ws)
        best = max(best, int(result[0][0]))
    return best


def pair(graph, a, b):
    ws = BFSWorkspace(graph.num_vertices)
    first = run(graph, a, workspace=ws)
    second = run(graph, b, workspace=ws)
    return int(first[0][0]) + int(second[0][0])
"""


_PINNED_HEADER = """\
from repro.bfs.hybrid import bfs_hybrid
from repro.bfs.parallel import ParallelBFS
from repro.bfs.workspace import BFSWorkspace

__all__ = ["case"]


"""

#: ``(id, rule, body)``: each body is linted with only ``rule`` selected;
#: the rule must fire exactly on the lines marked ``# <-`` (none marked:
#: the rule stays silent).
_PINNED = [
    ("rpr023-after-close", "RPR023", """\
def case(graph, s):
    e = ParallelBFS(num_threads=2)
    e.close()
    return e.run(graph, s)  # <-
"""),
    ("rpr023-callee-closes", "RPR023", """\
def _stop(engine):
    engine.close()


def case(graph, s):
    e = ParallelBFS(num_threads=2)
    _stop(e)
    return e.run(graph, s)  # <-
"""),
    ("rpr023-alias-closed", "RPR023", """\
def case(graph, s):
    e = ParallelBFS(num_threads=2)
    g = e
    g.close()
    return e.run(graph, s)  # <-
"""),
    ("rpr023-after-finally-close", "RPR023", """\
def case(graph, s):
    e = ParallelBFS(num_threads=2)
    try:
        e.run(graph, s)
    finally:
        e.close()
    return e.run(graph, s)  # <-
"""),
    ("rpr023-after-with", "RPR023", """\
def case(graph, s):
    with ParallelBFS(num_threads=2) as e:
        e.run(graph, s)
    return e.run(graph, s)  # <-
"""),
    ("rpr023-close-under-if", "RPR023", """\
def case(graph, s, c):
    e = ParallelBFS(num_threads=2)
    if c:
        e.close()
    return e.run(graph, s)
"""),
    ("rpr023-close-in-loop", "RPR023", """\
def case(graph, s, items):
    e = ParallelBFS(num_threads=2)
    for _ in items:
        e.close()
    return e.run(graph, s)
"""),
    ("rpr023-callee-closes-under-if", "RPR023", """\
def _maybe_stop(engine, c):
    if c:
        engine.close()


def case(graph, s, c):
    e = ParallelBFS(num_threads=2)
    _maybe_stop(e, c)
    return e.run(graph, s)
"""),
    ("rpr024-begin-then-read", "RPR024", """\
def case(graph, a, b):
    ws = BFSWorkspace(graph.num_vertices)
    first = bfs_hybrid(graph, b, workspace=ws)
    ws.begin(a)  # <-
    return int(first.parent[0])
"""),
    ("rpr024-begin-then-return", "RPR024", """\
def case(graph, a, b):
    ws = BFSWorkspace(graph.num_vertices)
    first = bfs_hybrid(graph, b, workspace=ws)
    ws.begin(a)  # <-
    return first
"""),
    ("rpr024-callee-begins", "RPR024", """\
def _reset(w, a):
    w.begin(a)


def case(graph, a, b):
    ws = BFSWorkspace(graph.num_vertices)
    first = bfs_hybrid(graph, b, workspace=ws)
    _reset(ws, a)  # <-
    return first
"""),
    ("rpr024-callee-begins-two-down", "RPR024", """\
def _inner(space, a):
    space.begin(a)


def _reset(w, a):
    _inner(w, a)


def case(graph, a, b):
    ws = BFSWorkspace(graph.num_vertices)
    first = bfs_hybrid(graph, b, workspace=ws)
    _reset(ws, a)  # <-
    return first
"""),
    ("rpr024-callee-traverses", "RPR024", """\
def _go(graph, b, w):
    return bfs_hybrid(graph, b, workspace=w)


def case(graph, a, b):
    ws = BFSWorkspace(graph.num_vertices)
    first = bfs_hybrid(graph, a, workspace=ws)
    second = _go(graph, b, ws)  # <-
    return first, second
"""),
    ("rpr024-second-under-if", "RPR024", """\
def case(graph, a, b, c):
    ws = BFSWorkspace(graph.num_vertices)
    first = bfs_hybrid(graph, a, workspace=ws)
    if c:
        bfs_hybrid(graph, b, workspace=ws)  # <-
    return first
"""),
    ("rpr024-stored-in-container", "RPR024", """\
def case(graph, a, b, out):
    ws = BFSWorkspace(graph.num_vertices)
    first = bfs_hybrid(graph, a, workspace=ws)
    out.append(first)
    return bfs_hybrid(graph, b, workspace=ws)  # <-
"""),
    ("rpr024-stored-on-attribute", "RPR024", """\
class Holder:
    def case(self, graph, a, b):
        ws = BFSWorkspace(graph.num_vertices)
        first = bfs_hybrid(graph, a, workspace=ws)
        self.keep = first
        return bfs_hybrid(graph, b, workspace=ws)  # <-
"""),
    ("rpr024-for-graph-ctor", "RPR024", """\
def case(graph, a, b):
    ws = BFSWorkspace.for_graph(graph)
    first = bfs_hybrid(graph, a, workspace=ws)
    second = bfs_hybrid(graph, b, workspace=ws)  # <-
    return first, second
"""),
    ("rpr024-loop-rebinds-result", "RPR024", """\
def case(graph, roots):
    ws = BFSWorkspace.for_graph(graph)
    best = 0
    for root in roots:
        result = bfs_hybrid(graph, root, workspace=ws)
        best = max(best, result.num_levels - 1)
    return best
"""),
    ("rpr024-same-name-rebound", "RPR024", """\
def case(graph, a, b):
    ws = BFSWorkspace(graph.num_vertices)
    result = bfs_hybrid(graph, a, workspace=ws)
    total = result.num_reached
    result = bfs_hybrid(graph, b, workspace=ws)
    return total + result.num_reached
"""),
    ("rpr024-read-before-reuse", "RPR024", """\
def case(graph, a, b):
    ws = BFSWorkspace(graph.num_vertices)
    first = bfs_hybrid(graph, a, workspace=ws)
    total = first.num_reached
    second = bfs_hybrid(graph, b, workspace=ws)
    return total + second.num_reached
"""),
    ("rpr024-detached-first", "RPR024", """\
def case(graph, a, b):
    ws = BFSWorkspace(graph.num_vertices)
    first = bfs_hybrid(graph, b, workspace=ws)
    first.detach()
    ws.begin(a)
    return first
"""),
]


def test_close_on_both_arms_fires():
    """Closed on every path through an ``if``/``else`` is closed: the
    join keeps the flag when both arms set it."""
    source = _PINNED_HEADER + (
        "def case(graph, s, c):\n"
        "    e = ParallelBFS(num_threads=2)\n"
        "    if c:\n"
        "        e.close()\n"
        "    else:\n"
        "        e.shutdown()\n"
        "    return e.run(graph, s)\n"
    )
    violations = lint_source(
        source, path="pinned_lifecycle.py", select=["RPR023"], deep=True
    )
    assert [v.line for v in violations] == [len(source.splitlines())]


@pytest.mark.parametrize(
    ("rule", "body"),
    [(rule, body) for _id, rule, body in _PINNED],
    ids=[case_id for case_id, _rule, _body in _PINNED],
)
def test_pinned_lifecycle_answers(rule, body):
    source = _PINNED_HEADER + body
    marked = [
        i for i, line in enumerate(source.splitlines(), 1)
        if line.endswith("# <-")
    ]
    violations = lint_source(
        source, path="pinned_lifecycle.py", select=[rule], deep=True
    )
    assert [(v.rule, v.line) for v in violations] == [
        (rule, line) for line in marked
    ]


# -- golden pairs ----------------------------------------------------------


class TestGoldenFixtures:
    @pytest.mark.parametrize("rule", LIFECYCLE_RULES)
    def test_bad_fixture_is_caught(self, rule):
        violations = _lint_fixture(f"{rule.lower()}_bad.py", rule)
        assert violations, f"{rule} must fire on its bad fixture"
        assert {v.rule for v in violations} == {rule}

    @pytest.mark.parametrize("rule", LIFECYCLE_RULES)
    def test_clean_fixture_is_silent(self, rule):
        assert _lint_fixture(f"{rule.lower()}_clean.py", rule) == []

    def test_rpr024_names_the_live_result(self):
        (violation,) = _lint_fixture("rpr024_bad.py", "RPR024")
        assert "`first`" in violation.message
        assert "detach" in violation.message

    def test_rpr024_forwarded_workspace_is_one_traversal(self):
        """Handing ``workspace=`` to a function that forwards it to
        another traversal is one traversal, not two: a loop rebinding
        its result stays silent, and a second traversal while the
        first result is live is still caught."""
        violations = lint_source(
            _FORWARDING,
            path="src/repro/bfs/forwarding.py",
            select=["RPR024"],
            deep=True,
        )
        assert len(violations) == 1
        assert violations[0].line == _FORWARDING.splitlines().index(
            "    second = run(graph, b, workspace=ws)"
        ) + 1
        assert "`first`" in violations[0].message


# -- the interprocedural lift ----------------------------------------------


class TestInterproceduralBlindSpot:
    """The RPR023 bad fixture plants a violation the module-local
    summaries provably miss."""

    @pytest.mark.parametrize(
        ("fixture", "rule"), [("rpr023_bad.py", "RPR023")]
    )
    def test_one_level_view_misses_it(self, fixture, rule):
        path = f"src/repro/bfs/{fixture}"
        source = _fixture_source(fixture)
        local = module_effects(ast.parse(source))
        assert local["shutdown"].closes == frozenset(), (
            "`shutdown` closes its engine only through `_stop`: if its "
            "own summary saw the close, the fixture would no longer "
            "prove the interprocedural lift"
        )
        project = project_from_sources([(path, source)])
        (shutdown,) = [
            project.summaries[q]
            for q, info in project.functions.items()
            if info.name == "shutdown"
        ]
        assert shutdown.closes == frozenset({"engine"})
        assert [v.rule for v in _lint_fixture(fixture, rule)] == [rule]


def test_every_rule_guards_an_existing_class():
    """A deep rule stays only while the class it keys on exists: each
    class name below is defined or imported somewhere under src/repro."""
    known: set[str] = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                known.add(node.name)
            elif isinstance(node, ast.ImportFrom):
                known.update(alias.name for alias in node.names)
    guarded = {
        "ParallelBFS", "BFSWorkspace", "BFSResult",
        *RESOURCE_CTORS, *_RECEIVER_CONVENTIONS.values(),
    }
    assert sorted(guarded - known) == []


# -- suppression -----------------------------------------------------------


class TestNoqa:
    def test_noqa_silences_each_rule(self):
        source = (
            '"""Fixture."""\n'
            "\n"
            "from repro.bfs.parallel import ParallelBFS\n"
            "\n"
            "\n"
            "def finish(graph, source):\n"
            "    engine = ParallelBFS(num_threads=2)\n"
            "    engine.close()\n"
            "    engine.run(graph, source)  # repro: noqa[RPR023]\n"
        )
        assert (
            lint_source(
                source,
                path="src/repro/bfs/x.py",
                select=["RPR023"],
                deep=True,
            )
            == []
        )

    def test_noqa_on_multiline_statement_extent(self):
        """A marker on the closing line of a multi-line call suppresses
        the violation reported at the statement's first line."""
        source = (
            '"""Fixture."""\n'
            "\n"
            "from repro.bfs.parallel import ParallelBFS\n"
            "\n"
            "\n"
            "def finish(graph, source):\n"
            "    engine = ParallelBFS(num_threads=2)\n"
            "    engine.close()\n"
            "    engine.run(\n"
            "        graph, source\n"
            "    )  # repro: noqa[RPR023]\n"
        )
        assert (
            lint_source(
                source,
                path="src/repro/bfs/x.py",
                select=["RPR023"],
                deep=True,
            )
            == []
        )
        # the same source without the marker does fire, at line 9
        stripped = source.replace("  # repro: noqa[RPR023]", "")
        violations = lint_source(
            stripped,
            path="src/repro/bfs/x.py",
            select=["RPR023"],
            deep=True,
        )
        assert [v.line for v in violations] == [9]

    @pytest.mark.parametrize(
        ("fixture", "rule"),
        [(f"{r.lower()}_bad.py", r) for r in LIFECYCLE_RULES],
    )
    def test_noqa_silences_every_bad_fixture(self, fixture, rule):
        source = _fixture_source(fixture)
        lines = source.splitlines()
        violations = _lint_fixture(fixture, rule)
        for v in violations:
            lines[v.line - 1] += f"  # repro: noqa[{rule}]"
        suppressed = lint_source(
            "\n".join(lines) + "\n",
            path=f"src/repro/bfs/{fixture}",
            select=[rule],
            deep=True,
        )
        assert suppressed == []


# -- dynamic twins ---------------------------------------------------------


class TestDynamicTwins:
    """Each static rule's bad scenario, executed for real."""

    def test_rpr023_twin_run_after_close(self):
        # the rpr023_bad scenario on a real engine: the handle closed
        # two calls away refuses run() before reaching the pool
        graph = grid2d(4, 4)
        bad = _load_fixture_module("rpr023_bad.py")
        with pytest.raises(BFSError, match="engine is closed"):
            bad.finish(graph, 0, 2)
        clean = _load_fixture_module("rpr023_clean.py")
        assert clean.finish(graph, 0, 2).num_reached == graph.num_vertices

    def test_rpr024_twin_reuse_while_lent(self):
        # the rpr024_bad scenario: the second traversal rewrites the
        # maps the first result still lends from the workspace
        graph = grid2d(4, 4)
        with ParallelBFS(num_threads=2) as engine:
            ws = BFSWorkspace(graph.num_vertices)
            first = engine.run(graph, 0, workspace=ws)
            second = engine.run(graph, 15, workspace=ws)  # first still live
        assert np.shares_memory(first.parent, second.parent)
        assert first.source == 0
        assert int(first.level[0]) == 6  # now reads the BFS from 15
        # the fixture reads vertex 0's parent from the second BFS twice
        total = _load_fixture_module("rpr024_bad.py").compare_roots(
            graph, 0, 15, 2
        )
        assert total in (2, 8)

    def test_rpr024_twin_detach_resets(self):
        # the rpr024_clean scenario: a detached result survives re-lending
        graph = grid2d(4, 4)
        with ParallelBFS(num_threads=2) as engine:
            ws = BFSWorkspace(graph.num_vertices)
            first = engine.run(graph, 0, workspace=ws)
            first.detach()
            second = engine.run(graph, 15, workspace=ws)
        assert not np.shares_memory(first.parent, second.parent)
        assert int(first.parent[0]) == 0 and int(first.level[0]) == 0
        assert int(second.level[0]) == 6
        first.validate(graph)
        second.validate(graph)
        total = _load_fixture_module("rpr024_clean.py").compare_roots(
            graph, 0, 15, 2
        )
        assert total in (1, 4)  # 0 (root) + a grid neighbour of vertex 0


# -- the package lints clean under the new rules ---------------------------


def test_package_is_typestate_clean():
    violations, checked = lint_paths(
        [Path("src/repro")],
        select=list(LIFECYCLE_RULES),
        deep=True,
    )
    assert checked > 80
    assert violations == []
