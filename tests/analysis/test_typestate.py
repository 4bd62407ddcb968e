"""Typestate & protocol verification tier (RPR023, RPR024).

Each rule has a golden bad/clean fixture pair, and RPR023 additionally
proves the interprocedural lift (the one-level view provably misses
it).  The dynamic twins run each bad fixture's scenario on the real
engine and workspace, showing the defect the static rule reports.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    PROTOCOLS,
    TypestateAnalysis,
    get_protocol,
    lint_paths,
    lint_source,
    project_from_sources,
)
from repro.analysis.typestate import protocol_for_ctor
from repro.bfs.parallel import ParallelBFS
from repro.bfs.workspace import BFSWorkspace
from repro.errors import AnalysisError, BFSError
from repro.graph.generators import grid2d

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

TYPESTATE_RULES = ("RPR023", "RPR024")


def _fixture_source(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def _load_fixture_module(name: str):
    """Import a fixture file as a real module (the fixtures directory
    is not a package)."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        f"typestate_fixture_{name.removesuffix('.py')}", FIXTURES / name
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


# -- golden pairs ----------------------------------------------------------


class TestGoldenFixtures:
    @pytest.mark.parametrize("rule", TYPESTATE_RULES)
    def test_bad_fixture_is_caught(self, rule):
        violations = _lint_fixture(f"{rule.lower()}_bad.py", rule)
        assert violations, f"{rule} must fire on its bad fixture"
        assert {v.rule for v in violations} == {rule}

    @pytest.mark.parametrize("rule", TYPESTATE_RULES)
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
    """The RPR023 bad fixture plants a violation the one-level view
    provably misses."""

    @pytest.mark.parametrize(
        ("fixture", "rule"), [("rpr023_bad.py", "RPR023")]
    )
    def test_one_level_view_misses_it(self, fixture, rule):
        path = f"src/repro/bfs/{fixture}"
        source = _fixture_source(fixture)
        project = project_from_sources([(path, source)])
        blind = TypestateAnalysis(
            project,
            extra_sources={path: source},
            interprocedural=False,
        )
        assert blind.run()[rule] == {}, (
            f"{rule}: the intraprocedural view must NOT see this "
            "violation — otherwise the fixture no longer proves the "
            "interprocedural lift"
        )
        full = TypestateAnalysis(
            project, extra_sources={path: source}
        )
        assert full.run()[rule], f"{rule}: the fixpoint view must see it"


# -- the machine registry --------------------------------------------------


class TestProtocolSpecs:
    def test_registry_covers_the_contracts(self):
        assert set(PROTOCOLS) == {
            "flight-recorder",
            "bfs-workspace",
            "parallel-bfs",
        }

    def test_every_machine_guards_an_existing_class(self):
        """A machine stays only while the class it guards exists: each
        constructor name resolves to a class defined under src/repro."""
        defined = {
            node.name
            for path in SRC.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef)
        }
        for spec in PROTOCOLS.values():
            assert spec.ctors, f"{spec.name} names no constructor"
            missing = sorted(spec.ctors - defined)
            assert not missing, f"{spec.name} guards deleted {missing}"

    def test_unknown_machine_raises(self):
        with pytest.raises(AnalysisError, match="unknown protocol"):
            get_protocol("nope")

    def test_ctor_and_type_lookup(self):
        assert protocol_for_ctor("ParallelBFS").name == "parallel-bfs"
        assert protocol_for_ctor("CSRGraph") is None
        # every class a machine guards maps back to that machine
        for spec in PROTOCOLS.values():
            for ctor in spec.ctors:
                assert protocol_for_ctor(ctor) is spec

    def test_step_semantics(self):
        spec = get_protocol("parallel-bfs")
        assert spec.step_set(frozenset({"open"}), "run") == (
            frozenset({"open"}), True,
        )
        # a violation from every current state leaves the states alone
        assert spec.step_set(frozenset({"closed"}), "run") == (
            frozenset({"closed"}), False,
        )
        assert spec.step_set(frozenset({"open", "closed"}), "close") == (
            frozenset({"closed"}), True,
        )
        assert spec.accepting == frozenset({"closed"})

    def test_dot_export_is_wellformed(self):
        dot = get_protocol("bfs-workspace").to_dot()
        assert dot.startswith('digraph "bfs-workspace"')
        assert "doublecircle" in dot  # accepting states marked
        assert "begin" in dot and "detach" in dot
        assert dot.rstrip().endswith("}")

    def test_as_dict_round_trips_the_shape(self):
        payload = get_protocol("flight-recorder").as_dict()
        assert payload["name"] == "flight-recorder"
        assert payload["initial"] == "created"
        assert ["attached", "exit", "detached"] in [
            list(t) for t in payload["transitions"]
        ]


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
        [(f"{r.lower()}_bad.py", r) for r in TYPESTATE_RULES],
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
        select=list(TYPESTATE_RULES),
        deep=True,
    )
    assert checked > 80
    assert violations == []
